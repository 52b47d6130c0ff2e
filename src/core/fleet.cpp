#include "core/fleet.hpp"

#include <algorithm>
#include <cstring>
#include <map>
#include <unordered_map>

#include "core/parallel_runner.hpp"
#include "store/content_ref.hpp"
#include "util/content_cache.hpp"

namespace cloudsync {

namespace {

/// Above this size a record's content is built as a rope tiling a bounded
/// pool of seeded segments instead of one lazy whole-file chunk, so reading
/// (signing, diffing, uploading) a multi-GB file materializes O(pool) unique
/// bytes, never O(file).
constexpr std::uint64_t kPooledFileThreshold = 64 * MiB;
constexpr std::size_t kPoolSegmentBytes = 1 * MiB;
constexpr std::size_t kPoolSegments = 32;  ///< 32 MiB unique per big file

content_ref pooled_record_content(std::uint64_t seed, std::uint64_t size,
                                  double ratio) {
  std::vector<content_ref> pool;
  pool.reserve(kPoolSegments);
  for (std::size_t i = 0; i < kPoolSegments; ++i) {
    const std::uint64_t sub = mix64(seed ^ (0x9e3779b97f4a7c15ULL * (i + 1)));
    pool.push_back(content_ref::lazy(kPoolSegmentBytes, [sub, ratio] {
      rng r(sub);
      return synthetic_payload(r, kPoolSegmentBytes, ratio);
    }));
  }
  // Deterministic tiling: segment j of the file is a seeded pick from the
  // pool, so duplicate records (same seed/size/ratio) still alias the same
  // chunks and the bytes are stable across runs and window splits.
  content_ref::builder out;
  std::uint64_t off = 0;
  for (std::uint64_t j = 0; off < size; ++j) {
    const std::size_t len = static_cast<std::size_t>(
        std::min<std::uint64_t>(kPoolSegmentBytes, size - off));
    out.append(pool[mix64(seed ^ j) % kPoolSegments], 0, len);
    off += len;
  }
  return out.build();
}

/// Deterministic content for a trace record: seeded by the record's content
/// identity so exact duplicates get byte-identical files, sized and shaped
/// to match the recorded size and compression ratio.
///
/// Records with the same content identity alias one process-wide lazy ref —
/// the bytes are generated from the seed on first read and every duplicate
/// shares the same chunks, so fleet memory is O(unique bytes).
content_ref record_content(const trace_file_record& rec) {
  const std::uint64_t size = rec.original_size;
  const std::uint64_t seed = rec.full_md5.prefix64();
  const double ratio = rec.compression_ratio();
  auto generate = [seed, size, ratio] {
    rng content_rng(seed);
    return synthetic_payload(content_rng, static_cast<std::size_t>(size),
                             ratio);
  };
  // Identity memo: key is everything `generate` depends on, so a hit is the
  // same logical bytes. Thread-safe — parallel per-service replays share it.
  static content_memo<content_ref> memo(64 * 1024);
  std::uint64_t ratio_bits = 0;
  std::memcpy(&ratio_bits, &ratio, sizeof(ratio_bits));
  return memo.get_or_compute_keyed(mix64(seed), size, ratio_bits, [&] {
    if (size > kPooledFileThreshold) {
      return pooled_record_content(seed, size, ratio);
    }
    return content_ref::lazy(static_cast<std::size_t>(size), generate);
  });
}

fleet_service_report replay_service(const service_profile& profile,
                                    const std::vector<const trace_file_record*>&
                                        records,
                                    const fleet_config& cfg) {
  fleet_service_report report;
  report.service = profile.name;

  experiment_config ecfg{profile};
  ecfg.method = cfg.method;
  ecfg.link = cfg.link;
  ecfg.hardware = cfg.hardware;
  ecfg.cache_tier = cfg.cache_tier;
  ecfg.cache = cfg.cache;
  experiment_env env(ecfg);

  // One station per distinct trace user (cross-user dedup needs real
  // separate accounts).
  std::map<std::uint32_t, station*> stations;
  for (const trace_file_record* rec : records) {
    if (!stations.contains(rec->user)) {
      stations[rec->user] =
          stations.empty() ? &env.primary() : &env.add_station(rec->user);
    }
  }
  report.users = stations.size();

  // Schedule creations and modifications on the compressed timeline. File
  // sizes replay exactly as recorded: bounding them is the trace generator's
  // job (trace.max_file_bytes), never the replayer's.
  std::uint64_t update_bytes = 0;
  for (const trace_file_record* rec : records) {
    station* st = stations[rec->user];
    const sim_time created_at =
        sim_time::from_sec(rec->creation_time / cfg.time_compression);
    update_bytes += rec->original_size;
    env.clock().schedule_at(created_at, [st, rec, &env] {
      st->fs.create(rec->file_name, record_content(*rec),
                    env.clock().now());
    });
    // Modifications: spread after creation; random single-byte edits.
    for (std::uint32_t m = 0; m < rec->modify_count; ++m) {
      const sim_time at =
          created_at + sim_time::from_sec(30.0 * (m + 1));
      update_bytes += 1;
      env.clock().schedule_at(at, [st, rec, &env] {
        if (st->fs.exists(rec->file_name) &&
            st->fs.size(rec->file_name) > 0) {
          modify_random_byte(st->fs, rec->file_name, env.random(),
                             env.clock().now());
        }
      });
    }
  }
  env.settle();

  report.files = records.size();
  report.update_bytes = update_bytes;
  std::uint64_t down_bytes = 0, up_bytes = 0;
  running_stats staleness;
  for (const auto& [user, st] : stations) {
    report.sync_traffic += st->client->meter().total();
    report.commits += st->client->counters().commits;
    up_bytes += st->client->meter().total(direction::up);
    down_bytes += st->client->meter().total(direction::down);
    const running_stats& s = st->client->staleness_sec();
    if (s.count() > 0) staleness.add(s.mean());  // mean of per-user means
  }
  report.mean_staleness_sec = staleness.mean();
  report.bill = price_traffic(down_bytes, up_bytes, report.commits,
                              cfg.price);
  report.backend_retained_bytes = env.the_cloud().store().stats().retained_bytes;
  report.backend_live_bytes = env.the_cloud().store().stats().live_bytes;
  return report;
}

}  // namespace

std::vector<fleet_service_report> replay_trace_fleet(const fleet_config& cfg) {
  const trace_dataset ds = generate_trace(cfg.trace);

  // Group records per service, capped; count what the cap drops so the
  // report can state how much of the trace each replay actually covered.
  std::map<std::string, std::vector<const trace_file_record*>> by_service;
  std::map<std::string, std::size_t> dropped;
  for (const trace_file_record& rec : ds.files) {
    auto& vec = by_service[rec.service];
    if (vec.size() < cfg.max_files_per_service) {
      vec.push_back(&rec);
    } else {
      ++dropped[rec.service];
    }
  }

  // Each per-service replay owns its entire simulation world (clock, cloud,
  // filesystems), so the services fan out across the pool; slot-indexed
  // writes keep the report order identical to the serial path.
  std::vector<const service_profile*> jobs;
  std::vector<service_profile> profiles = all_services();
  for (const service_profile& profile : profiles) {
    if (by_service.contains(profile.name)) jobs.push_back(&profile);
  }
  std::vector<fleet_service_report> reports(jobs.size());
  parallel_runner pool(cfg.replay_threads);
  pool.run_indexed(jobs.size(), [&](std::size_t i) {
    reports[i] =
        replay_service(*jobs[i], by_service.at(jobs[i]->name), cfg);
    const auto dit = dropped.find(jobs[i]->name);
    if (dit != dropped.end()) reports[i].dropped_files = dit->second;
  });
  return reports;
}

}  // namespace cloudsync
