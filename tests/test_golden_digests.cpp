// Golden digests: the behavioural contract, checked in.
//
// Each cell runs one small seeded workload and reduces its outputs to one
// line: the cell name, then `field=value` pairs named as in
// perfbench/golden.json. `meter_up_down_by_category` lists the up direction
// and then the down direction, each in traffic_category order. A cell passes
// only when its line equals the one recorded in tests/golden/digests.txt, so
// a change meant to keep behaviour (a deletion, a refactor, a speedup) must
// leave every line byte-identical.
//
//   test_golden_digests            compare every cell with digests.txt
//   test_golden_digests --record   rewrite digests.txt from this build
//
// Re-record only for a change that is meant to move metered bytes, and say
// which cells moved and why.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <functional>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "chunking/cdc.hpp"
#include "chunking/rsync.hpp"
#include "compress/lzss.hpp"
#include "core/experiment.hpp"
#include "core/fleet.hpp"
#include "core/parallel_runner.hpp"
#include "hotpath_grid.hpp"
#include "server/session.hpp"
#include "server/sync_server.hpp"
#include "util/crc32.hpp"
#include "util/rng.hpp"

namespace cloudsync {
namespace {

/// The ` key=value` pairs of one digest line; the cell name goes in front.
class digest_line {
 public:

  digest_line& num(const char* key, std::uint64_t v) {
    text_ += ' ';
    text_ += key;
    text_ += '=';
    text_ += std::to_string(v);
    return *this;
  }
  digest_line& list(const char* key, const std::vector<std::uint64_t>& v) {
    text_ += ' ';
    text_ += key;
    text_ += "=[";
    for (std::size_t i = 0; i < v.size(); ++i) {
      if (i > 0) text_ += ',';
      text_ += std::to_string(v[i]);
    }
    text_ += ']';
    return *this;
  }
  digest_line& hex(const char* key, std::uint64_t v) {
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(v));
    text_ += ' ';
    text_ += key;
    text_ += '=';
    text_ += buf;
    return *this;
  }
  /// A double as its exact bit pattern.
  digest_line& bits(const char* key, double v) {
    return hex(key, std::bit_cast<std::uint64_t>(v));
  }
  const std::string& str() const { return text_; }

 private:
  std::string text_;
};

std::vector<std::uint64_t> meter_cells(const traffic_meter& m) {
  std::vector<std::uint64_t> cells;
  for (const direction dir : {direction::up, direction::down}) {
    for (std::size_t c = 0;
         c < static_cast<std::size_t>(traffic_category::kCount); ++c) {
      cells.push_back(m.get(dir, static_cast<traffic_category>(c)));
    }
  }
  return cells;
}

// --- streaming sync worlds ---------------------------------------------------

/// A mix of compressible, text and incompressible files, then edits and
/// appends: full uploads, deltas and the dedup probe all run.
void run_stream_workload(experiment_env& env) {
  station& st = env.primary();
  rng content(7);
  st.fs.create("a.bin", make_compressed_file(content, 600 * 1024),
               env.clock().now());
  st.fs.create("b.txt", make_text_file(content, 200 * 1024),
               env.clock().now());
  st.fs.create("c.rand", random_bytes(content, 150 * 1024),
               env.clock().now());
  env.settle();
  for (int i = 0; i < 3; ++i) {
    env.clock().advance_to(env.clock().now() + sim_time::from_sec(60));
    modify_random_byte(st.fs, "a.bin", env.random(), env.clock().now());
    env.settle();
  }
  env.clock().advance_to(env.clock().now() + sim_time::from_sec(60));
  append_random(st.fs, "b.txt", env.random(), 32 * 1024, env.clock().now());
  env.settle();
  env.clock().advance_to(env.clock().now() + sim_time::from_sec(60));
  modify_random_byte(st.fs, "c.rand", env.random(), env.clock().now());
  env.settle();
}

std::string stream_cell(service_profile profile, bool journal) {
  experiment_config cfg{std::move(profile)};
  cfg.method = access_method::pc_client;
  cfg.journal = journal;
  experiment_env env(cfg);
  run_stream_workload(env);

  std::uint64_t identity = 0;
  for (const char* path : {"a.bin", "b.txt", "c.rand"}) {
    identity =
        mix64(identity ^ env.the_cloud().file_content(0, path)->hash64());
  }
  return digest_line()
      .num("commits", env.primary().client->counters().commits)
      .list("meter_up_down_by_category",
            meter_cells(env.primary().client->meter()))
      .hex("identity", identity)
      .str();
}

// --- fleet replay ------------------------------------------------------------

/// test_fleet's small_config().
std::string fleet_cell(unsigned replay_threads) {
  fleet_config cfg;
  cfg.trace.scale = 0.004;
  cfg.max_files_per_service = 40;
  cfg.trace.max_file_bytes = 512 * KiB;
  cfg.replay_threads = replay_threads;
  std::vector<std::uint64_t> files, dropped, users, update_bytes, traffic,
      commits, retained, live;
  for (const fleet_service_report& r : replay_trace_fleet(cfg)) {
    files.push_back(r.files);
    dropped.push_back(r.dropped_files);
    users.push_back(r.users);
    update_bytes.push_back(r.update_bytes);
    traffic.push_back(r.sync_traffic);
    commits.push_back(r.commits);
    retained.push_back(r.backend_retained_bytes);
    live.push_back(r.backend_live_bytes);
  }
  return digest_line()
      .list("files", files)
      .list("dropped_files", dropped)
      .list("users", users)
      .list("update_bytes", update_bytes)
      .list("service_traffic", traffic)
      .list("commits", commits)
      .list("backend_retained_bytes", retained)
      .list("backend_live_bytes", live)
      .str();
}

// --- sharded sync server -----------------------------------------------------

/// test_sync_server's small_params(11) wave.
std::string server_cell(std::uint32_t shards, unsigned threads) {
  workload_params p;
  p.seed = 11;
  p.user_population = 200;
  p.sessions = 40;
  p.files_per_session = 5;
  p.mean_file_bytes = 2048;
  p.identity_pool = 16;
  p.p_pool_identity = 0.5;
  p.p_repeat_in_session = 0.2;
  const std::vector<session_workload> work = make_session_workloads(p);
  sync_server srv(server_config{.shards = shards});
  parallel_runner pool(threads);
  const std::vector<session_result> results =
      parallel_map_n<session_result>(pool, work.size(), [&](std::size_t i) {
        return run_session(srv, work[i]);
      });

  std::uint64_t files = 0, uploads = 0, dedup_hits = 0, update_bytes = 0,
                traffic = 0;
  for (const session_result& r : results) {
    files += r.files;
    uploads += r.files_uploaded;
    dedup_hits += r.dedup_hits;
    update_bytes += r.update_bytes;
    traffic += r.meter.total();
  }
  return digest_line()
      .hex("results_identity_hash", results_identity_hash(results))
      .num("sessions", results.size())
      .num("files", files)
      .num("uploads", uploads)
      .num("dedup_hits", dedup_hits)
      .num("update_bytes", update_bytes)
      .num("sync_traffic", traffic)
      .str();
}

// --- protocol selection and the cache tier -----------------------------------

/// test_sync_protocol's lab profile: small delta blocks and CDC dedup, so
/// all three protocols are in play.
std::string protocol_cell() {
  service_profile lab = dropbox();
  lab.name = "lab";
  lab.delta_chunk_size = 4 * KiB;
  lab.dedup = {dedup_granularity::content_defined, 4 * MiB,
               /*cross_user=*/false, cdc_params{}};
  experiment_config cfg{lab};
  cfg.method = access_method::pc_client;
  cfg.protocol.mode = protocol_mode::adaptive;
  const experiment_result r = run_protocol_experiment(
      cfg, protocol_workload::small_edits, 3, 32 * KiB);
  return digest_line()
      .num("commits", r.counters.commits)
      .num("update_bytes", r.data_update_bytes)
      .list("meter_up_down_by_category", meter_cells(r.meter))
      .list("picks", {r.selector.picks.begin(), r.selector.picks.end()})
      .str();
}

/// A capped ARC write-back cache with a 5 s coalescing window.
std::string cache_cell() {
  experiment_config cfg{dropbox()};
  cfg.method = access_method::pc_client;
  cfg.cache_tier = true;
  cfg.cache.capacity_bytes = 96 * KiB;
  cfg.cache.block_bytes = 8 * KiB;
  cfg.cache.policy = cache_eviction::arc;
  cfg.cache.write_mode = cache_write_mode::write_back;
  cfg.cache.coalesce_window = sim_time::from_sec(5.0);
  const experiment_result r =
      run_cache_experiment(cfg, cache_workload::frequent_mods, 4, 32 * KiB);
  const block_cache_stats& c = r.cache;
  return digest_line()
      .num("commits", r.counters.commits)
      .num("update_bytes", r.data_update_bytes)
      .list("meter_up_down_by_category", meter_cells(r.meter))
      .list("cache_hits_misses_evictions",
            {c.hits, c.misses, c.insertions, c.evictions, c.eviction_stalls})
      .list("cache_rehydrated_blocks_bytes",
            {c.rehydrated_blocks, c.rehydrated_bytes})
      .list("cache_dirty_marked_coalesced_flushes",
            {c.dirty_marked, c.dirty_coalesced, c.flushes, c.plan_fallbacks})
      .num("resident_bytes", r.resident_bytes)
      .str();
}

// --- the packaged experiments ------------------------------------------------

/// The create-then-modify workload under transient faults, no journal.
std::string failure_cell() {
  experiment_config cfg{dropbox()};
  cfg.method = access_method::pc_client;
  cfg.link = link_config::beijing();
  cfg.seed = 1234;
  cfg.faults = fault_plan::degraded(0.5);
  const experiment_result r = run_create_modify_experiment(cfg, 4, 128 * KiB);
  const client_counters& n = r.counters;
  return digest_line()
      .num("total_traffic", r.total_traffic())
      .num("retry_traffic", r.meter.by_category(traffic_category::retry))
      .num("update_bytes", r.data_update_bytes)
      .bits("tue", r.tue())
      .bits("completion_sec", r.completion_sec)
      .list("retries_requeues_fallbacks", {n.retries, n.requeues, n.fallbacks})
      .num("faults_injected", r.faults_injected)
      .str();
}

/// The same workload journaled, with transient faults and sampled client
/// crashes together: every incarnation's traffic counts.
std::string crash_cell() {
  experiment_config cfg{dropbox()};
  cfg.method = access_method::pc_client;
  cfg.journal = true;
  cfg.recovery.resume = true;
  cfg.recovery.chunk_bytes = 64 * KiB;
  cfg.seed = 99;
  cfg.faults = fault_plan::merged(fault_plan::degraded(0.3, /*seed=*/11),
                                  fault_plan::crashes(0.2, /*seed=*/7));
  const experiment_result r = run_create_modify_experiment(cfg, 4, 128 * KiB);
  return digest_line()
      .num("total_traffic", r.total_traffic())
      .num("resume_traffic", r.meter.by_category(traffic_category::resume))
      .num("retry_traffic", r.meter.by_category(traffic_category::retry))
      .num("update_bytes", r.data_update_bytes)
      .bits("tue", r.tue())
      .bits("completion_sec", r.completion_sec)
      .num("crashes", r.crashes)
      .list("resumes_recovery_restarts",
            {r.counters.resumes, r.counters.recovery_restarts})
      .list("journal_begun_committed_aborted",
            {r.journal_begun, r.journal_committed, r.journal_aborted})
      .num("invariant_violations", r.invariants.violations.size())
      .str();
}

/// Striped session uploads under the adaptive scheduler on a faulty link.
std::string transfer_cell() {
  experiment_config cfg{dropbox()};
  cfg.method = access_method::pc_client;
  cfg.link = link_config::beijing();
  cfg.seed = 4711;
  cfg.journal = true;
  cfg.recovery.chunk_bytes = 8 * KiB;
  cfg.faults = fault_plan::degraded(0.6);
  cfg.transfer.enabled = true;
  const experiment_result r = run_transfer_experiment(cfg, 3, 96 * KiB);
  std::vector<std::uint64_t> delays_us, dispatches, faults, busy_us;
  for (const double s : r.delay_samples_sec) {
    delays_us.push_back(static_cast<std::uint64_t>(std::llround(s * 1e6)));
  }
  for (const connection_stats& c : r.per_connection) {
    dispatches.push_back(c.dispatches);
    faults.push_back(c.faults);
    busy_us.push_back(static_cast<std::uint64_t>(c.busy.usec()));
  }
  const transfer_stats& s = r.sched;
  const client_counters& n = r.counters;
  const traffic_meter& m = r.meter;
  return digest_line()
      .list("delay_samples_us", delays_us)
      .num("total_traffic", r.total_traffic())
      .list("payload_retry_redundancy_resume_traffic",
            {m.by_category(traffic_category::payload),
             m.by_category(traffic_category::retry),
             m.by_category(traffic_category::redundancy),
             m.by_category(traffic_category::resume)})
      .num("update_bytes", r.data_update_bytes)
      .bits("tue", r.tue())
      .list("retries_requeues_fallbacks", {n.retries, n.requeues, n.fallbacks})
      .num("faults_injected", r.faults_injected)
      .list("sched_observed_decisions_escalations",
            {s.observed_success, s.observed_faults, s.decisions,
             s.escalations})
      .list("sched_stripes_data_parity",
            {s.stripes, s.data_shards, s.parity_shards})
      .list("sched_hedges_fired_won_cancelled",
            {s.hedges_fired, s.hedges_won, s.hedges_cancelled})
      .list("sched_reconstructions_rounds_shard_faults",
            {s.reconstructions, s.recovery_rounds, s.shard_faults})
      .list("sched_last_k_r_hedge_us",
            {static_cast<std::uint64_t>(s.last_connections),
             static_cast<std::uint64_t>(s.last_parity),
             static_cast<std::uint64_t>(s.last_hedge_timeout.usec())})
      .list("conn_dispatches", dispatches)
      .list("conn_faults", faults)
      .list("conn_busy_us", busy_us)
      .str();
}

/// The paper's "X KB / X sec" appending workload at 1 KB / 1 s.
std::string append_cell() {
  experiment_config cfg{dropbox()};
  cfg.method = access_method::pc_client;
  const experiment_result r = run_append_experiment(cfg, 1.0, 1.0, 64 * KiB);
  return digest_line()
      .num("total_traffic", r.total_traffic())
      .num("update_bytes", r.data_update_bytes)
      .num("commits", r.counters.commits)
      .bits("tue", r.tue())
      .str();
}

// --- LZSS frames -------------------------------------------------------------

/// Every lzss_compress frame of a seeded corpus at levels 0-9, reduced to
/// their count, total size and CRC-32: this pins the writer's bytes, where
/// the meter cells above only see frame sizes. The corpus holds the stored
/// thresholds, noise (stored fallback), runs, text inside one 64 KiB window
/// and across a 256 KiB stretch, a period at the window edge, and synthetic
/// payload.
std::string lzss_cell() {
  rng r(17);
  std::vector<byte_buffer> corpus = {
      random_bytes(r, 7),
      random_text(r, 8),
      random_text(r, 4096),
      random_bytes(r, 9000),
      byte_buffer(5000, std::uint8_t{'x'}),
      random_text(r, 70'000),
      random_text(r, 300'001),
      synthetic_payload(r, 100'000, 1.8),
  };
  const byte_buffer unit = random_text(r, 65'537);
  byte_buffer periodic;
  while (periodic.size() < 140'000) append(periodic, unit);
  corpus.push_back(std::move(periodic));

  std::uint64_t frames = 0, bytes = 0;
  std::uint32_t crc = 0;
  for (int level = 0; level <= 9; ++level) {
    for (const byte_buffer& input : corpus) {
      const byte_buffer frame = lzss_compress(input, {.level = level});
      ++frames;
      bytes += frame.size();
      crc = crc32(frame, crc);
    }
  }
  return digest_line()
      .num("frames", frames)
      .num("bytes", bytes)
      .hex("crc32", crc)
      .str();
}

// --- rsync signatures and deltas ---------------------------------------------

/// The edited versions of `old_data` one delta is computed for: the same
/// bytes, a one-byte change, an insert, a truncation, an append, and +1, -1,
/// -1, +1 at four consecutive offsets, which keeps both weak sums of the
/// block and changes its strong sum.
std::vector<byte_buffer> rsync_edits(const byte_buffer& old_data,
                                     std::size_t block_size, rng& r) {
  std::vector<byte_buffer> edits = {old_data};
  if (old_data.empty()) {
    edits.push_back(random_bytes(r, block_size + 5));
    return edits;
  }
  byte_buffer changed = old_data;
  changed[r.uniform(changed.size())] ^= 0x5a;
  edits.push_back(std::move(changed));

  byte_buffer inserted = old_data;
  const byte_buffer ins = random_bytes(r, 1 + r.uniform(2 * block_size));
  inserted.insert(inserted.begin() + static_cast<std::ptrdiff_t>(
                                         r.uniform(inserted.size() + 1)),
                  ins.begin(), ins.end());
  edits.push_back(std::move(inserted));

  edits.emplace_back(old_data.begin(),
                     old_data.begin() + static_cast<std::ptrdiff_t>(
                                            r.uniform(old_data.size())));

  byte_buffer appended = old_data;
  append(appended, random_bytes(r, 1 + r.uniform(3 * block_size)));
  edits.push_back(std::move(appended));

  // The first four bytes from the middle of the file that take +1/-1
  // without wrapping.
  byte_buffer collided = old_data;
  for (std::size_t k = collided.size() / 2; k + 4 <= collided.size(); ++k) {
    if (collided[k] < 255 && collided[k + 1] > 0 && collided[k + 2] > 0 &&
        collided[k + 3] < 255) {
      ++collided[k];
      --collided[k + 1];
      --collided[k + 2];
      ++collided[k + 3];
      break;
    }
  }
  edits.push_back(std::move(collided));
  return edits;
}

/// Every signature's (weak, strong) pairs and every serialized delta wire of
/// a seeded corpus, at the two services' rsync block sizes (10 KiB and
/// 128 KiB) and an odd small one, reduced to counts and one CRC-32. The old
/// files hold no full block, one block, a few blocks with a short tail, a
/// file that repeats one block several times (several candidates share both
/// sums, so the first matching index is pinned), and 20 blocks.
std::string rsync_cell() {
  rng r(23);
  std::uint64_t signatures = 0, blocks = 0, deltas = 0, wire_bytes = 0;
  std::uint32_t crc = 0;
  for (const std::size_t bs : {std::size_t{700}, std::size_t{10 * KiB},
                               std::size_t{128 * KiB}}) {
    const byte_buffer a = random_bytes(r, bs), b = random_bytes(r, bs),
                      c = random_bytes(r, bs);
    byte_buffer repeated;
    for (const byte_buffer* block : {&a, &b, &a, &a, &c, &a, &a}) {
      append(repeated, *block);
    }
    append(repeated, random_bytes(r, 100));
    const std::vector<byte_buffer> olds = {
        {},
        random_bytes(r, bs / 2),
        random_bytes(r, bs),
        random_bytes(r, 3 * bs + 17),
        std::move(repeated),
        random_bytes(r, 20 * bs + 333),
    };
    for (const byte_buffer& old_data : olds) {
      const file_signature sig =
          compute_signature_ref(content_ref::from_bytes(old_data), bs);
      ++signatures;
      blocks += sig.blocks.size();
      for (const block_signature& s : sig.blocks) {
        std::uint8_t weak[4];
        for (int i = 0; i < 4; ++i) {
          weak[i] = static_cast<std::uint8_t>(s.weak >> (8 * i));
        }
        crc = crc32(byte_view(weak, 4), crc);
        crc = crc32(s.strong.bytes, crc);
      }
      for (const byte_buffer& new_data : rsync_edits(old_data, bs, r)) {
        const byte_buffer wire = serialize_delta(
            compute_delta_ref(sig, content_ref::from_bytes(new_data)));
        ++deltas;
        wire_bytes += wire.size();
        crc = crc32(wire, crc);
      }
    }
  }
  return digest_line()
      .num("signatures", signatures)
      .num("blocks", blocks)
      .num("deltas", deltas)
      .num("wire_bytes", wire_bytes)
      .hex("crc32", crc)
      .str();
}

// --- payload generators ------------------------------------------------------

/// random_bytes and synthetic_payload from a fresh rng per call, reduced to a
/// running CRC-32 of their bytes plus a fold of the rng's next word after
/// each call. The bytes pin the word store (order, tail); the next words pin
/// the call sequence, so an extra or a missing next() moves this line even
/// where the bytes do not.
std::string payload_generators_cell() {
  std::uint64_t seed = 0, bytes = 0;
  std::uint32_t random_crc = 0, synthetic_crc = 0;
  std::uint64_t random_next = 0, synthetic_next = 0;
  for (const std::size_t n : {0, 1, 7, 8, 9, 255, 256, 257, 4095, 4096, 4097,
                              64 * 1024 + 3}) {
    rng r(++seed);
    const byte_buffer out = random_bytes(r, n);
    bytes += out.size();
    random_crc = crc32(out, random_crc);
    random_next = mix64(random_next ^ r.next());
  }
  for (const double ratio : {1.0, 1.31, 2.2, 4.0}) {
    for (const std::size_t n : {0, 1, 255, 256, 257, 10'000, 100'003}) {
      rng r(++seed);
      const byte_buffer out = synthetic_payload(r, n, ratio);
      bytes += out.size();
      synthetic_crc = crc32(out, synthetic_crc);
      synthetic_next = mix64(synthetic_next ^ r.next());
    }
  }
  return digest_line()
      .num("bytes", bytes)
      .hex("random_bytes_crc32", random_crc)
      .hex("random_bytes_next", random_next)
      .hex("synthetic_payload_crc32", synthetic_crc)
      .hex("synthetic_payload_next", synthetic_next)
      .str();
}

// --- the memo grid -----------------------------------------------------------

/// hotpath_report's grid, run serially twice in one process: first with
/// every process-wide memo cold, then warm. Recorded before memoization
/// became unconditional, from the grid run with every memo off, so the cold
/// pass pins each miss path and the warm pass each hit path. The line gains
/// a `warm_traffic` field only where the two passes differ.
std::string memo_grid_cell() {
  const auto jobs = bench::hotpath_grid();
  bench::clear_memos();
  const std::vector<std::uint64_t> cold = bench::evaluate(jobs, 1);
  const std::vector<std::uint64_t> warm = bench::evaluate(jobs, 1);
  digest_line line;
  line.num("cells", cold.size()).list("traffic", cold);
  if (warm != cold) line.list("warm_traffic", warm);
  return line.str();
}

// --- content-defined chunking ------------------------------------------------

/// The input as a rope of private chunks cut at random points.
content_ref rope_cut_at_random(const byte_buffer& input, rng& r) {
  content_ref::builder b;
  std::size_t off = 0;
  while (off < input.size()) {
    const std::size_t len = std::min<std::size_t>(
        input.size() - off, 1 + r.uniform(r.chance(0.5) ? 64 : 96 * KiB));
    b.append(content_ref::adopt(byte_buffer(
        input.begin() + static_cast<std::ptrdiff_t>(off),
        input.begin() + static_cast<std::ptrdiff_t>(off + len))));
    off += len;
  }
  return b.build();
}

bool same_chunks(const std::vector<chunk_ref>& a,
                 const std::vector<chunk_ref>& b) {
  return std::equal(a.begin(), a.end(), b.begin(), b.end(),
                    [](const chunk_ref& x, const chunk_ref& y) {
                      return x.offset == y.offset && x.size == y.size;
                    });
}

/// Every content_defined_chunks boundary of a seeded corpus under several
/// parameter sets, reduced to the chunk count and one CRC-32 over each
/// chunk's offset and size (8 bytes each, little-endian). The sets hold the
/// defaults, one-byte chunks ({1, 1, 4}), fixed-size chunks (min == avg ==
/// max), a min size below the mask width (no hash skip) and a larger set;
/// the inputs run from empty to 3 MiB, random, synthetic, text and one
/// constant run (its gear hash settles on one value, so it cuts at every
/// byte or only at max_size).
/// Each input is also chunked as a rope cut at random points; the line
/// gains a `rope_mismatches` field only where a rope's boundaries differ.
std::string cdc_cell() {
  rng r(29);
  const std::vector<byte_buffer> corpus = {
      {},
      random_bytes(r, 1),
      random_bytes(r, 100),
      random_bytes(r, 2048),
      random_bytes(r, 2049),
      random_bytes(r, 70'001),
      synthetic_payload(r, 300'000, 1.8),
      random_text(r, 1 * MiB),
      byte_buffer(200'000, std::uint8_t{'x'}),
      random_bytes(r, 3 * MiB),
  };
  const cdc_params sets[] = {
      {},
      {1, 1, 4},
      {4096, 4096, 4096},
      {2, 64, 4096},
      {512, 2048, 8192},
      {16 * KiB, 64 * KiB, 256 * KiB},
  };
  rng cuts(31);
  std::uint64_t chunks = 0, rope_mismatches = 0;
  std::uint32_t crc = 0;
  for (const cdc_params& p : sets) {
    for (const byte_buffer& input : corpus) {
      const std::vector<chunk_ref> flat = content_defined_chunks(input, p);
      if (!same_chunks(content_defined_chunks(rope_cut_at_random(input, cuts),
                                              p),
                       flat)) {
        ++rope_mismatches;
      }
      for (const chunk_ref& c : flat) {
        std::uint8_t le[16];
        for (int i = 0; i < 8; ++i) {
          le[i] = static_cast<std::uint8_t>(c.offset >> (8 * i));
          le[8 + i] = static_cast<std::uint8_t>(c.size >> (8 * i));
        }
        crc = crc32(byte_view(le, 16), crc);
        ++chunks;
      }
    }
  }
  digest_line line;
  line.num("chunks", chunks).hex("crc32", crc);
  if (rope_mismatches > 0) line.num("rope_mismatches", rope_mismatches);
  return line.str();
}

// --- edited versions ---------------------------------------------------------

/// One edit of a file's whole content, written back as a new version.
content_ref inserted(const content_ref& c, std::size_t off, byte_view data) {
  content_ref::builder b;
  b.append(c, 0, off);
  b.append_bytes(data);
  b.append(c, off, c.size() - off);
  return b.build();
}

/// Compressible files of 70 KiB to 3 MiB through a chain of edits on a
/// full-file compressing client, so that every version is priced whole:
/// Ubuntu One's PC client at its level 5, then copies of it at levels 1 and
/// 9. Each file takes one-byte patches in its first 64 KiB, mid-file and in
/// its last 262 bytes, then an insert, an append and a truncation. A second
/// device of the same user then edits one file, the first adopts that version
/// by download and edits it once more. The line holds, per level, each
/// device's commits and meter cells, and the identity of the cloud's files.
std::string edited_versions_cell() {
  std::vector<std::uint64_t> commits, meter;
  std::uint64_t identity = 0;
  for (const int level : {5, 1, 9}) {
    service_profile profile = ubuntu_one();
    profile.method(access_method::pc_client).upload_compression_level = level;
    experiment_config cfg{std::move(profile)};
    cfg.method = access_method::pc_client;
    experiment_env env(cfg);
    station& a = env.primary();
    station& b = env.add_station(0);
    const auto step = [&env] {
      env.settle();
      env.clock().advance_to(env.clock().now() + sim_time::from_sec(60));
    };
    rng r(37 + static_cast<std::uint64_t>(level));
    const std::vector<std::string> paths = {"small.bin", "text.txt",
                                            "large.bin"};
    a.fs.create(paths[0], synthetic_payload(r, 70 * KiB + 3, 2.0),
                env.clock().now());
    a.fs.create(paths[1], random_text(r, 700 * KiB + 11), env.clock().now());
    a.fs.create(paths[2], synthetic_payload(r, 3 * MiB, 1.8),
                env.clock().now());
    step();
    // Every rng draw is its own statement, so the draw order is fixed.
    const auto patch_one_byte = [&](station& st, const std::string& path,
                                    std::size_t off) {
      const byte_buffer byte = random_bytes(r, 1);
      st.fs.patch(path, off, byte, env.clock().now());
      step();
    };
    for (const std::string& path : paths) {
      const auto size = [&] { return a.fs.read(path).size(); };
      patch_one_byte(a, path, r.uniform(64 * KiB));
      patch_one_byte(a, path, size() / 2);
      patch_one_byte(a, path, size() - 1 - r.uniform(262));
      const std::size_t at = r.uniform(size());
      const byte_buffer text = random_text(r, 1 + r.uniform(5000));
      a.fs.write(path, inserted(a.fs.read(path), at, text),
                 env.clock().now());
      step();
      const byte_buffer tail = random_text(r, 1 + r.uniform(20'000));
      a.fs.append(path, tail, env.clock().now());
      step();
      const std::size_t cut = r.uniform(30'000);
      a.fs.write(path, a.fs.read(path).substr(0, size() - cut),
                 env.clock().now());
      step();
    }
    // The second device edits the text file; the first adopts that version
    // by download, which replaces its shadow without a plan, then edits it.
    b.client->poll_remote_changes();
    step();
    patch_one_byte(b, paths[1], b.fs.read(paths[1]).size() / 3);
    a.client->poll_remote_changes();
    step();
    patch_one_byte(a, paths[1], a.fs.read(paths[1]).size() / 3 + 5000);
    for (const station* st : {&a, &b}) {
      commits.push_back(st->client->counters().commits);
      const std::vector<std::uint64_t> cells = meter_cells(st->client->meter());
      meter.insert(meter.end(), cells.begin(), cells.end());
    }
    for (const std::string& path : paths) {
      identity =
          mix64(identity ^ env.the_cloud().file_content(0, path)->hash64());
    }
  }
  return digest_line()
      .list("commits", commits)
      .list("meter_up_down_by_category", meter)
      .hex("identity", identity)
      .str();
}

// --- the cell table ----------------------------------------------------------

struct cell {
  const char* name;
  std::function<std::string()> fields;

  std::string line() const { return name + fields(); }
};

const std::vector<cell>& cells() {
  static const std::vector<cell> table = {
      {"stream_dropbox", [] { return stream_cell(dropbox(), false); }},
      {"stream_google_drive",
       [] { return stream_cell(google_drive(), false); }},
      {"stream_dropbox_journal", [] { return stream_cell(dropbox(), true); }},
      {"stream_sugarsync", [] { return stream_cell(sugarsync(), false); }},
      {"fleet_threads1", [] { return fleet_cell(1); }},
      {"fleet_threads4", [] { return fleet_cell(4); }},
      {"server_shards1_threads1", [] { return server_cell(1, 1); }},
      {"server_shards4_threads4", [] { return server_cell(4, 4); }},
      {"protocol_adaptive_small_edits", protocol_cell},
      {"cache_write_back_frequent_mods", cache_cell},
      {"lzss_frames", lzss_cell},
      {"payload_generators", payload_generators_cell},
      {"failure_degraded", failure_cell},
      {"crash_merged_plan", crash_cell},
      {"transfer_adaptive", transfer_cell},
      {"append_dropbox", append_cell},
      {"rsync_deltas", rsync_cell},
      {"memo_grid", memo_grid_cell},
      {"cdc_boundaries", cdc_cell},
      {"edited_versions", edited_versions_cell},
  };
  return table;
}

std::map<std::string, std::string> load_digests() {
  std::map<std::string, std::string> lines;
  std::ifstream in(CLOUDSYNC_GOLDEN_DIGESTS);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    lines[line.substr(0, line.find(' '))] = line;
  }
  return lines;
}

void expect_golden(const char* name) {
  const auto it = std::find_if(cells().begin(), cells().end(),
                               [&](const cell& c) {
                                 return std::string_view(c.name) == name;
                               });
  ASSERT_NE(it, cells().end()) << "unknown cell " << name;
  const std::string actual = it->line();
  const std::map<std::string, std::string> golden = load_digests();
  const auto want = golden.find(name);
  ASSERT_NE(want, golden.end())
      << "no line for " << name << " in " << CLOUDSYNC_GOLDEN_DIGESTS
      << "\n  actual:   " << actual;
  EXPECT_TRUE(want->second == actual)
      << "digest mismatch for " << name << "\n  expected: " << want->second
      << "\n  actual:   " << actual;
}

int record() {
  std::ofstream file(CLOUDSYNC_GOLDEN_DIGESTS);
  file << "# Golden digests: tests/test_golden_digests.cpp. Regenerate with\n"
       << "# `test_golden_digests --record`; one line per cell.\n";
  for (const cell& c : cells()) file << c.line() << '\n';
  if (!file.flush()) {
    std::fprintf(stderr, "cannot write %s\n", CLOUDSYNC_GOLDEN_DIGESTS);
    return 1;
  }
  std::printf("recorded %zu cells to %s\n", cells().size(),
              CLOUDSYNC_GOLDEN_DIGESTS);
  return 0;
}

// The four streaming-sync worlds.
TEST(StreamSync, DeltaServiceMetersIdenticalTraffic) {
  // Dropbox: IDS + compression + dedup.
  expect_golden("stream_dropbox");
}

TEST(StreamSync, FullFileServiceMetersIdenticalTraffic) {
  // Google Drive: no IDS, so every upload is priced by the rope sizer.
  expect_golden("stream_google_drive");
}

TEST(StreamSync, ResumableSessionsMeterIdenticalTraffic) {
  // Journaled: uploads ship through resumable sessions.
  expect_golden("stream_dropbox_journal");
}

TEST(StreamSync, SugarSyncLargeDeltaBlocksIdentical) {
  // 128 KiB delta blocks hit other tail and boundary cases than 10 KiB.
  expect_golden("stream_sugarsync");
}

TEST(GoldenDigests, FleetReplayOneThread) { expect_golden("fleet_threads1"); }

TEST(GoldenDigests, FleetReplayFourThreads) {
  expect_golden("fleet_threads4");
}

TEST(GoldenDigests, ServerOneShardOneThread) {
  expect_golden("server_shards1_threads1");
}

TEST(GoldenDigests, ServerFourShardsFourThreads) {
  expect_golden("server_shards4_threads4");
}

TEST(GoldenDigests, AdaptiveProtocolSmallEdits) {
  expect_golden("protocol_adaptive_small_edits");
}

TEST(GoldenDigests, WriteBackCacheFrequentMods) {
  expect_golden("cache_write_back_frequent_mods");
}

TEST(GoldenDigests, LzssFrames) { expect_golden("lzss_frames"); }

TEST(GoldenDigests, PayloadGenerators) { expect_golden("payload_generators"); }

TEST(GoldenDigests, FailureDegraded) { expect_golden("failure_degraded"); }

TEST(GoldenDigests, CrashMergedPlan) { expect_golden("crash_merged_plan"); }

TEST(GoldenDigests, TransferAdaptive) { expect_golden("transfer_adaptive"); }

TEST(GoldenDigests, AppendDropbox) { expect_golden("append_dropbox"); }

TEST(GoldenDigests, RsyncDeltas) { expect_golden("rsync_deltas"); }

TEST(GoldenDigests, MemoGrid) { expect_golden("memo_grid"); }

TEST(GoldenDigests, CdcBoundaries) { expect_golden("cdc_boundaries"); }

TEST(GoldenDigests, EditedVersions) { expect_golden("edited_versions"); }

}  // namespace
}  // namespace cloudsync

int main(int argc, char** argv) {
  ::testing::InitGoogleTest(&argc, argv);
  bool record = false;
  for (int i = 1; i < argc; ++i) {
    if (std::string_view(argv[i]) == "--record") {
      record = true;
    } else {
      std::fprintf(stderr, "usage: %s [--record] [gtest flags]\n", argv[0]);
      return 2;
    }
  }
  return record ? cloudsync::record() : RUN_ALL_TESTS();
}
