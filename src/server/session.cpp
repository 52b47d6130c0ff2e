#include "server/session.hpp"

#include <algorithm>
#include <chrono>

#include "server/sync_server.hpp"
#include "util/content_cache.hpp"
#include "util/rng.hpp"
#include "util/sha256.hpp"

namespace cloudsync {

const char* to_string(session_state s) {
  switch (s) {
    case session_state::idle:
      return "idle";
    case session_state::computing_diff:
      return "computing_diff";
    case session_state::transferring:
      return "transferring";
    case session_state::applying:
      return "applying";
    case session_state::complete:
      return "complete";
    case session_state::failed:
      return "failed";
  }
  return "?";
}

namespace {

// Seed-domain salts: pooled, unique, and per-user streams must never collide.
constexpr std::uint64_t kPoolDomain = 0x9e3779b97f4a0001ULL;
constexpr std::uint64_t kUniqueDomain = 0x517cc1b727220002ULL;
constexpr std::uint64_t kUserStreamDomain = 0xd1b54a32d1920003ULL;
constexpr std::uint64_t kSizeDomain = 0x2545f4914f6c0004ULL;
constexpr std::uint64_t kIdentitySalt = 0x1de47f1e5ALL;
constexpr std::size_t kIdentityMemoEntries = 64 * 1024;  ///< over all stripes
constexpr unsigned kIdentityStripeBits = 4;

using steady = std::chrono::steady_clock;

std::uint64_t ns_between(steady::time_point a, steady::time_point b) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(b - a).count());
}

}  // namespace

std::uint32_t size_for_seed(std::uint64_t seed, std::uint32_t mean_bytes) {
  rng r(mix64(seed ^ kSizeDomain));
  const std::uint64_t lo = std::max<std::uint64_t>(1, mean_bytes / 4);
  const std::uint64_t hi = std::max<std::uint64_t>(lo, 2ULL * mean_bytes);
  return static_cast<std::uint32_t>(r.uniform_range(lo, hi));
}

content_identity identity_for(std::uint64_t seed, std::uint32_t size) {
  // One generation + one SHA-256 per identity, shared by every session that
  // draws it (the pooled identities are drawn thousands of times per wave).
  // The memo is split into stripes picked by the key's high bits, so client
  // threads resolving different identities rarely meet on one mutex; each
  // stripe is an exact LRU over its share of the capacity.
  struct memo_stripe {
    content_memo<content_identity> memo{kIdentityMemoEntries >>
                                        kIdentityStripeBits};
  };
  static memo_stripe stripes[std::size_t{1} << kIdentityStripeBits];
  const std::uint64_t key = mix64(seed);
  return stripes[key >> (64 - kIdentityStripeBits)].memo.get_or_compute_keyed(
      key, size, kIdentitySalt, [&] {
        rng r(seed);
        byte_buffer bytes = random_bytes(r, size);
        content_identity id;
        // Fingerprint the bytes the identity keeps, so upload verification
        // hashes bytes already in memory.
        id.fp = sha256(bytes);
        id.content = content_ref::adopt(std::move(bytes));
        return id;
      });
}

std::vector<session_workload> make_session_workloads(const workload_params& p) {
  const std::uint32_t population = std::max<std::uint32_t>(1, p.user_population);
  const std::uint32_t sessions = std::min(std::max<std::uint32_t>(1, p.sessions), population);
  // Stride-sample distinct users across the population: i*stride < population
  // for all i < sessions, so ids never collide.
  const std::uint32_t stride = std::max<std::uint32_t>(1, population / sessions);
  const std::uint64_t base = mix64(p.seed);

  std::vector<session_workload> out(sessions);
  for (std::uint32_t i = 0; i < sessions; ++i) {
    session_workload& w = out[i];
    // User ids start at 1: dedup scope 0 is the global namespace.
    w.user = 1 + i * stride;
    rng r(mix64(base ^ kUserStreamDomain ^ w.user));
    w.files.reserve(p.files_per_session);
    for (std::uint32_t f = 0; f < p.files_per_session; ++f) {
      std::uint64_t seed;
      if (f > 0 && r.chance(p.p_repeat_in_session)) {
        // Repeat an earlier file's content under a new path — the
        // within-batch dedup case the server's diff must catch.
        seed = w.files[r.uniform(f)].content_seed;
      } else if (r.chance(p.p_pool_identity)) {
        const std::uint64_t pool_id = r.zipf(std::max<std::uint32_t>(1, p.identity_pool), 1.1);
        seed = mix64(base ^ kPoolDomain ^ pool_id);
      } else {
        seed = mix64(base ^ kUniqueDomain ^
                     (static_cast<std::uint64_t>(w.user) << 20) ^ f);
      }
      session_file file;
      file.path = "f" + std::to_string(f) + ".dat";
      file.content_seed = seed;
      file.size = size_for_seed(seed, p.mean_file_bytes);
      w.files.push_back(std::move(file));
    }
  }
  return out;
}

namespace {

std::string object_key_for(std::uint32_t user, const fingerprint& fp) {
  // Content-addressed per user: dedup guarantees each key is PUT at most
  // once per scope, so versioned-key reuse hazards never arise.
  return "u" + std::to_string(user) + "/o/" + std::to_string(fp.prefix64());
}

/// Tracks the lifecycle clock: accumulates wall time into the current
/// state's slot and reports transitions to the shard histogram.
class lifecycle {
 public:
  lifecycle(sync_server& srv, std::uint32_t user, session_result& res)
      : srv_(srv), user_(user), res_(res), mark_(steady::now()) {}

  void to(session_state next) {
    const auto now = steady::now();
    res_.timings.ns[static_cast<std::size_t>(state_)] += ns_between(mark_, now);
    mark_ = now;
    srv_.note_transition(user_, state_, next);
    state_ = next;
  }

 private:
  sync_server& srv_;
  std::uint32_t user_;
  session_result& res_;
  session_state state_ = session_state::idle;
  steady::time_point mark_;
};

}  // namespace

session_result run_session(sync_server& server, const session_workload& work,
                           const session_options& opts) {
  session_result res;
  res.user = work.user;
  res.files = static_cast<std::uint32_t>(work.files.size());

  lifecycle life(server, work.user, res);
  life.to(session_state::computing_diff);

  // Client-local: resolve content identities and build the diff request.
  std::vector<content_identity> ids;
  std::vector<std::string> keys;
  ids.reserve(work.files.size());
  keys.reserve(work.files.size());
  diff_request req;
  req.user = work.user;
  req.entries.reserve(work.files.size());
  for (const session_file& f : work.files) {
    ids.push_back(identity_for(f.content_seed, f.size));
    keys.push_back(object_key_for(work.user, ids.back().fp));
    req.entries.push_back({f.path, ids.back().fp, f.size});
    res.update_bytes += f.size;
  }

  const auto t_admit = steady::now();
  {
    sync_server::admission_ticket ticket = server.admit(work.user);
    res.queue_wait_ns = ticket.queue_wait_ns();
    res.shard = ticket.shard();

    // Attach RPC (device registration + scope warm-up).
    const device_id dev = server.attach_device(work.user);
    res.meter.record(direction::up, traffic_category::metadata,
                     kRpcEnvelopeBytes);
    res.meter.record(direction::down, traffic_category::metadata,
                     kRpcResponseBytes);

    // Diff RPC: one envelope for the whole snapshot.
    res.meter.record(direction::up, traffic_category::metadata,
                     kRpcEnvelopeBytes +
                         req.entries.size() * kSnapshotEntryBytes);
    const diff_response diff = server.compute_diff(req);
    res.meter.record(direction::down, traffic_category::metadata,
                     kRpcResponseBytes +
                         req.entries.size() * kDiffVerdictBytes);
    res.dedup_hits = static_cast<std::uint32_t>(diff.duplicate.size());
    res.files_uploaded = static_cast<std::uint32_t>(diff.upload.size());

    life.to(session_state::transferring);
    if (!diff.upload.empty()) {
      std::vector<upload_item> items;
      items.reserve(diff.upload.size());
      std::uint64_t payload = 0;
      for (const std::uint32_t idx : diff.upload) {
        const session_file& f = work.files[idx];
        upload_item item;
        item.path = f.path;
        item.object_key = keys[idx];
        item.content = ids[idx].content;
        item.fp = ids[idx].fp;
        payload += f.size;
        items.push_back(std::move(item));
      }
      res.meter.record(direction::up, traffic_category::payload, payload);
      res.meter.record(direction::up, traffic_category::metadata,
                       kRpcEnvelopeBytes + items.size() * kSnapshotEntryBytes);
      try {
        server.upload_batch(work.user, items);
      } catch (const std::exception&) {
        // Verify rejection: the payload bytes were spent for nothing.
        res.meter.record(direction::up, traffic_category::retry, payload);
        res.failed = true;
        life.to(session_state::failed);
        res.latency_ns = ns_between(t_admit, steady::now());
        return res;
      }
      res.meter.record(direction::down, traffic_category::notification,
                       kAckBytes);
    }

    life.to(session_state::applying);
    std::vector<sync_server::commit_entry> commits;
    commits.reserve(work.files.size());
    std::vector<bool> uploaded(work.files.size(), false);
    for (const std::uint32_t idx : diff.upload) uploaded[idx] = true;
    for (std::size_t i = 0; i < work.files.size(); ++i) {
      sync_server::commit_entry e;
      e.path = work.files[i].path;
      e.object_key = std::move(keys[i]);
      e.fp = ids[i].fp;
      e.logical_size = work.files[i].size;
      e.stored_size = uploaded[i] ? work.files[i].size : 0;
      commits.push_back(std::move(e));
    }
    if (opts.batch_metadata) {
      res.meter.record(direction::up, traffic_category::metadata,
                       kRpcEnvelopeBytes +
                           commits.size() * kManifestEntryBytes);
      server.commit_batch(work.user, dev, commits);
      res.meter.record(direction::down, traffic_category::notification,
                       kAckBytes);
    } else {
      for (const sync_server::commit_entry& e : commits) {
        res.meter.record(direction::up, traffic_category::metadata,
                         kRpcEnvelopeBytes + kManifestEntryBytes);
        server.commit_batch(work.user, dev, {e});
        res.meter.record(direction::down, traffic_category::notification,
                         kAckBytes);
      }
    }
  }  // admission ticket released

  life.to(session_state::complete);
  res.latency_ns = ns_between(t_admit, steady::now());
  return res;
}

std::uint64_t results_identity_hash(const std::vector<session_result>& results) {
  std::vector<const session_result*> order;
  order.reserve(results.size());
  for (const session_result& r : results) order.push_back(&r);
  std::sort(order.begin(), order.end(),
            [](const session_result* a, const session_result* b) {
              return a->user < b->user;
            });

  content_hasher64 h;
  const auto feed = [&h](std::uint64_t v) {
    std::uint8_t b[8];
    for (int i = 0; i < 8; ++i) b[i] = static_cast<std::uint8_t>(v >> (8 * i));
    h.update(byte_view{b, 8});
  };
  for (const session_result* r : order) {
    feed(r->user);
    feed(r->update_bytes);
    feed(r->files);
    feed(r->files_uploaded);
    feed(r->dedup_hits);
    feed(r->failed ? 1 : 0);
    for (const direction dir : {direction::up, direction::down}) {
      for (std::size_t c = 0;
           c < static_cast<std::size_t>(traffic_category::kCount); ++c) {
        feed(r->meter.get(dir, static_cast<traffic_category>(c)));
      }
    }
  }
  return h.finish();
}

}  // namespace cloudsync
