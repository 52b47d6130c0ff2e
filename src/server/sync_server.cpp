#include "server/sync_server.hpp"

#include <chrono>
#include <condition_variable>
#include <mutex>
#include <stdexcept>
#include <unordered_map>
#include <unordered_set>

#include "storage/chunk_backend.hpp"
#include "storage/object_store.hpp"
#include "util/content_cache.hpp"
#include "util/sha256.hpp"

namespace cloudsync {

namespace {
using steady = std::chrono::steady_clock;

std::uint64_t ns_between(steady::time_point a, steady::time_point b) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(b - a).count());
}

/// A whole object's identity: content-addressed per user, so (user,
/// fingerprint prefix) names it without formatting a key string.
struct object_id {
  std::uint32_t user = 0;
  std::uint64_t prefix = 0;
  bool operator==(const object_id&) const = default;
};
struct object_id_hash {
  std::size_t operator()(const object_id& k) const noexcept {
    return static_cast<std::size_t>(mix64(k.prefix ^ mix64(k.user)));
  }
};
}  // namespace

// One stripe of the server. The mutex covers everything below it except the
// atomics, which are written from outside the lock (lifecycle transitions,
// try_lock accounting). The dedup scopes of this shard's users live in the
// server-wide dedup_index; mutating them only under this mutex is what
// satisfies dedup_index's per-scope serialization contract.
struct sync_server::shard {
  explicit shard(const server_config& cfg) {
    if (cfg.use_chunk_store) {
      chunks = std::make_unique<chunk_backend>(store, cfg.chunk_store_chunk_size);
    }
  }

  mutable std::mutex mu;
  std::condition_variable cv;  ///< admission queue wakeups

  metadata_service meta;
  /// Whole-object mode: the stored objects and their total bytes.
  std::unordered_map<object_id, content_ref, object_id_hash> objects;
  std::uint64_t object_bytes = 0;
  /// Chunk-store mode: the chunk backend and the object store under it.
  object_store store;
  std::unique_ptr<chunk_backend> chunks;  ///< non-null in chunk-store mode
  std::unordered_set<std::uint32_t> users;

  // Admission queue (under mu): FIFO tickets, bounded in-flight window.
  std::uint64_t next_ticket = 0;
  std::uint64_t next_admitted = 0;
  std::uint32_t in_flight = 0;

  // Counters mutated under mu.
  std::uint64_t sessions_admitted = 0;
  std::uint64_t admission_waits = 0;
  std::uint64_t admission_wait_ns = 0;
  std::uint32_t queue_depth_peak = 0;
  std::uint32_t in_flight_peak = 0;
  std::uint64_t busy_ns = 0;
  std::uint64_t diff_requests = 0;
  std::uint64_t dedup_probes = 0;
  std::uint64_t dedup_hits = 0;
  std::uint64_t uploads = 0;
  std::uint64_t upload_bytes = 0;
  std::uint64_t verified_bytes = 0;
  std::uint64_t verify_failures = 0;
  std::uint64_t commit_batches = 0;
  std::uint64_t commits = 0;

  // Written outside the lock (mutable: counted from the const lock helper).
  mutable std::atomic<std::uint64_t> lock_acquisitions{0};
  mutable std::atomic<std::uint64_t> lock_contentions{0};
  std::array<std::atomic<std::uint64_t>, kSessionStateCount> state_entered{};
  std::array<std::atomic<std::int64_t>, kSessionStateCount> state_live{};

  /// try_lock-first acquisition so contention is a counter, not a mystery.
  std::unique_lock<std::mutex> lock() const {
    std::unique_lock<std::mutex> l(mu, std::try_to_lock);
    lock_acquisitions.fetch_add(1, std::memory_order_relaxed);
    if (!l.owns_lock()) {
      lock_contentions.fetch_add(1, std::memory_order_relaxed);
      l.lock();
    }
    return l;
  }
};

sync_server::sync_server(server_config cfg) : cfg_(cfg) {
  if (cfg_.shards == 0) cfg_.shards = 1;
  if (cfg_.admission_limit == 0) cfg_.admission_limit = 1;
  shards_.reserve(cfg_.shards);
  for (std::uint32_t i = 0; i < cfg_.shards; ++i) {
    shards_.push_back(std::make_unique<shard>(cfg_));
  }
}

sync_server::~sync_server() = default;

std::uint32_t sync_server::shard_count() const {
  return static_cast<std::uint32_t>(shards_.size());
}

std::uint32_t sync_server::shard_of(std::uint32_t user) const {
  // splitmix-style scramble: stride-sampled user ids must not all land on
  // one stripe.
  return static_cast<std::uint32_t>(mix64(user) % shards_.size());
}

sync_server::shard& sync_server::shard_for(std::uint32_t user) const {
  return *shards_[shard_of(user)];
}

sync_server::admission_ticket::admission_ticket(admission_ticket&& other) noexcept
    : srv_(other.srv_), shard_(other.shard_), wait_ns_(other.wait_ns_) {
  other.srv_ = nullptr;
}

sync_server::admission_ticket::~admission_ticket() {
  if (srv_ != nullptr) srv_->release(shard_);
}

sync_server::admission_ticket sync_server::admit(std::uint32_t user) {
  const std::uint32_t idx = shard_of(user);
  shard& s = *shards_[idx];
  const auto t0 = steady::now();
  auto l = s.lock();
  const std::uint64_t my = s.next_ticket++;
  const std::uint32_t depth =
      static_cast<std::uint32_t>(s.next_ticket - s.next_admitted);
  s.queue_depth_peak = std::max(s.queue_depth_peak, depth);
  bool waited = false;
  while (my != s.next_admitted || s.in_flight >= cfg_.admission_limit) {
    waited = true;
    s.cv.wait(l);
  }
  ++s.next_admitted;
  ++s.in_flight;
  s.in_flight_peak = std::max(s.in_flight_peak, s.in_flight);
  ++s.sessions_admitted;
  std::uint64_t wait_ns = 0;
  if (waited) {
    wait_ns = ns_between(t0, steady::now());
    ++s.admission_waits;
    s.admission_wait_ns += wait_ns;
  }
  // FIFO handoff: the next ticket may be admissible too (window > 1).
  s.cv.notify_all();
  return admission_ticket(this, idx, wait_ns);
}

void sync_server::release(std::uint32_t shard_index) {
  shard& s = *shards_[shard_index];
  {
    auto l = s.lock();
    --s.in_flight;
  }
  s.cv.notify_all();
}

device_id sync_server::attach_device(std::uint32_t user) {
  shard& s = shard_for(user);
  auto l = s.lock();
  const auto t0 = steady::now();
  s.users.insert(user);
  dedup_.create_scope(user, cfg_.dedup_scope_hint);
  const device_id dev = s.meta.register_device(user);
  s.busy_ns += ns_between(t0, steady::now());
  return dev;
}

diff_response sync_server::compute_diff(const diff_request& req) {
  shard& s = shard_for(req.user);
  auto l = s.lock();
  const auto t0 = steady::now();
  ++s.diff_requests;
  diff_response out;
  // Within-batch dedup: the second occurrence of a fingerprint in one
  // request is a duplicate even though the scope hasn't seen it yet.
  std::unordered_set<std::uint64_t> batch_seen;
  batch_seen.reserve(req.entries.size());
  for (std::size_t i = 0; i < req.entries.size(); ++i) {
    const fingerprint& fp = req.entries[i].fp;
    ++s.dedup_probes;
    const bool in_batch = !batch_seen.insert(fp.prefix64()).second;
    if (in_batch || dedup_.contains(req.user, fp)) {
      ++s.dedup_hits;
      out.duplicate.push_back(static_cast<std::uint32_t>(i));
    } else {
      out.upload.push_back(static_cast<std::uint32_t>(i));
    }
  }
  s.busy_ns += ns_between(t0, steady::now());
  return out;
}

void sync_server::upload_batch(std::uint32_t user,
                               const std::vector<upload_item>& items) {
  shard& s = shard_for(user);
  auto l = s.lock();
  const auto t0 = steady::now();
  if (cfg_.verify_uploads) {
    // Verify-on-ingest: hash every payload under the stripe lock before any
    // is stored, so a batch with one lying item stores nothing. The hash is
    // the serialized CPU work that a single shard bottlenecks on and N
    // shards spread — and it keeps fabricated fingerprints out of the dedup
    // index.
    for (const upload_item& item : items) {
      sha256_hasher h;
      item.content.walk([&h](byte_view v) { h.update(v); });
      if (h.finish() != item.fp) {
        ++s.verify_failures;
        s.busy_ns += ns_between(t0, steady::now());
        throw std::runtime_error("upload_batch: fingerprint mismatch for " +
                                 item.object_key);
      }
    }
  }
  for (const upload_item& item : items) {
    const std::uint64_t size = item.content.size();
    if (s.chunks != nullptr) {
      // Content-addressed keys are PUT at most once per scope; guard anyway
      // so a re-upload after scope eviction can't leak extent refs.
      if (s.chunks->find(item.object_key) == nullptr) {
        s.chunks->put_full(item.object_key, item.content);
      }
    } else if (s.objects.try_emplace({user, item.fp.prefix64()}, item.content)
                   .second) {
      s.object_bytes += size;
    }
    if (cfg_.verify_uploads) s.verified_bytes += size;
    ++s.uploads;
    s.upload_bytes += size;
  }
  s.busy_ns += ns_between(t0, steady::now());
}

void sync_server::commit_batch(std::uint32_t user, device_id dev,
                               const std::vector<commit_entry>& entries) {
  shard& s = shard_for(user);
  auto l = s.lock();
  const auto t0 = steady::now();
  ++s.commit_batches;
  std::vector<manifest_commit> commits;
  commits.reserve(entries.size());
  for (const commit_entry& e : entries) {
    dedup_.add(user, e.fp);
    const file_manifest* prev = s.meta.lookup(user, e.path);
    file_manifest m;
    m.object_key = e.object_key;
    m.logical_size = e.logical_size;
    m.stored_size = e.stored_size;
    m.version = prev == nullptr ? 1 : prev->version + 1;
    commits.push_back({e.path, std::move(m)});
  }
  s.commits += entries.size();
  s.meta.commit_batch(user, dev, std::move(commits));
  s.busy_ns += ns_between(t0, steady::now());
}

bool sync_server::evict_user(std::uint32_t user) {
  shard& s = shard_for(user);
  auto l = s.lock();  // serialize with the scope's owner shard (= this one)
  s.users.erase(user);
  return dedup_.drop_scope(user);
}

void sync_server::note_transition(std::uint32_t user, session_state from,
                                  session_state to) {
  if (from == to) return;
  shard& s = shard_for(user);
  const auto live = [](session_state st) {
    return st == session_state::computing_diff ||
           st == session_state::transferring || st == session_state::applying;
  };
  s.state_entered[static_cast<std::size_t>(to)].fetch_add(
      1, std::memory_order_relaxed);
  if (live(from)) {
    s.state_live[static_cast<std::size_t>(from)].fetch_sub(
        1, std::memory_order_relaxed);
  }
  if (live(to)) {
    s.state_live[static_cast<std::size_t>(to)].fetch_add(
        1, std::memory_order_relaxed);
  }
}

server_stats sync_server::stats() const {
  server_stats out;
  out.shards.reserve(shards_.size());
  for (const auto& sp : shards_) {
    const shard& s = *sp;
    shard_stats st;
    auto l = s.lock();
    st.users = s.users.size();
    const bool whole = s.chunks == nullptr;
    st.objects = whole ? s.objects.size() : s.store.key_count();
    st.manifests = whole ? 0 : s.chunks->manifest_count();
    st.live_bytes = whole ? s.object_bytes : s.store.stats().live_bytes;
    st.sessions_admitted = s.sessions_admitted;
    st.admission_waits = s.admission_waits;
    st.admission_wait_ns = s.admission_wait_ns;
    st.queue_depth_peak = s.queue_depth_peak;
    st.in_flight_peak = s.in_flight_peak;
    st.busy_ns = s.busy_ns;
    st.diff_requests = s.diff_requests;
    st.dedup_probes = s.dedup_probes;
    st.dedup_hits = s.dedup_hits;
    st.uploads = s.uploads;
    st.upload_bytes = s.upload_bytes;
    st.verified_bytes = s.verified_bytes;
    st.verify_failures = s.verify_failures;
    st.commit_batches = s.commit_batches;
    st.commits = s.commits;
    l.unlock();
    st.lock_acquisitions = s.lock_acquisitions.load(std::memory_order_relaxed);
    st.lock_contentions = s.lock_contentions.load(std::memory_order_relaxed);
    for (std::size_t i = 0; i < kSessionStateCount; ++i) {
      st.state_entered[i] = s.state_entered[i].load(std::memory_order_relaxed);
      const std::int64_t live = s.state_live[i].load(std::memory_order_relaxed);
      st.state_live[i] = live < 0 ? 0 : static_cast<std::uint64_t>(live);
    }
    out.shards.push_back(st);
  }
  return out;
}

shard_stats server_stats::aggregate() const {
  shard_stats a;
  for (const shard_stats& s : shards) {
    a.users += s.users;
    a.objects += s.objects;
    a.manifests += s.manifests;
    a.live_bytes += s.live_bytes;
    a.sessions_admitted += s.sessions_admitted;
    a.admission_waits += s.admission_waits;
    a.admission_wait_ns += s.admission_wait_ns;
    a.queue_depth_peak = std::max(a.queue_depth_peak, s.queue_depth_peak);
    a.in_flight_peak = std::max(a.in_flight_peak, s.in_flight_peak);
    a.lock_acquisitions += s.lock_acquisitions;
    a.lock_contentions += s.lock_contentions;
    a.busy_ns += s.busy_ns;
    a.diff_requests += s.diff_requests;
    a.dedup_probes += s.dedup_probes;
    a.dedup_hits += s.dedup_hits;
    a.uploads += s.uploads;
    a.upload_bytes += s.upload_bytes;
    a.verified_bytes += s.verified_bytes;
    a.verify_failures += s.verify_failures;
    a.commit_batches += s.commit_batches;
    a.commits += s.commits;
    for (std::size_t i = 0; i < kSessionStateCount; ++i) {
      a.state_entered[i] += s.state_entered[i];
      a.state_live[i] += s.state_live[i];
    }
  }
  return a;
}

std::vector<std::string> sync_server::list_paths(std::uint32_t user) const {
  shard& s = shard_for(user);
  auto l = s.lock();
  return s.meta.list(user);
}

const file_manifest* sync_server::lookup_manifest(std::uint32_t user,
                                                  std::string_view path) const {
  shard& s = shard_for(user);
  auto l = s.lock();
  return s.meta.lookup(user, path);
}

}  // namespace cloudsync
