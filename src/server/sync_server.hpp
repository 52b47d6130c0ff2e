// Sharded multi-tenant sync server: one process, N shards, thousands of
// concurrent sessions.
//
// Sharding model: users hash to shards (shard_of), and a shard OWNS all
// server-side state for its users — metadata namespace, stored objects (or
// chunk backend), and the user's dedup scopes in the shared dedup_index. Every
// server RPC for a user runs under that shard's stripe lock, so per-scope
// operations are serialized exactly as dedup_index's contract requires while
// distinct shards proceed in parallel. The lock is taken try_lock-first so
// contention is counted, not just suffered.
//
// Admission: each shard runs a FIFO ticket queue with a bounded in-flight
// window (server_config::admission_limit). Sessions block at admit() when the
// shard is saturated; the wait is measured and surfaced per shard.
//
// Observability: shard_stats is the traffic_meter-equivalent for the server
// side — occupancy gauges, queue depths, lock contention, per-state session
// histograms — snapshot via stats() and dumped by tools/server_stats.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "dedup/dedup_index.hpp"
#include "server/session.hpp"
#include "storage/metadata_service.hpp"

namespace cloudsync {

struct server_config {
  std::uint32_t shards = 1;           ///< stripe count (clamped to >= 1)
  std::uint32_t admission_limit = 64; ///< max in-flight sessions per shard
  /// SHA-256 verify every uploaded payload against its claimed fingerprint —
  /// the server-side CPU work that makes shard scaling measurable (and keeps
  /// a lying client out of the dedup index).
  bool verify_uploads = true;
  /// Store payloads through the chunk backend (manifest-of-extents) instead
  /// of whole objects.
  bool use_chunk_store = false;
  std::size_t chunk_store_chunk_size = 64 * 1024;
  /// Pre-size hint for each user's dedup scope; small keeps a million thin
  /// tenant scopes thin.
  std::size_t dedup_scope_hint = 8;
};

/// Snapshot of one shard's counters and gauges.
struct shard_stats {
  // Occupancy gauges
  std::uint64_t users = 0;         ///< tenants attached to this shard
  std::uint64_t objects = 0;       ///< stored objects (chunk mode: chunks)
  std::uint64_t manifests = 0;     ///< chunk-backend manifests (chunk mode)
  std::uint64_t live_bytes = 0;    ///< live logical bytes stored

  // Admission queue
  std::uint64_t sessions_admitted = 0;
  std::uint64_t admission_waits = 0;    ///< admits that had to block
  std::uint64_t admission_wait_ns = 0;  ///< total blocked time
  std::uint32_t queue_depth_peak = 0;   ///< max tickets waiting behind the window
  std::uint32_t in_flight_peak = 0;     ///< max concurrently admitted sessions

  // Stripe lock
  std::uint64_t lock_acquisitions = 0;
  std::uint64_t lock_contentions = 0;  ///< acquisitions that failed try_lock
  std::uint64_t busy_ns = 0;           ///< total time the lock was held

  // Work counters
  std::uint64_t diff_requests = 0;
  std::uint64_t dedup_probes = 0;
  std::uint64_t dedup_hits = 0;
  std::uint64_t uploads = 0;
  std::uint64_t upload_bytes = 0;
  std::uint64_t verified_bytes = 0;
  std::uint64_t verify_failures = 0;
  std::uint64_t commit_batches = 0;
  std::uint64_t commits = 0;

  // Session lifecycle histogram: transitions into each state, and how many
  // sessions are in each state right now.
  std::array<std::uint64_t, kSessionStateCount> state_entered{};
  std::array<std::uint64_t, kSessionStateCount> state_live{};
};

struct server_stats {
  std::vector<shard_stats> shards;
  /// Element-wise sum (gauge peaks take the max across shards).
  shard_stats aggregate() const;
};

class sync_server {
 public:
  explicit sync_server(server_config cfg = {});
  ~sync_server();

  sync_server(const sync_server&) = delete;
  sync_server& operator=(const sync_server&) = delete;

  std::uint32_t shard_count() const;
  std::uint32_t shard_of(std::uint32_t user) const;
  const server_config& config() const { return cfg_; }

  /// RAII admission slot: blocks in the constructor path (admit()) until the
  /// user's shard has capacity, releases and wakes the queue on destruction.
  class admission_ticket {
   public:
    admission_ticket(admission_ticket&& other) noexcept;
    admission_ticket& operator=(admission_ticket&&) = delete;
    admission_ticket(const admission_ticket&) = delete;
    ~admission_ticket();

    std::uint32_t shard() const { return shard_; }
    std::uint64_t queue_wait_ns() const { return wait_ns_; }

   private:
    friend class sync_server;
    admission_ticket(sync_server* srv, std::uint32_t shard,
                     std::uint64_t wait_ns)
        : srv_(srv), shard_(shard), wait_ns_(wait_ns) {}
    sync_server* srv_;
    std::uint32_t shard_;
    std::uint64_t wait_ns_;
  };

  /// Enter the user's shard admission queue; blocks until a slot frees
  /// (FIFO). Hold the ticket for the duration of the session's server RPCs.
  admission_ticket admit(std::uint32_t user);

  /// Register a device for the user and pre-create their dedup scope.
  device_id attach_device(std::uint32_t user);

  /// Diff RPC: classify each entry as upload (server lacks the content) or
  /// duplicate (already in the user's dedup scope, or repeated earlier in
  /// this very request — within-batch dedup).
  diff_response compute_diff(const diff_request& req);

  /// Transferring phase: store payloads (content-addressed per user), with
  /// optional SHA-256 verify-on-ingest. Every item is checked before any is
  /// stored: on a fingerprint mismatch the batch stores nothing and this
  /// throws std::runtime_error (the session records itself failed).
  void upload_batch(std::uint32_t user, const std::vector<upload_item>& items);

  /// One entry of the applying phase's batched commit RPC.
  struct commit_entry {
    std::string path;
    std::string object_key;
    fingerprint fp;
    std::uint64_t logical_size = 0;
    std::uint64_t stored_size = 0;
  };

  /// Applying phase: take a dedup reference and commit a manifest for every
  /// file of the transaction (uploaded or deduplicated) in one round trip.
  /// Versioning is server-assigned (previous version + 1).
  void commit_batch(std::uint32_t user, device_id dev,
                    const std::vector<commit_entry>& entries);

  /// Tenant eviction: drop the user's dedup scope (metadata/objects are
  /// retained — fake deletion economics). Returns false if never attached.
  bool evict_user(std::uint32_t user);

  /// Record a session lifecycle transition for the user's shard histogram.
  /// Lock-free (atomics) — called outside the stripe lock.
  void note_transition(std::uint32_t user, session_state from,
                       session_state to);

  /// Snapshot every shard's counters (takes each stripe lock briefly).
  server_stats stats() const;

  /// The shared, internally-synchronized scope directory (per-scope ops are
  /// serialized by shard ownership). Exposed for tests and tools.
  dedup_index& dedup() { return dedup_; }

  /// Read-only peek at a user's committed metadata (takes the stripe lock).
  std::vector<std::string> list_paths(std::uint32_t user) const;
  const file_manifest* lookup_manifest(std::uint32_t user,
                                       std::string_view path) const;

 private:
  struct shard;

  shard& shard_for(std::uint32_t user) const;
  void release(std::uint32_t shard_index);

  server_config cfg_;
  std::vector<std::unique_ptr<shard>> shards_;
  dedup_index dedup_;
};

}  // namespace cloudsync
