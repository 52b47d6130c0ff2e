// RESTful object store: the cloud-side substrate (paper §4.3's "Amazon S3 /
// Azure / Swift" layer). Deliberately supports only full-object operations —
// PUT, GET, DELETE, HEAD, LIST — which is exactly the constraint that makes
// incremental sync require a mid-layer.
//
// DELETE is a "fake deletion" (paper §4.2): the object is tombstoned and its
// versions retained for rollback, so deletions cost only metadata.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "store/content_ref.hpp"
#include "util/bytes.hpp"
#include "util/sorted_cache.hpp"
#include "util/string_key.hpp"

namespace cloudsync {

/// Counters for backend operations — the cloud-internal cost of the IDS
/// mid-layer (§7's tradeoff discussion).
struct backend_op_stats {
  std::uint64_t puts = 0;
  std::uint64_t gets = 0;
  std::uint64_t deletes = 0;
  std::uint64_t heads = 0;
  std::uint64_t lists = 0;
  std::uint64_t bytes_written = 0;
  std::uint64_t bytes_read = 0;
  /// Gauge: logical bytes across every retained version (live, historical,
  /// and tombstoned) — the §4.2 fake-deletion footprint that bytes_written
  /// alone hides. Maintained incrementally; shrinks only on compact_history.
  std::uint64_t retained_bytes = 0;
  /// Gauge: logical bytes of latest, non-tombstoned versions only.
  std::uint64_t live_bytes = 0;

  std::uint64_t total_ops() const {
    return puts + gets + deletes + heads + lists;
  }
};

class object_store {
 public:
  /// Store a new version under `key` (un-deletes a tombstoned key). The
  /// stored version shares the caller's chunks.
  void put(const std::string& key, const content_ref& data);
  void put(const std::string& key, byte_buffer data) {
    put(key, content_ref::from_buffer(std::move(data)));
  }

  /// Latest live version, or nullopt if absent/tombstoned. Returns a handle,
  /// not a view: it stays valid however the store mutates afterwards.
  std::optional<content_ref> get(std::string_view key) const;

  /// True if the key exists and is live.
  bool head(std::string_view key) const;

  /// Tombstone the key. Content is retained for version rollback.
  /// Returns false if the key was absent or already deleted.
  bool remove(std::string_view key);

  /// All live keys with the given prefix, sorted (the map is unordered).
  std::vector<std::string> list(std::string_view prefix) const;

  /// Version history (live or not). Index 0 is the oldest.
  std::size_t version_count(std::string_view key) const;
  std::optional<content_ref> get_version(std::string_view key,
                                         std::size_t version) const;

  /// Restore a tombstoned key to its latest retained version.
  bool undelete(std::string_view key);

  /// Drop every retained version except the latest of each key (tombstoned
  /// keys keep their latest for undelete). Chunks only referenced by the
  /// dropped versions are freed by their refcounts. Returns logical bytes
  /// released.
  std::uint64_t compact_history();

  /// Bytes of live (latest, non-tombstoned) objects (recomputed; the stats()
  /// gauge tracks the same quantity incrementally).
  std::uint64_t live_bytes() const;
  /// Bytes including retained history and tombstoned content (recomputed).
  std::uint64_t retained_bytes() const;

  /// Number of known keys (live + tombstoned) — the cheap occupancy gauge
  /// the sharded server's stats snapshot reads.
  std::size_t key_count() const { return objects_.size(); }

  const backend_op_stats& stats() const { return stats_; }
  /// Reset counters; the retained/live gauges describe current contents, so
  /// they are re-derived rather than zeroed.
  void reset_stats() {
    stats_ = {};
    stats_.retained_bytes = retained_bytes();
    stats_.live_bytes = live_bytes();
  }

 private:
  struct record {
    std::vector<content_ref> versions;
    bool deleted = false;
  };

  /// GET/HEAD per stored block dominate replayed traffic; a hash probe with
  /// heterogeneous string_view lookup beats the ordered map's per-level
  /// string compares. list() serves from a generation-keyed sorted snapshot
  /// of the live keys, invalidated by liveness changes (put/remove/undelete).
  std::unordered_map<std::string, record, string_key_hash, string_key_eq>
      objects_;
  sorted_snapshot_cache<std::string> live_keys_;
  mutable backend_op_stats stats_;
};

}  // namespace cloudsync
