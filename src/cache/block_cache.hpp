// Client block-cache tier: the bounded local replica of a limited-disk
// client (ROADMAP "HCFS-style" item; cf. HopeBay HCFS).
//
// The paper measures clients that hold a full local copy of every synced
// file. Production mobile/limited-disk clients instead keep a
// fixed-capacity cache of *blocks* over the cloud backend: reads of
// resident blocks are free, reads of evicted blocks re-hydrate them from
// the cloud (metered as traffic_category::rehydrate), and local writes in
// write-back mode dirty blocks that a background scheduler flushes after
// a coalescing window. This class is that tier. It sits beside the sync
// engine (sync_options::cache_tier): the engine installs every synced
// version, probes residency during planning (an evicted old version means
// no delta basis — fall back to a full-file upload), routes application
// reads through `read`, and marks dirty blocks on write-back writes.
//
// Blocks alias the synced content's CoW chunks (content_ref::substr never
// copies), so an uncapped cache costs O(1) extra memory per block and the
// cacheless engine stays byte-identical when the tier is disabled or
// never evicts.
//
// Hard constraints the eviction loop honors:
//   - pinned paths are never evicted (HCFS pin/unpin);
//   - dirty blocks are never evicted (they are the only copy of unsynced
//     local data) — a cache full of pinned/dirty blocks is allowed to
//     overshoot capacity, counted in stats().eviction_stalls.
//
// Determinism: no clocks, no RNG; victims depend only on the operation
// sequence. Each simulated station owns one block_cache and drives it
// from a single thread (fleet parallelism is across stations).
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "cache/eviction_policy.hpp"
#include "store/content_ref.hpp"
#include "util/sim_time.hpp"
#include "util/units.hpp"

namespace cloudsync {

enum class cache_write_mode : std::uint8_t {
  write_through,  ///< local writes sync on the service's normal defer policy
  write_back      ///< local writes dirty cached blocks; a background flush
                  ///< uploads them after the coalescing window
};
const char* to_string(cache_write_mode mode);

struct cache_config {
  /// Resident-byte budget. 0 = unbounded (never evicts) — the
  /// configuration that must be byte-identical to the cacheless engine.
  std::uint64_t capacity_bytes = 0;
  /// Cache block size. Files are sliced into fixed blocks; the last block
  /// of a file is short.
  std::size_t block_bytes = 64 * KiB;
  cache_eviction policy = cache_eviction::lru;
  cache_write_mode write_mode = cache_write_mode::write_through;
  /// Write-back only: dirty blocks flush this long after the *first*
  /// unflushed write to their path; later writes inside the window
  /// coalesce into the same flush.
  sim_time coalesce_window = sim_time::from_sec(8.0);
};

struct block_cache_stats {
  std::uint64_t hits = 0;        ///< block reads served from residency
  std::uint64_t misses = 0;      ///< block reads that found the block absent
  std::uint64_t insertions = 0;  ///< blocks made resident
  std::uint64_t evictions = 0;   ///< blocks dropped by capacity pressure
  std::uint64_t eviction_stalls = 0;  ///< over capacity but nothing evictable
  std::uint64_t rehydrated_blocks = 0;
  std::uint64_t rehydrated_bytes = 0;     ///< content bytes re-fetched
  std::uint64_t dirty_marked = 0;         ///< blocks newly marked dirty
  std::uint64_t dirty_coalesced = 0;      ///< writes absorbed by already-dirty blocks
  std::uint64_t flushes = 0;              ///< dirty paths cleaned by a sync
  std::uint64_t plan_fallbacks = 0;       ///< plans forced full-file: old
                                          ///< version partially evicted
  double hit_ratio() const {
    const std::uint64_t n = hits + misses;
    return n == 0 ? 0.0 : static_cast<double>(hits) / static_cast<double>(n);
  }

  bool operator==(const block_cache_stats&) const = default;
};

class block_cache {
 public:
  explicit block_cache(cache_config cfg);

  const cache_config& config() const { return cfg_; }
  const char* policy_name() const { return policy_->name(); }

  /// True when `path` has a tracked (synced) version in the cache.
  bool tracks(const std::string& path) const;

  /// Install the synced version of `path` — called after every upload
  /// commit, download, and recovery adoption. All blocks become resident
  /// and clean (a dirty path being installed counts one flush).
  void install(const std::string& path, const content_ref& content);

  /// Drop `path` entirely (local/remote deletion, rename-away).
  void invalidate(const std::string& path);

  /// Record a local write in write-back mode: blocks whose bytes differ
  /// from the cached state (or whose cached state is absent) become dirty
  /// and resident. Returns the number of blocks newly marked dirty.
  std::size_t note_local_write(const std::string& path,
                               const content_ref& content);

  void pin(const std::string& path);
  void unpin(const std::string& path);
  bool pinned(const std::string& path) const;

  /// Planning probe: true iff every block of `path`'s tracked version is
  /// resident (counts a hit per block and refreshes recency — signature
  /// computation reads them). Otherwise counts a miss per absent block
  /// and a plan fallback, and returns false: the caller must plan a
  /// full-file upload, there is no local delta basis.
  bool probe_resident(const std::string& path);

  /// One application read through the cache. Resident blocks count hits;
  /// absent blocks count misses and are fetched via `fetch(first, count)`
  /// — called once per contiguous absent run with block coordinates, must
  /// return exactly the run's bytes (the caller meters the transfer) —
  /// then admitted (evicting under pressure). Returns the assembled
  /// content, or nullopt when `path` is untracked.
  std::optional<content_ref> read(
      const std::string& path,
      const std::function<content_ref(std::uint32_t first,
                                      std::uint32_t count)>& fetch);

  /// Drop every clean resident block (keeps dirty ones). Models a purged
  /// cache / cold start; returns the number of blocks dropped.
  std::size_t drop_clean_blocks();

  // -- gauges ------------------------------------------------------------
  std::uint64_t resident_bytes() const { return resident_bytes_; }
  std::size_t resident_blocks() const { return resident_blocks_; }
  std::size_t dirty_blocks() const { return dirty_blocks_; }
  std::size_t dirty_paths() const;
  std::size_t pinned_paths() const;
  std::size_t tracked_paths() const { return files_.size(); }
  bool over_capacity() const {
    return cfg_.capacity_bytes != 0 && resident_bytes_ > cfg_.capacity_bytes;
  }

  const block_cache_stats& stats() const { return stats_; }
  /// The engine reports its evicted-shadow full-file fallbacks here so
  /// tools/cache_stats can show them next to the hit counters.
  void note_plan_fallback() { ++stats_.plan_fallbacks; }

 private:
  struct block_state {
    content_ref bytes;
    bool resident = false;
    bool dirty = false;
  };
  struct file_entry {
    std::uint32_t id = 0;
    std::uint64_t size = 0;
    bool pinned = false;
    std::vector<block_state> blocks;
  };

  static cache_block_id block_id(std::uint32_t file_id, std::uint32_t index) {
    return (static_cast<cache_block_id>(file_id) << 32) | index;
  }
  std::size_t block_len(const file_entry& fe, std::size_t index) const;
  std::size_t block_count(std::uint64_t size) const;
  file_entry& entry_for(const std::string& path);
  void make_resident(const std::string& path, file_entry& fe,
                     std::size_t index, content_ref bytes, bool dirty);
  void drop_block(file_entry& fe, std::size_t index);
  void ensure_capacity();

  cache_config cfg_;
  std::unique_ptr<eviction_policy> policy_;
  // Ordered for deterministic iteration in gauges and drop_clean_blocks.
  std::map<std::string, file_entry> files_;
  std::vector<const std::string*> id_to_path_;  // file id -> key in files_
  std::uint64_t resident_bytes_ = 0;
  std::size_t resident_blocks_ = 0;
  std::size_t dirty_blocks_ = 0;
  block_cache_stats stats_;
};

}  // namespace cloudsync
