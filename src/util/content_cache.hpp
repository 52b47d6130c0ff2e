// Process-wide memoization for the simulator's content-derived hot paths.
//
// The sync pipeline recomputes pure functions of file content constantly:
// every upload runs the LZSS compressor to learn the wire size of the same
// bytes the previous experiment (or the previous service in the same table
// row) already compressed, the dedup engine fingerprints the same content on
// analyze and again on commit, and incremental sync re-signs and re-deltas
// contents that seeded generators reproduce identically across bench cells.
//
// content_memo<V> is the shared machinery: a bounded, thread-safe LRU keyed
// by (fast 64-bit content hash, content length, caller salt). The salt
// carries whatever else the memoized function depends on (compression level,
// rsync block size, the old file's identity for deltas). Thread safety lets
// the parallel experiment runner share one instance across workers.
//
// Correctness: values are only ever what the compute function returned for
// the same key, so cached results are byte-identical to recomputation —
// up to 64-bit key-hash collisions, which the length+salt keying makes
// vanishingly unlikely (~2^-64 per content pair; the same regime as the
// dedup literature's hash-equality assumption, with far fewer pairs).
#pragma once

#include <cstdint>
#include <list>
#include <mutex>
#include <optional>
#include <unordered_map>
#include <utility>

#include "util/bytes.hpp"

namespace cloudsync {

/// Fast non-cryptographic 64-bit hash of arbitrary bytes: four independent
/// FNV-style lanes (for instruction-level parallelism on long inputs)
/// folded through a splitmix64 finalizer. Orders of magnitude cheaper than
/// the compressor/digest runs it stands in for.
std::uint64_t content_hash64(byte_view data);

/// Streaming equivalent of content_hash64: feed bytes in any split and
/// finish() returns exactly content_hash64 of the concatenation. Lets rope-
/// backed content (content_ref) reproduce every memo key the flat byte path
/// computes — wire-size cache, signature/delta memos, journal content hashes —
/// without flattening the rope first.
class content_hasher64 {
 public:
  void update(byte_view data);
  /// Hash of everything fed so far (does not consume state).
  std::uint64_t finish() const;

 private:
  void stride(const std::uint8_t* p);

  std::uint64_t h0_ = 0xcbf29ce484222325ULL;
  std::uint64_t h1_ = 0x9e3779b97f4a7c15ULL;
  std::uint64_t h2_ = 0xc2b2ae3d27d4eb4fULL;
  std::uint64_t h3_ = 0x165667b19e3779f9ULL;
  std::uint8_t carry_[32] = {};  ///< partial stride awaiting 32 bytes
  std::size_t carry_len_ = 0;
};

/// splitmix64 finalizer — useful for building salts from several inputs.
inline std::uint64_t mix64(std::uint64_t h) {
  h ^= h >> 30;
  h *= 0xbf58476d1ce4e5b9ULL;
  h ^= h >> 27;
  h *= 0x94d049bb133111ebULL;
  h ^= h >> 31;
  return h;
}

struct content_cache_stats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t evictions = 0;

  double hit_rate() const {
    const std::uint64_t total = hits + misses;
    return total == 0 ? 0.0
                      : static_cast<double>(hits) / static_cast<double>(total);
  }
};

/// Bounded thread-safe LRU memo of a pure function of (content, salt).
template <typename Value>
class content_memo {
 public:
  explicit content_memo(std::size_t capacity = 16 * 1024)
      : capacity_(capacity == 0 ? 1 : capacity) {}

  content_memo(const content_memo&) = delete;
  content_memo& operator=(const content_memo&) = delete;

  /// Cached value for (content, salt), or compute(), store, and return it.
  /// The compute call runs outside the lock — it is the expensive part, and
  /// holding the mutex across it would serialize the parallel runner.
  template <typename Fn>
  Value get_or_compute(byte_view content, std::uint64_t salt, Fn&& compute) {
    return get_or_compute_keyed(content_hash64(content), content.size(), salt,
                                std::forward<Fn>(compute));
  }

  /// Same, but with a caller-supplied key — for memoizing functions whose
  /// input is not a byte string (e.g. seeded content generation keyed by the
  /// generator state). `key_hash` must be uniformly distributed already.
  template <typename Fn>
  Value get_or_compute_keyed(std::uint64_t key_hash, std::uint64_t length,
                             std::uint64_t salt, Fn&& compute) {
    const key k{key_hash, length, salt};
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (auto* hit = find_locked(k)) return *hit;
    }
    Value value = compute();
    std::lock_guard<std::mutex> lock(mu_);
    store_locked(k, value);
    return value;
  }

  std::optional<Value> find(byte_view content, std::uint64_t salt) {
    const key k{content_hash64(content), content.size(), salt};
    std::lock_guard<std::mutex> lock(mu_);
    if (auto* hit = find_locked(k)) return *hit;
    return std::nullopt;
  }

  std::size_t size() const {
    std::lock_guard<std::mutex> lock(mu_);
    return lru_.size();
  }
  std::size_t capacity() const { return capacity_; }

  content_cache_stats stats() const {
    std::lock_guard<std::mutex> lock(mu_);
    return stats_;
  }

  void clear() {
    std::lock_guard<std::mutex> lock(mu_);
    lru_.clear();
    index_.clear();
    stats_ = {};
  }

 private:
  struct key {
    std::uint64_t hash = 0;
    std::uint64_t length = 0;
    std::uint64_t salt = 0;
    bool operator==(const key&) const = default;
  };
  struct key_hasher {
    std::size_t operator()(const key& k) const noexcept {
      // hash is already uniform; fold in length and salt.
      return static_cast<std::size_t>(
          k.hash ^ (k.length * 0x9e3779b97f4a7c15ULL) ^ mix64(k.salt));
    }
  };
  struct entry {
    key k;
    Value value;
  };

  Value* find_locked(const key& k) {
    const auto it = index_.find(k);
    if (it == index_.end()) {
      ++stats_.misses;
      return nullptr;
    }
    lru_.splice(lru_.begin(), lru_, it->second);  // refresh recency
    ++stats_.hits;
    return &it->second->value;
  }

  void store_locked(const key& k, Value value) {
    const auto it = index_.find(k);
    if (it != index_.end()) {
      it->second->value = std::move(value);
      lru_.splice(lru_.begin(), lru_, it->second);
      return;
    }
    if (lru_.size() >= capacity_) {
      index_.erase(lru_.back().k);
      lru_.pop_back();
      ++stats_.evictions;
    }
    lru_.push_front(entry{k, std::move(value)});
    index_[k] = lru_.begin();
  }

  const std::size_t capacity_;
  mutable std::mutex mu_;
  std::list<entry> lru_;  ///< front = most recently used
  std::unordered_map<key, typename std::list<entry>::iterator, key_hasher>
      index_;
  content_cache_stats stats_;
};

/// The wire-size cache planning consults (shipped_content_size,
/// shipped_delta_size): (content, level) → compressed payload bytes.
class content_cache {
 public:
  explicit content_cache(std::size_t capacity = 16 * 1024)
      : sizes_(capacity) {}

  /// Memoized wire-payload size: returns the cached result for the content
  /// whose content_hash64 is `key_hash` and whose size is `length` at
  /// `level`, or computes, stores, and returns it.
  template <typename Fn>
  std::uint64_t shipped_size_keyed(std::uint64_t key_hash,
                                   std::uint64_t length, int level,
                                   Fn&& compute) {
    return sizes_.get_or_compute_keyed(key_hash, length,
                                       static_cast<std::uint64_t>(level),
                                       std::forward<Fn>(compute));
  }

  std::size_t size() const { return sizes_.size(); }
  std::size_t capacity() const { return sizes_.capacity(); }
  content_cache_stats stats() const { return sizes_.stats(); }
  void clear() { sizes_.clear(); }

  /// The process-wide cache shared by default across experiments (and, under
  /// the parallel runner, across worker threads).
  static content_cache& global();

 private:
  content_memo<std::uint64_t> sizes_;
};

}  // namespace cloudsync
