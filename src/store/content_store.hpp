// Process-wide, content-addressed, reference-counted chunk store.
//
// Every layer of the simulator used to hold its own flat byte_buffer copy of
// the same content: the local filesystem, the client's shadow, the cloud's
// retained version history (kept forever for §4.2 fake deletion), the chunk
// substrate, and the trace materializer. The store collapses all of those
// into shared immutable chunks: equal bytes are interned once and aliased by
// cheap handles, so process memory is O(unique bytes) instead of O(total
// bytes × layers × versions).
//
// Refcounting is the shared_ptr itself: a chunk dies (and leaves the intern
// table) exactly when its last handle drops, so "store empty after all refs
// dropped" is a testable invariant, not a GC eventually-property.
//
// Aliasing is exact, not probabilistic: interning matches on a fast 64-bit
// content hash *and then byte-compares* against the candidate, so a hash
// collision costs one extra chunk, never wrong bytes.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "util/bytes.hpp"

namespace cloudsync {

class content_store;

/// One immutable run of bytes owned by the store. Created only through
/// content_store; always held by shared_ptr (the refcount *is* the shared
/// count). Lazy chunks carry a generator instead of bytes and materialize on
/// first read (thread-safe, exactly once).
class store_chunk {
 public:
  ~store_chunk();

  store_chunk(const store_chunk&) = delete;
  store_chunk& operator=(const store_chunk&) = delete;

  std::size_t size() const { return size_; }

  /// The chunk's bytes, materializing a lazy chunk on first call. The view is
  /// valid for the chunk's lifetime (i.e. while any handle exists). In debug
  /// builds, reading a chunk whose last handle dropped trips an assertion
  /// (and freed chunk bytes are poisoned) — the use-after-detach guard.
  byte_view bytes() const;

  bool materialized() const;
  bool interned() const { return interned_; }

 private:
  friend class content_store;
  store_chunk() = default;

  mutable byte_buffer data_;
  std::size_t size_ = 0;
  std::uint64_t hash_ = 0;  ///< content_hash64 of data_ (interned chunks)
  bool interned_ = false;
  mutable std::function<byte_buffer()> fill_;  ///< lazy generator, or empty
  mutable std::once_flag once_;
  mutable std::atomic<bool> filled_{false};
  content_store* owner_ = nullptr;
  std::uint32_t alive_ = kAliveMagic;  ///< cleared by the destructor

  static constexpr std::uint32_t kAliveMagic = 0xC0DEC0DEu;
};

/// Shared, immutable ownership of one chunk.
using chunk_handle = std::shared_ptr<const store_chunk>;

class content_store {
 public:
  /// Interning granularity for fresh flat content: big enough that rope
  /// metadata is negligible, small enough that aligned duplicate prefixes
  /// (whole-file and head-anchored partial duplicates) share chunks.
  static constexpr std::size_t kInternChunkBytes = 64 * 1024;

  content_store() = default;
  content_store(const content_store&) = delete;
  content_store& operator=(const content_store&) = delete;

  /// The process-wide store every content_ref uses.
  static content_store& global();

  /// A handle whose bytes equal `data`: an existing interned chunk when one
  /// matches (hash bucket + exact byte compare), otherwise a fresh interned
  /// copy.
  chunk_handle intern(byte_view data);

  /// A private chunk that takes ownership of `data`, with no intern pass:
  /// for bytes no other chunk can share (a seeded random payload), where
  /// intern() would only add a hash pass, a shard lock and a copy.
  chunk_handle adopt(byte_buffer&& data);

  /// A private chunk of `size` bytes whose content is produced by `fill` on
  /// first read. `fill` must return exactly `size` bytes and be safe to call
  /// from any thread (it runs at most once).
  chunk_handle lazy(std::size_t size, std::function<byte_buffer()> fill);

  struct stats_snapshot {
    std::uint64_t chunks = 0;           ///< live chunks (all kinds)
    std::uint64_t live_bytes = 0;       ///< materialized bytes held right now
    std::uint64_t peak_live_bytes = 0;  ///< high-water mark of live_bytes
    std::uint64_t interned_chunks = 0;  ///< live entries in the intern table
    std::uint64_t intern_hits = 0;      ///< intern() calls that aliased
    std::uint64_t intern_misses = 0;    ///< intern() calls that copied
  };
  stats_snapshot stats() const;
  /// Restart the peak-live-bytes high-water mark from the current level
  /// (benches bracket a phase with reset_peak() / stats()).
  void reset_peak();

  /// True when no chunk is alive anywhere in the process — every handle has
  /// been dropped (the refcount-exactness test).
  bool empty() const { return chunks_.load() == 0; }

  /// Refcount → number of interned chunks with that many live handles, plus
  /// the byte totals behind them: `unique` counts each chunk once, `logical`
  /// counts it once per handle (their difference is what sharing saves).
  struct table_profile {
    std::map<std::size_t, std::size_t> refcount_histogram;
    std::uint64_t unique_bytes = 0;
    std::uint64_t logical_bytes = 0;
  };
  table_profile profile_table() const;

 private:
  friend class store_chunk;

  static constexpr std::size_t kShards = 64;
  struct table_entry {
    const store_chunk* raw = nullptr;
    std::weak_ptr<const store_chunk> weak;
  };
  struct shard {
    std::mutex mu;
    std::unordered_multimap<std::uint64_t, table_entry> entries;
  };

  shard& shard_for(std::uint64_t hash) {
    return shards_[hash & (kShards - 1)];
  }
  /// Chunk accounting shared by every creation path.
  chunk_handle finish_chunk(std::unique_ptr<store_chunk> c);
  void note_materialized(std::size_t bytes) const;
  void on_chunk_destroyed(const store_chunk& c);

  mutable shard shards_[kShards];
  std::atomic<std::uint64_t> chunks_{0};
  mutable std::atomic<std::uint64_t> live_bytes_{0};
  mutable std::atomic<std::uint64_t> peak_live_bytes_{0};
  std::atomic<std::uint64_t> interned_chunks_{0};
  std::atomic<std::uint64_t> intern_hits_{0};
  std::atomic<std::uint64_t> intern_misses_{0};
};

}  // namespace cloudsync
