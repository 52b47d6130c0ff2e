// The content cache must be a pure memoization layer: every cached answer is
// byte-identical to direct recomputation, LRU bounding works, and turning the
// cache on cannot change any experiment output.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "cloudsync.hpp"

namespace cloudsync {
namespace {

TEST(ContentHash64, DistinguishesContentLengthAndEmpty) {
  rng r(99);
  const byte_buffer a = random_bytes(r, 1000);
  byte_buffer b = a;
  b[500] ^= 1;
  EXPECT_NE(content_hash64(a), content_hash64(b));
  EXPECT_NE(content_hash64(a), content_hash64(byte_view{a.data(), 999}));
  EXPECT_EQ(content_hash64(byte_view{}), content_hash64(byte_view{}));
  // Deterministic across calls.
  EXPECT_EQ(content_hash64(a), content_hash64(a));
}

/// The cache as planning consults it: keyed by the content's hash and size.
std::uint64_t cached_size(content_cache& cache, const byte_buffer& content,
                          int level) {
  return cache.shipped_size_keyed(
      content_hash64(content), content.size(), level,
      [&] { return wire_payload_size(content, level); });
}

TEST(ContentCache, PropertyCachedEqualsRecomputedAcrossContentsAndLevels) {
  content_cache cache(256);
  rng r(4321);
  for (int trial = 0; trial < 60; ++trial) {
    const std::size_t n = 1 + static_cast<std::size_t>(r.uniform(48 * 1024));
    const byte_buffer content = r.chance(0.5) ? random_bytes(r, n)
                                              : random_text(r, n);
    const int level = static_cast<int>(r.uniform(10));
    const std::uint64_t direct = wire_payload_size(content, level);
    // First call computes and stores; second must come from the cache.
    EXPECT_EQ(cached_size(cache, content, level), direct);
    EXPECT_EQ(cached_size(cache, content, level), direct);
  }
  const content_cache_stats st = cache.stats();
  EXPECT_EQ(st.hits, 60u);
  EXPECT_EQ(st.misses, 60u);
}

TEST(ContentCache, SizeIsKeyedByLevel) {
  content_cache cache(16);
  rng r(7);
  const byte_buffer text = random_text(r, 8 * 1024);
  const std::uint64_t l1 = cached_size(cache, text, 1);
  const std::uint64_t l9 = cached_size(cache, text, 9);
  EXPECT_EQ(l1, wire_payload_size(text, 1));
  EXPECT_EQ(l9, wire_payload_size(text, 9));
  EXPECT_NE(l1, l9);  // different levels really are distinct entries
  EXPECT_EQ(cache.size(), 2u);
}

TEST(ContentMemo, LruEvictsOldestAndRefreshesOnHit) {
  content_memo<int> memo(2);
  const byte_buffer a{1}, b{2}, c{3};
  int computed = 0;
  auto val = [&](int v) {
    return [&computed, v] {
      ++computed;
      return v;
    };
  };
  memo.get_or_compute(a, 0, val(1));
  memo.get_or_compute(b, 0, val(2));
  memo.get_or_compute(a, 0, val(1));  // hit: refreshes a's recency
  memo.get_or_compute(c, 0, val(3));  // evicts b (least recently used)
  EXPECT_EQ(computed, 3);
  EXPECT_TRUE(memo.find(a, 0).has_value());
  EXPECT_FALSE(memo.find(b, 0).has_value());
  EXPECT_TRUE(memo.find(c, 0).has_value());
  EXPECT_EQ(memo.size(), 2u);
  EXPECT_EQ(memo.stats().evictions, 1u);
  // Re-inserting the evicted key recomputes.
  EXPECT_EQ(memo.get_or_compute(b, 0, val(2)), 2);
  EXPECT_EQ(computed, 4);
}

TEST(ContentMemo, CapacityIsNeverExceeded) {
  content_memo<std::uint64_t> memo(8);
  rng r(11);
  for (int i = 0; i < 100; ++i) {
    const byte_buffer content = random_bytes(r, 64);
    memo.get_or_compute(content, 0, [i] { return std::uint64_t(i); });
    EXPECT_LE(memo.size(), 8u);
  }
  EXPECT_EQ(memo.stats().evictions, 92u);
}

TEST(ContentMemo, SaltSeparatesEntries) {
  content_memo<int> memo(16);
  const byte_buffer content{42, 42, 42};
  EXPECT_EQ(memo.get_or_compute(content, 1, [] { return 10; }), 10);
  EXPECT_EQ(memo.get_or_compute(content, 2, [] { return 20; }), 20);
  EXPECT_EQ(memo.get_or_compute(content, 1, [] { return -1; }), 10);
  EXPECT_EQ(memo.get_or_compute(content, 2, [] { return -1; }), 20);
}

TEST(GenerationMemo, CachedGenerationMatchesDirectBitForBit) {
  // Same seed: the cached generator must produce the same bytes AND leave the
  // rng in the same state as direct generation, for interleaved size/kind
  // sequences (the second pass hits the memo).
  for (int pass = 0; pass < 2; ++pass) {
    rng direct(2024), cached(2024);
    for (const std::size_t n : {1000u, 50u * 1024u, 1000u}) {
      EXPECT_EQ(make_compressed_file(direct, n),
                make_compressed_file_cached(cached, n));
      EXPECT_EQ(make_text_file(direct, n), make_text_file_cached(cached, n));
    }
    EXPECT_EQ(direct.next(), cached.next());  // states advanced identically
  }
}

}  // namespace
}  // namespace cloudsync
