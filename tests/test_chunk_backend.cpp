// Chunk-store backend (Cumulus-style manifests over refcounted chunks).
#include <gtest/gtest.h>

#include "storage/chunk_backend.hpp"
#include "util/rng.hpp"
#include "util/units.hpp"

namespace cloudsync {
namespace {

TEST(ChunkBackend, PutFullMaterializeRoundTrip) {
  object_store store;
  chunk_backend backend(store, 4096);
  rng r(1);
  const byte_buffer content = random_bytes(r, 10'000);
  backend.put_full("m1", content);
  EXPECT_EQ(backend.materialize("m1"), content);
  EXPECT_EQ(backend.live_chunks(), 3u);  // 4096 + 4096 + 1808
  const chunk_manifest* m = backend.find("m1");
  ASSERT_NE(m, nullptr);
  EXPECT_EQ(m->logical_size, 10'000u);
}

TEST(ChunkBackend, PutRangesStoresOneChunkPerRange) {
  object_store store;
  chunk_backend backend(store, 4096);
  rng r(8);
  const byte_buffer content = random_bytes(r, 10'000);
  // Caller-chosen boundaries (a resumed session's received ranges), not the
  // backend's 4096-byte granularity.
  backend.put_ranges("m1", content, {1000, 6500, 2500});
  EXPECT_EQ(backend.materialize("m1"), content);
  EXPECT_EQ(backend.live_chunks(), 3u);
  const chunk_manifest* m = backend.find("m1");
  ASSERT_NE(m, nullptr);
  ASSERT_EQ(m->extents.size(), 3u);
  EXPECT_EQ(m->extents[0].length, 1000u);
  EXPECT_EQ(m->extents[1].length, 6500u);
  EXPECT_EQ(m->extents[2].length, 2500u);
  backend.release("m1");
  EXPECT_EQ(backend.live_chunks(), 0u);
}

TEST(ChunkBackend, PutRangesRejectsBadSplits) {
  object_store store;
  chunk_backend backend(store, 4096);
  rng r(9);
  const byte_buffer content = random_bytes(r, 1000);
  // Zero-length range.
  EXPECT_THROW(backend.put_ranges("m", content, {500, 0, 500}),
               std::invalid_argument);
  // Past the end of the content.
  EXPECT_THROW(backend.put_ranges("m", content, {500, 600}),
               std::invalid_argument);
  // Short of the end of the content.
  EXPECT_THROW(backend.put_ranges("m", content, {500, 400}),
               std::invalid_argument);
  EXPECT_EQ(backend.find("m"), nullptr);
}

TEST(ChunkBackend, EmptyContent) {
  object_store store;
  chunk_backend backend(store, 4096);
  backend.put_full("empty", byte_view{});
  EXPECT_TRUE(backend.materialize("empty").empty());
  EXPECT_EQ(backend.live_chunks(), 0u);
}

TEST(ChunkBackend, ZeroChunkSizeThrows) {
  object_store store;
  EXPECT_THROW(chunk_backend(store, 0), std::invalid_argument);
}

TEST(ChunkBackend, UnknownManifestThrows) {
  object_store store;
  chunk_backend backend(store, 4096);
  EXPECT_THROW(backend.materialize("nope"), std::runtime_error);
  file_delta delta;
  EXPECT_THROW(backend.apply_delta("nope", "new", delta), std::runtime_error);
  EXPECT_EQ(backend.find("nope"), nullptr);
  EXPECT_NO_THROW(backend.release("nope"));
}

TEST(ChunkBackend, DeltaSharesUnchangedChunks) {
  object_store store;
  chunk_backend backend(store, 4096);
  rng r(2);
  const byte_buffer v1 = random_bytes(r, 64 * 1024);
  backend.put_full("v1", v1);
  const std::size_t chunks_v1 = backend.live_chunks();
  const std::uint64_t written_before = store.stats().bytes_written;

  byte_buffer v2 = v1;
  v2[30'000] ^= 0xff;
  const file_signature sig = compute_signature(v1, 4096);
  const file_delta delta = compute_delta(sig, v2);
  backend.apply_delta("v1", "v2", delta);

  EXPECT_EQ(backend.materialize("v2"), v2);
  // Only the changed block was written, not the 64 KB file.
  EXPECT_LE(store.stats().bytes_written - written_before, 5000u);
  // One extra chunk object (the new block); old ones shared.
  EXPECT_EQ(backend.live_chunks(), chunks_v1 + 1);
}

TEST(ChunkBackend, ReleaseGarbageCollectsUnsharedChunks) {
  object_store store;
  chunk_backend backend(store, 4096);
  rng r(3);
  const byte_buffer v1 = random_bytes(r, 16 * 1024);
  backend.put_full("v1", v1);

  byte_buffer v2 = v1;
  v2[0] ^= 1;
  const file_delta delta = compute_delta(compute_signature(v1, 4096), v2);
  backend.apply_delta("v1", "v2", delta);

  // Both manifests alive: 4 original + 1 replacement chunk.
  EXPECT_EQ(backend.live_chunks(), 5u);
  backend.release("v1");
  // v1's first block is unshared and gets collected; the other 3 survive
  // because v2 still references them.
  EXPECT_EQ(backend.live_chunks(), 4u);
  EXPECT_EQ(backend.materialize("v2"), v2);
  backend.release("v2");
  EXPECT_EQ(backend.live_chunks(), 0u);
}

TEST(ChunkBackend, AppendOnlyWritesTail) {
  object_store store;
  chunk_backend backend(store, 4096);
  rng r(4);
  const byte_buffer v1 = random_bytes(r, 40'960);
  backend.put_full("v1", v1);
  const std::uint64_t written_before = store.stats().bytes_written;

  byte_buffer v2 = v1;
  const byte_buffer tail = random_bytes(r, 2048);
  append(v2, tail);
  const file_delta delta = compute_delta(compute_signature(v1, 4096), v2);
  backend.apply_delta("v1", "v2", delta);

  EXPECT_EQ(backend.materialize("v2"), v2);
  EXPECT_LE(store.stats().bytes_written - written_before, 2100u);
}

TEST(ChunkBackend, ChainOfVersions) {
  object_store store;
  chunk_backend backend(store, 2048);
  rng r(5);
  byte_buffer content = random_bytes(r, 20'000);
  backend.put_full("v0", content);
  std::string prev = "v0";
  for (int i = 1; i <= 10; ++i) {
    byte_buffer next = content;
    next[r.uniform(next.size())] ^= 0x42;
    const byte_buffer extra = random_bytes(r, 500);
    append(next, extra);
    const file_delta delta =
        compute_delta(compute_signature(content, 2048), next);
    const std::string key = "v" + std::to_string(i);
    backend.apply_delta(prev, key, delta);
    backend.release(prev);
    ASSERT_EQ(backend.materialize(key), next);
    content = std::move(next);
    prev = key;
  }
}

TEST(ChunkBackend, InconsistentDeltaThrows) {
  object_store store;
  chunk_backend backend(store, 4096);
  rng r(6);
  backend.put_full("v1", random_bytes(r, 8192));
  file_delta delta;
  delta.block_size = 4096;
  delta.new_file_size = 4096;
  delta.ops.push_back({delta_op::kind::copy, 9, 1, {}, {}});  // out of range
  EXPECT_THROW(backend.apply_delta("v1", "v2", delta), std::runtime_error);
}

TEST(ChunkBackend, ExtentMergingKeepsManifestsCompact) {
  object_store store;
  chunk_backend backend(store, 1024);
  rng r(7);
  const byte_buffer v1 = random_bytes(r, 32 * 1024);
  backend.put_full("v1", v1);

  // Identity delta: every block copied in order.
  const file_delta delta = compute_delta(compute_signature(v1, 1024), v1);
  backend.apply_delta("v1", "v2", delta);
  const chunk_manifest* m = backend.find("v2");
  ASSERT_NE(m, nullptr);
  // Contiguous same-object runs merge; the manifest stays ≤ the chunk count.
  EXPECT_LE(m->extents.size(), 32u);
  EXPECT_EQ(backend.materialize("v2"), v1);
}

}  // namespace
}  // namespace cloudsync
