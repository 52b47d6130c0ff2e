#include <gtest/gtest.h>

#include "dedup/dedup_engine.hpp"
#include "util/rng.hpp"
#include "util/units.hpp"

namespace cloudsync {
namespace {

TEST(DedupIndex, AddContainsRemove) {
  dedup_index idx;
  const fingerprint fp = fingerprint_of(as_bytes("hello"));
  EXPECT_FALSE(idx.contains(1, fp));
  idx.add(1, fp);
  EXPECT_TRUE(idx.contains(1, fp));
  EXPECT_FALSE(idx.contains(2, fp));  // scoped
  idx.remove(1, fp);
  EXPECT_FALSE(idx.contains(1, fp));
}

TEST(DedupIndex, RefCounting) {
  dedup_index idx;
  const fingerprint fp = fingerprint_of(as_bytes("x"));
  idx.add(1, fp);
  idx.add(1, fp);
  idx.remove(1, fp);
  EXPECT_TRUE(idx.contains(1, fp));  // still one reference
  idx.remove(1, fp);
  EXPECT_FALSE(idx.contains(1, fp));
}

TEST(DedupIndex, RemoveAbsentIsNoOp) {
  dedup_index idx;
  EXPECT_NO_THROW(idx.remove(1, fingerprint_of(as_bytes("gone"))));
}

TEST(DedupIndex, UniqueCount) {
  dedup_index idx;
  idx.add(1, fingerprint_of(as_bytes("a")));
  idx.add(1, fingerprint_of(as_bytes("b")));
  idx.add(1, fingerprint_of(as_bytes("a")));
  EXPECT_EQ(idx.unique_count(1), 2u);
  EXPECT_EQ(idx.unique_count(9), 0u);
}

/// Rope of `data`, the form the engine registers.
content_ref rope(const byte_buffer& data) {
  return content_ref::from_bytes(data);
}

TEST(DedupEngine, NoneShipsEverything) {
  dedup_engine eng(dedup_policy::disabled());
  rng r(2);
  const byte_buffer data = random_bytes(r, 5000);
  const dedup_result res = eng.analyze(7, data);
  EXPECT_EQ(res.new_bytes, 5000u);
  EXPECT_EQ(res.duplicate_bytes, 0u);
  EXPECT_EQ(res.fingerprints_sent, 0u);
  // commit is a no-op; re-analysis still ships everything
  eng.commit(7, rope(data));
  EXPECT_EQ(eng.analyze(7, data).new_bytes, 5000u);
}

TEST(DedupEngine, FullFileDetectsExactCopy) {
  dedup_engine eng({dedup_granularity::full_file, 4 * MiB, false});
  rng r(3);
  const byte_buffer data = random_bytes(r, 8000);
  EXPECT_EQ(eng.analyze(1, data).new_bytes, 8000u);
  eng.commit(1, rope(data));
  const dedup_result res = eng.analyze(1, data);
  EXPECT_TRUE(res.whole_file_duplicate);
  EXPECT_EQ(res.duplicate_bytes, 8000u);
  EXPECT_EQ(res.new_bytes, 0u);
  EXPECT_EQ(res.fingerprints_sent, 1u);
}

TEST(DedupEngine, FullFileMissesModifiedCopy) {
  dedup_engine eng({dedup_granularity::full_file, 4 * MiB, false});
  rng r(4);
  byte_buffer data = random_bytes(r, 8000);
  eng.commit(1, rope(data));
  data[0] ^= 1;
  EXPECT_EQ(eng.analyze(1, data).new_bytes, 8000u);
}

TEST(DedupEngine, PerUserScopingBlocksOtherUsers) {
  dedup_engine eng({dedup_granularity::full_file, 4 * MiB,
                    /*cross_user=*/false});
  rng r(5);
  const byte_buffer data = random_bytes(r, 4000);
  eng.commit(1, rope(data));
  EXPECT_EQ(eng.analyze(2, data).new_bytes, 4000u);  // different user
  EXPECT_EQ(eng.analyze(1, data).new_bytes, 0u);
}

TEST(DedupEngine, CrossUserSharing) {
  dedup_engine eng({dedup_granularity::full_file, 4 * MiB,
                    /*cross_user=*/true});
  rng r(6);
  const byte_buffer data = random_bytes(r, 4000);
  eng.commit(1, rope(data));
  EXPECT_TRUE(eng.analyze(2, data).whole_file_duplicate);
}

TEST(DedupEngine, BlockLevelPartialMatch) {
  constexpr std::size_t kBlock = 1024;
  dedup_engine eng({dedup_granularity::fixed_block, kBlock, false});
  rng r(7);
  const byte_buffer f1 = random_bytes(r, 4 * kBlock);
  eng.commit(1, rope(f1));

  // f2 = first half of f1 + fresh content.
  byte_buffer f2(f1.begin(), f1.begin() + 2 * kBlock);
  const byte_buffer tail = random_bytes(r, 2 * kBlock);
  append(f2, tail);

  const dedup_result res = eng.analyze(1, f2);
  EXPECT_EQ(res.duplicate_bytes, 2 * kBlock);
  EXPECT_EQ(res.new_bytes, 2 * kBlock);
  EXPECT_EQ(res.new_chunks.size(), 2u);
  EXPECT_EQ(res.fingerprints_sent, 4u);
  EXPECT_FALSE(res.whole_file_duplicate);
}

TEST(DedupEngine, BlockLevelSelfDuplication) {
  // The mechanism behind Algorithm 1: f2 = f1 + f1 where |f1| = block size.
  constexpr std::size_t kBlock = 4096;
  dedup_engine eng({dedup_granularity::fixed_block, kBlock, false});
  rng r(8);
  const byte_buffer f1 = random_bytes(r, kBlock);
  eng.commit(1, rope(f1));

  byte_buffer f2 = f1;
  append(f2, f1);
  const dedup_result res = eng.analyze(1, f2);
  EXPECT_TRUE(res.whole_file_duplicate);
  EXPECT_EQ(res.new_bytes, 0u);
}

TEST(DedupEngine, BlockLevelMisalignedDuplicateMisses) {
  // Fixed-block dedup is alignment-sensitive: a one-byte prefix shift
  // destroys every match (why the paper contrasts it with CDC).
  constexpr std::size_t kBlock = 1024;
  dedup_engine eng({dedup_granularity::fixed_block, kBlock, false});
  rng r(9);
  const byte_buffer f1 = random_bytes(r, 4 * kBlock);
  eng.commit(1, rope(f1));

  byte_buffer f2;
  f2.push_back(0xaa);
  append(f2, f1);
  const dedup_result res = eng.analyze(1, f2);
  EXPECT_EQ(res.duplicate_bytes, 0u);
}

TEST(DedupEngine, RetractForgetsContent) {
  dedup_engine eng({dedup_granularity::full_file, 4 * MiB, false});
  rng r(10);
  const byte_buffer data = random_bytes(r, 2000);
  eng.commit(1, rope(data));
  eng.retract(1, rope(data));
  EXPECT_EQ(eng.analyze(1, data).new_bytes, 2000u);
}

TEST(DedupEngine, EmptyFile) {
  dedup_engine eng({dedup_granularity::full_file, 4 * MiB, false});
  const dedup_result res = eng.analyze(1, byte_view{});
  EXPECT_EQ(res.new_bytes, 0u);
  EXPECT_FALSE(res.whole_file_duplicate);
  EXPECT_NO_THROW(eng.commit(1, content_ref{}));
}

TEST(DedupEngine, ContentDefinedSurvivesPrefixShift) {
  // The misaligned-duplicate case that fixed blocks miss: CDC re-finds the
  // shared content after an insertion at the front.
  dedup_policy policy;
  policy.granularity = dedup_granularity::content_defined;
  policy.cdc = {1024, 4096, 16 * 1024};
  dedup_engine cdc(policy);
  dedup_engine fixed({dedup_granularity::fixed_block, 4096, false});

  rng r(20);
  const byte_buffer base = random_bytes(r, 256 * 1024);
  cdc.commit(1, rope(base));
  fixed.commit(1, rope(base));

  byte_buffer shifted = random_bytes(r, 11);
  append(shifted, base);

  const dedup_result cdc_res = cdc.analyze(1, shifted);
  const dedup_result fixed_res = fixed.analyze(1, shifted);
  EXPECT_EQ(fixed_res.duplicate_bytes, 0u);  // alignment destroyed
  EXPECT_GT(cdc_res.duplicate_bytes, shifted.size() * 8 / 10);
}

TEST(DedupEngine, ContentDefinedExactCopyFullyDedups) {
  dedup_policy policy;
  policy.granularity = dedup_granularity::content_defined;
  policy.cdc = {1024, 4096, 16 * 1024};
  dedup_engine eng(policy);
  rng r(21);
  const byte_buffer data = random_bytes(r, 100 * 1024);
  eng.commit(1, rope(data));
  const dedup_result res = eng.analyze(1, data);
  EXPECT_TRUE(res.whole_file_duplicate);
  EXPECT_EQ(res.new_bytes, 0u);
}

TEST(DedupEngine, ContentDefinedRetract) {
  dedup_policy policy;
  policy.granularity = dedup_granularity::content_defined;
  dedup_engine eng(policy);
  rng r(22);
  const byte_buffer data = random_bytes(r, 64 * 1024);
  eng.commit(1, rope(data));
  eng.retract(1, rope(data));
  EXPECT_EQ(eng.analyze(1, data).new_bytes, data.size());
}

class DedupGranularitySweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(DedupGranularitySweep, SmallerBlocksFindAtLeastAsManyDuplicates) {
  const std::size_t block = GetParam();
  dedup_engine coarse({dedup_granularity::fixed_block, block * 2, false});
  dedup_engine fine({dedup_granularity::fixed_block, block, false});
  rng r(11);
  const byte_buffer base = random_bytes(r, block * 8);
  coarse.commit(1, rope(base));
  fine.commit(1, rope(base));

  // Modify one byte in the middle.
  byte_buffer v2 = base;
  v2[block * 3] ^= 1;
  EXPECT_LE(fine.analyze(1, v2).new_bytes, coarse.analyze(1, v2).new_bytes);
}

INSTANTIATE_TEST_SUITE_P(Blocks, DedupGranularitySweep,
                         ::testing::Values(512, 1024, 4096, 16 * 1024));

}  // namespace
}  // namespace cloudsync
