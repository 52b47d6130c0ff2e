#include <gtest/gtest.h>

#include "chunking/cdc.hpp"
#include "chunking/fixed_chunker.hpp"
#include "util/rng.hpp"

namespace cloudsync {
namespace {

TEST(FixedChunker, ExactMultiple) {
  rng r(1);
  const byte_buffer data = random_bytes(r, 4096);
  const auto chunks = fixed_chunks(data, 1024);
  ASSERT_EQ(chunks.size(), 4u);
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(chunks[i].offset, i * 1024);
    EXPECT_EQ(chunks[i].size, 1024u);
  }
}

TEST(FixedChunker, ShortTail) {
  rng r(2);
  const byte_buffer data = random_bytes(r, 4097);
  const auto chunks = fixed_chunks(data, 1024);
  ASSERT_EQ(chunks.size(), 5u);
  EXPECT_EQ(chunks.back().size, 1u);
}

TEST(FixedChunker, Empty) {
  EXPECT_TRUE(fixed_chunks({}, 1024).empty());
}

TEST(FixedChunker, SingleSmallFile) {
  rng r(3);
  const byte_buffer data = random_bytes(r, 10);
  const auto chunks = fixed_chunks(data, 1024);
  ASSERT_EQ(chunks.size(), 1u);
  EXPECT_EQ(chunks[0].size, 10u);
}

class FixedChunkerCoverage : public ::testing::TestWithParam<std::size_t> {};

TEST_P(FixedChunkerCoverage, ChunksPartitionTheFile) {
  rng r(4);
  const byte_buffer data = random_bytes(r, 10'000);
  const auto chunks = fixed_chunks(data, GetParam());
  std::size_t covered = 0;
  std::size_t expected_offset = 0;
  for (const chunk_ref& c : chunks) {
    EXPECT_EQ(c.offset, expected_offset);
    expected_offset += c.size;
    covered += c.size;
    EXPECT_EQ(slice(data, c).size(), c.size);
  }
  EXPECT_EQ(covered, data.size());
}

INSTANTIATE_TEST_SUITE_P(BlockSizes, FixedChunkerCoverage,
                         ::testing::Values(1, 7, 128, 1000, 4096, 10'000,
                                           20'000));

TEST(Cdc, ChunksPartitionTheFile) {
  rng r(5);
  const byte_buffer data = random_bytes(r, 300'000);
  const auto chunks = content_defined_chunks(data);
  std::size_t expected_offset = 0;
  for (const chunk_ref& c : chunks) {
    EXPECT_EQ(c.offset, expected_offset);
    expected_offset += c.size;
  }
  EXPECT_EQ(expected_offset, data.size());
}

TEST(Cdc, RespectsBounds) {
  rng r(6);
  const byte_buffer data = random_bytes(r, 500'000);
  const cdc_params p{1024, 4096, 16 * 1024};
  const auto chunks = content_defined_chunks(data, p);
  for (std::size_t i = 0; i + 1 < chunks.size(); ++i) {  // tail may be short
    EXPECT_GE(chunks[i].size, p.min_size);
    EXPECT_LE(chunks[i].size, p.max_size);
  }
  // Average should be loosely near the target.
  const double avg =
      static_cast<double>(data.size()) / static_cast<double>(chunks.size());
  EXPECT_GT(avg, 2048.0);
  EXPECT_LT(avg, 12'000.0);
}

TEST(Cdc, ShiftInvariance) {
  // Insert bytes at the front; most boundaries (by content) must survive.
  rng r(7);
  const byte_buffer data = random_bytes(r, 200'000);
  byte_buffer shifted = random_bytes(r, 37);
  append(shifted, data);

  auto ids = [](byte_view content, const std::vector<chunk_ref>& chunks) {
    std::vector<std::uint64_t> out;
    for (const chunk_ref& c : chunks) {
      std::uint64_t h = 1469598103934665603ull;
      for (std::uint8_t b : slice(content, c)) {
        h = (h ^ b) * 1099511628211ull;
      }
      out.push_back(h);
    }
    return out;
  };

  const auto a = content_defined_chunks(data);
  const auto b = content_defined_chunks(shifted);
  const auto ia = ids(data, a);
  const auto ib = ids(shifted, b);

  std::size_t common = 0;
  for (std::uint64_t h : ia) {
    for (std::uint64_t g : ib) {
      if (h == g) {
        ++common;
        break;
      }
    }
  }
  // The vast majority of content-defined chunks survive the shift; a fixed
  // chunker would lose all of them.
  EXPECT_GT(common * 10, ia.size() * 8);
}

TEST(Cdc, EmptyAndTiny) {
  EXPECT_TRUE(content_defined_chunks(byte_view{}).empty());
  EXPECT_TRUE(content_defined_chunks(content_ref{}).empty());
  rng r(8);
  const byte_buffer tiny = random_bytes(r, 100);
  const auto chunks = content_defined_chunks(tiny);
  ASSERT_EQ(chunks.size(), 1u);
  EXPECT_EQ(chunks[0].size, 100u);
}

TEST(Cdc, RopeMatchesFlatAtRandomCuts) {
  // The rope overload streams segment by segment; a cut anywhere — inside
  // the min-size skip, mid-hash, at a boundary, one byte long — must not
  // move a boundary. Small parameters put many boundaries near the cuts.
  rng r(10);
  for (const cdc_params& p :
       {cdc_params{}, cdc_params{64, 256, 1024}, cdc_params{1, 1, 4},
        cdc_params{512, 512, 512}}) {
    for (const std::size_t n : {0, 1, 100, 5'000, 200'000}) {
      const byte_buffer data = random_bytes(r, n);
      content_ref::builder b;
      for (std::size_t off = 0; off < n;) {
        const std::size_t len = std::min<std::size_t>(
            n - off, 1 + r.uniform(r.chance(0.5) ? 8 : 3'000));
        b.append(content_ref::adopt(byte_buffer(
            data.begin() + static_cast<std::ptrdiff_t>(off),
            data.begin() + static_cast<std::ptrdiff_t>(off + len))));
        off += len;
      }
      const auto flat = content_defined_chunks(data, p);
      const auto rope = content_defined_chunks(b.build(), p);
      ASSERT_EQ(rope.size(), flat.size()) << "n=" << n;
      for (std::size_t i = 0; i < flat.size(); ++i) {
        ASSERT_EQ(rope[i].offset, flat[i].offset) << "n=" << n << " i=" << i;
        ASSERT_EQ(rope[i].size, flat[i].size) << "n=" << n << " i=" << i;
      }
    }
  }
}

TEST(Cdc, Deterministic) {
  rng r(9);
  const byte_buffer data = random_bytes(r, 100'000);
  const auto a = content_defined_chunks(data);
  const auto b = content_defined_chunks(data);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].offset, b[i].offset);
    EXPECT_EQ(a[i].size, b[i].size);
  }
}

}  // namespace
}  // namespace cloudsync
