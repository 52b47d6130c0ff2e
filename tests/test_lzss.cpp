// LZSS compressor: round-trip properties, ratio expectations, frame
// robustness against corruption.
#include <gtest/gtest.h>

#include "compress/compressor.hpp"
#include "compress/lzss.hpp"
#include "compress/varint.hpp"
#include "util/rng.hpp"

namespace cloudsync {
namespace {

class LzssLevels : public ::testing::TestWithParam<int> {};

TEST_P(LzssLevels, RoundTripText) {
  rng r(1);
  const byte_buffer original = random_text(r, 50'000);
  const byte_buffer frame =
      lzss_compress(original, {.level = GetParam()});
  EXPECT_EQ(lzss_decompress(frame), original);
}

TEST_P(LzssLevels, RoundTripRandom) {
  rng r(2);
  const byte_buffer original = random_bytes(r, 20'000);
  const byte_buffer frame =
      lzss_compress(original, {.level = GetParam()});
  EXPECT_EQ(lzss_decompress(frame), original);
  // Random data must not expand beyond the stored-frame overhead.
  EXPECT_LE(frame.size(), original.size() + 16);
}

TEST_P(LzssLevels, RoundTripRepetitive) {
  byte_buffer original;
  for (int i = 0; i < 5000; ++i) original.push_back("abcab"[i % 5]);
  const byte_buffer frame =
      lzss_compress(original, {.level = GetParam()});
  EXPECT_EQ(lzss_decompress(frame), original);
  if (GetParam() >= 1) {
    EXPECT_LT(frame.size(), original.size() / 10);
  }
}

INSTANTIATE_TEST_SUITE_P(Levels, LzssLevels,
                         ::testing::Values(0, 1, 2, 3, 4, 5, 6, 7, 8, 9));

TEST(Lzss, EmptyInput) {
  const byte_buffer frame = lzss_compress({});
  EXPECT_TRUE(lzss_decompress(frame).empty());
}

TEST(Lzss, TinyInputs) {
  for (std::size_t n : {1, 2, 3, 4, 5, 8}) {
    rng r(n);
    const byte_buffer original = random_bytes(r, n);
    EXPECT_EQ(lzss_decompress(lzss_compress(original)), original) << n;
  }
}

TEST(Lzss, HigherLevelCompressesTextAtLeastAsWell) {
  rng r(3);
  const byte_buffer text = random_text(r, 200'000);
  const std::size_t low = lzss_compress(text, {.level = 1}).size();
  const std::size_t high = lzss_compress(text, {.level = 9}).size();
  EXPECT_LE(high, low);
  // English-word text should compress well at high level (~2x or better).
  EXPECT_LT(high, text.size() * 6 / 10);
}

TEST(Lzss, TextCompressionRatioMatchesPaperExpectation) {
  // The paper's 10 MB random-English text compressed to ~4.5 MB with WinZip;
  // our LZSS at level 9 should land in the same regime (ratio >= 2).
  rng r(4);
  const byte_buffer text = random_text(r, 1'000'000);
  const std::size_t c = lzss_compress(text, {.level = 9}).size();
  EXPECT_LT(c, text.size() / 2);
}

TEST(Lzss, OverlappingMatchRle) {
  // A run of a single byte exercises distance < length copies.
  byte_buffer original(10'000, std::uint8_t{'x'});
  const byte_buffer frame = lzss_compress(original, {.level = 5});
  EXPECT_LT(frame.size(), 200u);
  EXPECT_EQ(lzss_decompress(frame), original);
}

TEST(Lzss, CorruptMagicThrows) {
  byte_buffer frame = lzss_compress(to_buffer("hello world hello world"));
  frame[0] ^= 0xff;
  EXPECT_THROW(lzss_decompress(frame), std::runtime_error);
}

TEST(Lzss, CorruptBodyThrowsCrc) {
  rng r(5);
  byte_buffer frame = lzss_compress(random_text(r, 5'000), {.level = 6});
  frame[frame.size() / 2] ^= 0x01;
  EXPECT_THROW(lzss_decompress(frame), std::runtime_error);
}

TEST(Lzss, TruncatedFrameThrows) {
  rng r(6);
  byte_buffer frame = lzss_compress(random_text(r, 5'000), {.level = 6});
  frame.resize(frame.size() / 2);
  EXPECT_THROW(lzss_decompress(frame), std::runtime_error);
}

TEST(Lzss, GarbageThrows) {
  EXPECT_THROW(lzss_decompress(to_buffer("not a frame at all")),
               std::runtime_error);
  EXPECT_THROW(lzss_decompress({}), std::runtime_error);
}

TEST(Lzss, OversizedHeaderThrows) {
  // A 13-byte frame that claims 1 TiB must fail as malformed, not by
  // trying to reserve the memory.
  byte_buffer frame = {'c', 'z', 1};
  put_varint(frame, std::uint64_t{1} << 40);
  frame.insert(frame.end(), 4, 0);  // empty body, then the CRC-32
  ASSERT_EQ(frame.size(), 13u);
  EXPECT_THROW(lzss_decompress(frame), std::runtime_error);
}

TEST(EstimateCompressionRatio, DiscriminatesContent) {
  rng r(7);
  const byte_buffer text = random_text(r, 300'000);
  const byte_buffer noise = random_bytes(r, 300'000);
  EXPECT_GT(estimate_compression_ratio(text), 1.3);
  EXPECT_LT(estimate_compression_ratio(noise), 1.05);
}

TEST(EstimateCompressionRatio, EmptyIsOne) {
  EXPECT_DOUBLE_EQ(estimate_compression_ratio({}), 1.0);
}

TEST(CompressorInterface, IdentityPassesThrough) {
  identity_compressor c;
  const byte_buffer data = to_buffer("payload");
  EXPECT_EQ(c.compress(data), data);
  EXPECT_EQ(c.decompress(data), data);
  EXPECT_EQ(c.name(), "identity");
}

TEST(CompressorInterface, FactoryLevels) {
  EXPECT_EQ(make_compressor(0)->name(), "identity");
  EXPECT_EQ(make_compressor(-3)->name(), "identity");
  EXPECT_EQ(make_compressor(6)->name(), "lzss-6");
  rng r(8);
  const byte_buffer text = random_text(r, 10'000);
  const auto c = make_compressor(6);
  EXPECT_EQ(c->decompress(c->compress(text)), text);
}

TEST(SampleWindows, CoverSmallInputWhole) {
  const auto w = compression_sample_windows(1000, 16 * 1024);
  ASSERT_EQ(w.size(), 1u);
  EXPECT_EQ(w[0].offset, 0u);
  EXPECT_EQ(w[0].length, 1000u);
}

TEST(SampleWindows, LargeInputGetsEightSortedDisjointWindows) {
  const std::size_t size = 5'000'000;
  const auto w = compression_sample_windows(size, 16 * 1024);
  ASSERT_EQ(w.size(), 8u);
  for (std::size_t i = 0; i < w.size(); ++i) {
    EXPECT_EQ(w[i].length, 16 * 1024 / 8) << i;
    EXPECT_LE(w[i].offset + w[i].length, size) << i;
    if (i > 0) {
      EXPECT_GE(w[i].offset, w[i - 1].offset + w[i - 1].length) << i;
    }
  }
  EXPECT_EQ(w.back().offset + w.back().length, size);
}

TEST(SampleWindows, RatioOfWindowsMatchesWholeBufferEstimate) {
  rng r(21);
  for (const std::size_t size : {900u, 70'000u, 500'000u}) {
    const byte_buffer data = random_text(r, size);
    const auto plan = compression_sample_windows(data.size(), 16 * 1024);
    std::vector<byte_view> views;
    for (const sample_window& w : plan) {
      views.push_back(byte_view(data).subspan(w.offset, w.length));
    }
    EXPECT_DOUBLE_EQ(estimate_ratio_of_windows(views),
                     estimate_compression_ratio(data, 16 * 1024))
        << size;
  }
}

/// The sizer's whole contract: finish() == lzss_compress(flat).size(),
/// across content shapes, levels, feed-window sizes, and the stored-frame
/// fallback boundary.
class StreamSizer : public ::testing::TestWithParam<int> {};

TEST_P(StreamSizer, MatchesCompressorAcrossShapesAndWindows) {
  const int level = GetParam();
  rng r(100 + level);
  const struct {
    const char* name;
    byte_buffer data;
  } shapes[] = {
      {"empty", {}},
      {"tiny", random_bytes(r, 3)},
      {"text", random_text(r, 200'000)},
      {"noise", random_bytes(r, 150'000)},
      {"rle", byte_buffer(100'000, std::uint8_t{'x'})},
      {"mixed", synthetic_payload(r, 300'000, 1.8)},
  };
  for (const auto& s : shapes) {
    const std::size_t expect = lzss_compress(s.data, {.level = level}).size();
    // Feed windows chosen to fill the sizer's 256 KiB buffer at awkward
    // offsets.
    for (const std::size_t win : {1u << 20, 65'537u, 4096u, 977u}) {
      lzss_stream_sizer sizer(s.data.size(), {.level = level});
      for (std::size_t off = 0; off < s.data.size(); off += win) {
        sizer.feed(byte_view(s.data).subspan(
            off, std::min(win, s.data.size() - off)));
      }
      EXPECT_EQ(sizer.finish(), expect) << s.name << " win=" << win;
    }
  }
}

/// Content shapes of the differential: text, noise, one long run,
/// synthetic payload, and text repeating at a period just around the 64 KiB
/// window (65,530-65,541 bytes), so the best match sits at the window edge.
byte_buffer differential_input(int shape, rng& r, std::size_t size) {
  switch (shape) {
    case 0: return random_text(r, size);
    case 1: return random_bytes(r, size);
    case 2: return byte_buffer(size, std::uint8_t{'x'});
    case 3: return synthetic_payload(r, size, 1.8);
    default: {
      const byte_buffer unit = random_text(r, 65'530 + r.uniform(12));
      byte_buffer out;
      while (out.size() < size) append(out, unit);
      out.resize(size);
      return out;
    }
  }
}
constexpr int kShapes = 5;

/// Feeds `data` to a sizer in random pieces, from single bytes to more
/// than the sizer's 256 KiB buffer.
std::uint64_t size_in_random_pieces(byte_view data, int level, rng& r) {
  lzss_stream_sizer sizer(data.size(), {.level = level});
  std::size_t off = 0;
  while (off < data.size()) {
    const std::size_t piece = std::min<std::size_t>(
        data.size() - off, 1 + r.uniform(std::uint64_t{1} << r.uniform(20)));
    sizer.feed(data.subspan(off, piece));
    off += piece;
  }
  return sizer.finish();
}

TEST_P(StreamSizer, RandomFeedSplitsMatchCompressor) {
  const int level = GetParam();
  rng r(200 + level);
  // 8 is the shortest input that can hold a match; 256 KiB is the sizer's
  // buffer, so the last two sizes slide it.
  for (const std::size_t size : {0u, 7u, 8u, 4096u, 65'535u, 65'536u,
                                 65'537u, 262'143u, 262'144u, 262'145u}) {
    for (int shape = 0; shape < kShapes; ++shape) {
      const byte_buffer data = differential_input(shape, r, size);
      EXPECT_EQ(size_in_random_pieces(data, level, r),
                lzss_compress(data, {.level = level}).size())
          << "shape " << shape << " size " << size;
    }
  }
  // About 3 MiB slides the buffer some 16 times and rebases the positions on
  // every slide. One shape per level keeps the run short; the levels cover
  // every shape twice.
  const int shape = level % kShapes;
  const byte_buffer big = differential_input(shape, r, (3u << 20) + 12'345);
  EXPECT_EQ(size_in_random_pieces(big, level, r),
            lzss_compress(big, {.level = level}).size())
      << "shape " << shape;
}

INSTANTIATE_TEST_SUITE_P(Levels, StreamSizer, ::testing::Range(0, 10));

TEST(StreamSizerTables, TwoLiveSizersFedAlternately) {
  // The second sizer cannot borrow the thread's tables while the first is
  // being fed, and compressions in between must not disturb either.
  rng r(31);
  const byte_buffer a = random_text(r, 700'000);
  const byte_buffer b = synthetic_payload(r, 500'000, 2.0);
  const byte_buffer c = random_text(r, 20'000);
  const std::size_t c_size = lzss_compress(c, {.level = 6}).size();
  const double c_ratio = estimate_compression_ratio(c);
  lzss_stream_sizer sa(a.size(), {.level = 5});
  lzss_stream_sizer sb(b.size(), {.level = 4});
  const std::size_t piece = 50'000;
  for (std::size_t off = 0; off < std::max(a.size(), b.size()); off += piece) {
    if (off < a.size()) {
      sa.feed(byte_view(a).subspan(off, std::min(piece, a.size() - off)));
    }
    EXPECT_EQ(lzss_compress(c, {.level = 6}).size(), c_size);
    EXPECT_EQ(estimate_compression_ratio(c), c_ratio);
    if (off < b.size()) {
      sb.feed(byte_view(b).subspan(off, std::min(piece, b.size() - off)));
    }
  }
  EXPECT_EQ(sb.finish(), lzss_compress(b, {.level = 4}).size());
  EXPECT_EQ(sa.finish(), lzss_compress(a, {.level = 5}).size());
}

TEST(StreamSizerTables, ManySmallInputsOnOneThread) {
  // Inputs that never slide claim ever higher positions, until a parse
  // starts high enough to rebase the thread's tables first.
  rng r(51);
  for (int i = 0; i < 2000; ++i) {
    const int level = 4 + i % 2;
    const byte_buffer data = synthetic_payload(r, 4096, 1.8);
    lzss_stream_sizer sizer(data.size(), {.level = level});
    sizer.feed(data);
    // Finish first, so that both parses run on the same tables.
    const std::uint64_t sized = sizer.finish();
    ASSERT_EQ(sized, lzss_compress(data, {.level = level}).size()) << i;
  }
}

TEST(StreamSizerErrors, FinishValidatesFedBytes) {
  lzss_stream_sizer sizer(10, {.level = 6});
  sizer.feed(byte_buffer(5, std::uint8_t{'a'}));
  EXPECT_THROW(sizer.finish(), std::logic_error);  // 5 of 10 bytes fed
}

TEST(StreamSizerErrors, OverfeedAndSecondFinishThrow) {
  for (const int level : {0, 6}) {
    lzss_stream_sizer over(10, {.level = level});
    EXPECT_THROW(
        {
          over.feed(byte_buffer(11, std::uint8_t{'a'}));
          over.finish();
        },
        std::logic_error)
        << level;

    lzss_stream_sizer twice(10, {.level = level});
    twice.feed(byte_buffer(10, std::uint8_t{'a'}));
    EXPECT_EQ(twice.finish(),
              lzss_compress(byte_buffer(10, std::uint8_t{'a'}),
                            {.level = level})
                  .size());
    EXPECT_THROW(twice.finish(), std::logic_error) << level;
  }
}

TEST(EstimateCompressionRatio, CountedProbeEqualsCompressedSizes) {
  // The probe counts frame bytes instead of writing them; the ratio must be
  // the one the written level-5 frames give.
  rng r(41);
  for (const std::size_t size : {9u, 4096u, 16'384u, 70'000u, 2'000'000u}) {
    for (int shape = 0; shape < kShapes; ++shape) {
      const byte_buffer data = differential_input(shape, r, size);
      std::vector<byte_view> views;
      std::size_t in = 0, out = 0;
      for (const sample_window& w :
           compression_sample_windows(data.size(), 16 * 1024)) {
        views.push_back(byte_view(data).subspan(w.offset, w.length));
        in += w.length;
        out += lzss_compress(views.back(), {.level = 5}).size();
      }
      EXPECT_EQ(estimate_ratio_of_windows(views),
                static_cast<double>(in) / static_cast<double>(out))
          << "shape " << shape << " size " << size;
    }
  }
}

TEST(SyntheticPayloadCompression, TracksTargetRatio) {
  rng r(9);
  const byte_buffer p = synthetic_payload(r, 200'000, 2.0);
  const double ratio = static_cast<double>(p.size()) /
                       static_cast<double>(lzss_compress(p, {.level = 6}).size());
  EXPECT_GT(ratio, 1.5);
  EXPECT_LT(ratio, 3.0);
}

}  // namespace
}  // namespace cloudsync
