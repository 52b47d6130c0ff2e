// LZSS compressor: round-trip properties, ratio expectations, frame
// robustness against corruption.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>

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

// --- pricing an edited version from its predecessor's parse ---------------

/// The lengths of the common prefix and suffix of two flat inputs, the
/// suffix counted past the prefix.
std::pair<std::size_t, std::size_t> flat_affixes(byte_view a, byte_view b) {
  const std::size_t limit = std::min(a.size(), b.size());
  std::size_t prefix = 0;
  while (prefix < limit && a[prefix] == b[prefix]) ++prefix;
  std::size_t suffix = 0;
  while (suffix < limit - prefix &&
         a[a.size() - 1 - suffix] == b[b.size() - 1 - suffix]) {
    ++suffix;
  }
  return {prefix, suffix};
}

struct priced {
  std::uint64_t size = 0;
  std::shared_ptr<const lzss_summary> summary;
};

/// Sizes `data` fed in random pieces, from `base` (the summary of a parse of
/// `old`) when one is given.
priced price(byte_view data, int level, rng& r, byte_view old = {},
             std::shared_ptr<const lzss_summary> base = nullptr) {
  lzss_stream_sizer sizer(data.size(), {.level = level});
  if (base) {
    const auto [prefix, suffix] = flat_affixes(old, data);
    sizer.reuse(base, prefix, suffix);
  }
  std::size_t off = 0;
  while (off < data.size()) {
    const std::size_t piece = std::min<std::size_t>(
        data.size() - off, 1 + r.uniform(std::uint64_t{1} << r.uniform(20)));
    sizer.feed(data.subspan(off, piece));
    off += piece;
  }
  const std::uint64_t size = sizer.finish();
  return {size, sizer.summary()};
}

constexpr std::size_t kLookaheadBytes = 262;  // kMaxMatch + 3

/// A position for an edit of `data`: anywhere, in the first 64 KiB, within
/// the last kLookahead bytes, at a 256 KiB buffer slide, or a few bytes past
/// one of the summary's checkpoints (where resuming at the checkpoint itself
/// would be wrong).
std::size_t edit_position(const byte_buffer& data, const lzss_summary* s,
                          rng& r) {
  const std::size_t n = data.size();
  switch (r.uniform(5)) {
    case 0: return r.uniform(std::min<std::size_t>(n, 64 * 1024));
    case 1: return n - 1 - r.uniform(std::min(n, kLookaheadBytes));
    case 2: {
      const std::size_t slide =
          256 * 1024 * (1 + r.uniform(1 + n / (256 * 1024)));
      return std::min(n - 1, slide - std::min(slide, 300 + r.uniform(600)));
    }
    case 3:
      if (s != nullptr) {
        const lzss_checkpoint& c =
            s->checkpoints[r.uniform(s->checkpoints.size())];
        return std::min(n - 1, c.offset + 1 + r.uniform(8));
      }
      [[fallthrough]];
    default: return r.uniform(n);
  }
}

/// Fresh bytes in the input's own style: copies of its text, so that later
/// matches may reach into them, or noise.
byte_buffer edit_bytes(const byte_buffer& data, std::size_t len, rng& r) {
  if (data.empty() || r.chance(0.3)) return random_bytes(r, len);
  byte_buffer out;
  while (out.size() < len) {
    const std::size_t from = r.uniform(data.size());
    const std::size_t take =
        std::min(len - out.size(), data.size() - from);
    out.insert(out.end(), data.begin() + static_cast<std::ptrdiff_t>(from),
               data.begin() + static_cast<std::ptrdiff_t>(from + take));
  }
  out[r.uniform(out.size())] ^= 0x20;
  return out;
}

/// One edit of `data`: a one-byte or run replacement, an insert, a delete,
/// an append, a truncation, a prepend, or two far-apart one-byte edits.
byte_buffer edited(const byte_buffer& data, const lzss_summary* s, rng& r) {
  byte_buffer out = data;
  const auto at = [&] { return data.empty() ? 0 : edit_position(data, s, r); };
  const std::size_t kind = data.empty() ? 4 : r.uniform(8);
  const std::size_t len = 1 + r.uniform(r.chance(0.5) ? 16 : 5000);
  switch (kind) {
    case 0: {
      out[at()] ^= static_cast<std::uint8_t>(1 + r.uniform(255));
      break;
    }
    case 1: {
      const std::size_t off = at();
      const byte_buffer run =
          edit_bytes(data, std::min(len, out.size() - off), r);
      std::copy(run.begin(), run.end(),
                out.begin() + static_cast<std::ptrdiff_t>(off));
      break;
    }
    case 2: {
      const std::size_t off = at();
      const byte_buffer ins = edit_bytes(data, len, r);
      out.insert(out.begin() + static_cast<std::ptrdiff_t>(off), ins.begin(),
                 ins.end());
      break;
    }
    case 3: {
      const std::size_t off = at();
      const std::size_t cut = std::min(len, out.size() - off);
      out.erase(out.begin() + static_cast<std::ptrdiff_t>(off),
                out.begin() + static_cast<std::ptrdiff_t>(off + cut));
      break;
    }
    case 4: append(out, edit_bytes(data, len, r)); break;
    case 5: out.resize(out.size() - std::min(len, out.size())); break;
    case 6: {
      const byte_buffer head = edit_bytes(data, len, r);
      out.insert(out.begin(), head.begin(), head.end());
      break;
    }
    default: {
      const std::size_t eighth = std::max<std::size_t>(1, out.size() / 8);
      out[r.uniform(eighth)] ^= 0x41;
      out[out.size() - 1 - r.uniform(eighth)] ^= 0x17;
      break;
    }
  }
  return out;
}

/// Prices a chain of `depth` edited versions of `data`, each from the
/// summary of the version before (so a reused summary is reused again),
/// and expects every size to be the compressor's.
void expect_edit_chain_exact(byte_buffer data, int level, int depth, rng& r,
                             const char* what) {
  priced prev = price(data, level, r);
  ASSERT_EQ(prev.size, lzss_compress(data, {.level = level}).size()) << what;
  for (int v = 1; v <= depth; ++v) {
    byte_buffer next = edited(data, prev.summary.get(), r);
    const priced cur = price(next, level, r, data, prev.summary);
    ASSERT_EQ(cur.size, lzss_compress(next, {.level = level}).size())
        << what << " size " << data.size() << " -> " << next.size()
        << " version " << v << " level " << level;
    data = std::move(next);
    prev = cur;
  }
}

class SizerReuse : public ::testing::TestWithParam<int> {};

TEST_P(SizerReuse, EditChainsMatchCompressor) {
  const int level = GetParam();
  rng r(300 + level);
  for (const std::size_t size : {0u, 7u, 5000u, 70'000u, 300'000u}) {
    for (int shape = 0; shape < kShapes; ++shape) {
      expect_edit_chain_exact(differential_input(shape, r, size), level, 6, r,
                              "shape");
    }
  }
  // About 3 MiB, one shape per level as in the feed-split differential.
  const int shape = level % kShapes;
  expect_edit_chain_exact(differential_input(shape, r, (3u << 20) + 12'345),
                          level, 6, r, "big shape");
}

TEST_P(SizerReuse, EditsJustPastCheckpointsMatchCompressor) {
  // A token before a checkpoint may read up to kLookahead bytes past it: a
  // literal deferred for a longer match that starts at the checkpoint reads
  // that whole match. An edit there must not resume at that checkpoint.
  const int level = GetParam();
  rng r(400 + level);
  for (int shape : {0, 3, 4}) {
    const byte_buffer base = differential_input(shape, r, 100'000);
    const priced p = price(base, level, r);
    ASSERT_NE(p.summary, nullptr);
    for (const lzss_checkpoint& c : p.summary->checkpoints) {
      byte_buffer next = base;
      const std::size_t at = c.offset + 1 + r.uniform(48);
      if (at >= next.size()) continue;
      next[at] ^= static_cast<std::uint8_t>(1 + r.uniform(255));
      EXPECT_EQ(price(next, level, r, base, p.summary).size,
                lzss_compress(next, {.level = level}).size())
          << "shape " << shape << " checkpoint " << c.offset << " edit at "
          << at;
    }
  }
}

TEST_P(SizerReuse, EditThatChangesTheTokenBeforeACheckpoint) {
  // Runs of 'x', with a literal-only stretch that makes m - 1 a token start
  // for the checkpoint mark m = 8 KiB. At m - 1 stands "Zabcdefghijk";
  // earlier stand a decoy for it and "abcdefghijk". Lazy levels find a
  // 5-byte match at m - 1 and defer it for the 11+-byte one at m; the
  // others find a match one byte shorter than they accept and emit a
  // literal. One changed byte inside the bytes those choices read turns
  // the token at m - 1 into a match, so the parse must resume before m.
  const int level = GetParam();
  const std::size_t accept = level == 1 ? 8 : level == 2 ? 7 : 4;
  const bool lazy = level >= 5;
  const std::string letters = "abcdefghijk";
  const std::string decoy =
      "Z" + letters.substr(0, lazy ? 4 : accept - 2) + "#";
  const std::size_t m = 8 * 1024;
  byte_buffer data(40'000, std::uint8_t{'x'});
  rng r(500 + level);
  const byte_buffer noise = random_bytes(r, 300);
  const auto put = [&](std::size_t at, const std::string& text) {
    std::copy(text.begin(), text.end(), data.begin() + at);
  };
  put(1000, decoy);
  put(2000, letters);
  std::copy(noise.begin(), noise.end(), data.begin() + (m - 1 - noise.size()));
  put(m - 1, "Z" + letters);
  const priced p = price(data, level, r);
  ASSERT_NE(p.summary, nullptr);
  const auto& cps = p.summary->checkpoints;
  ASSERT_TRUE(std::any_of(
      cps.begin(), cps.end(),
      [&](const lzss_checkpoint& c) { return c.offset == m; }))
      << "no token start at the mark";
  byte_buffer next = data;
  next[m - 1 + decoy.size() - 2] = '#';
  EXPECT_EQ(price(next, level, r, data, p.summary).size,
            lzss_compress(next, {.level = level}).size());
}

INSTANTIATE_TEST_SUITE_P(Levels, SizerReuse, ::testing::Range(1, 10));

TEST(SizerReuse, SummaryIsKeptOnlyPastOneCheckpoint) {
  rng r(61);
  const byte_buffer small = random_text(r, 4096);
  const byte_buffer large = random_text(r, 2 * 1024 * 1024);
  EXPECT_EQ(price(small, 5, r).summary, nullptr);
  EXPECT_EQ(price(large, 0, r).summary, nullptr);  // stored frame
  const priced p = price(large, 5, r);
  ASSERT_NE(p.summary, nullptr);
  // A 2 MiB input gets a 4 KiB spacing: 512 checkpoints.
  EXPECT_EQ(p.summary->checkpoints.size(), 512u);
  EXPECT_EQ(p.summary->checkpoints.front().offset, 0u);
  EXPECT_EQ(p.summary->size, large.size());
  EXPECT_EQ(p.summary->level, 5);
  for (std::size_t i = 1; i < p.summary->checkpoints.size(); ++i) {
    const lzss_checkpoint& a = p.summary->checkpoints[i - 1];
    const lzss_checkpoint& b = p.summary->checkpoints[i];
    EXPECT_GE(b.offset, i * 4096);
    EXPECT_LT(b.offset, i * 4096 + 259);  // a token is at most 259 bytes
    EXPECT_GE(b.literals, a.literals);
    EXPECT_GE(b.matches, a.matches);
  }
  EXPECT_GE(p.summary->literals, p.summary->checkpoints.back().literals);
  EXPECT_GE(p.summary->matches, p.summary->checkpoints.back().matches);
}

TEST(SizerReuse, UnrelatedInputLevelMismatchAndStoredBase) {
  rng r(67);
  const byte_buffer a = random_text(r, 400'000);
  const byte_buffer b = synthetic_payload(r, 350'000, 2.0);
  const priced pa = price(a, 6, r);
  ASSERT_NE(pa.summary, nullptr);
  // Another input altogether: its true (small) prefix and suffix.
  EXPECT_EQ(price(b, 6, r, a, pa.summary).size,
            lzss_compress(b, {.level = 6}).size());
  // A summary of another level is not used.
  byte_buffer a2 = a;
  a2[200'000] ^= 1;
  for (const int level : {0, 1, 5, 9}) {
    EXPECT_EQ(price(a2, level, r, a, pa.summary).size,
              lzss_compress(a2, {.level = level}).size())
        << level;
  }
  // A stored base leaves no summary to reuse, and the sizer parses in full.
  const priced stored = price(a, 0, r);
  EXPECT_EQ(price(a2, 6, r, a, stored.summary).size,
            lzss_compress(a2, {.level = 6}).size());
  // The same input again.
  EXPECT_EQ(price(a, 6, r, a, pa.summary).size, pa.size);
}

TEST(SizerReuse, MisuseThrows) {
  rng r(71);
  const byte_buffer a = random_text(r, 100'000);
  const priced pa = price(a, 5, r);
  ASSERT_NE(pa.summary, nullptr);
  lzss_stream_sizer late(a.size(), {.level = 5});
  late.feed(byte_view(a).first(10));
  EXPECT_THROW(late.reuse(pa.summary, 0, 0), std::logic_error);
  lzss_stream_sizer overlap(a.size(), {.level = 5});
  EXPECT_THROW(overlap.reuse(pa.summary, 60'000, 40'001), std::logic_error);
  lzss_stream_sizer twice(a.size(), {.level = 5});
  twice.reuse(pa.summary, 100'000, 0);
  EXPECT_THROW(twice.reuse(pa.summary, 100'000, 0), std::logic_error);
}

}  // namespace
}  // namespace cloudsync
