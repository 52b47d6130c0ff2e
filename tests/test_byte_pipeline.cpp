// Determinism contract of the byte pipeline and the optimized kernels: the
// pipeline's per-block weak sums and entropy must equal the standalone
// computations under any feed split, the rolling checksum must agree with a
// full recompute at every offset, CDC boundaries must survive offset
// shifts, and the digests must match their published NIST / RFC test
// vectors.
#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "chunking/cdc.hpp"
#include "chunking/fixed_chunker.hpp"
#include "dedup/dedup_index.hpp"
#include "pipeline/byte_pipeline.hpp"
#include "util/adler32.hpp"
#include "util/crc32.hpp"
#include "util/md5.hpp"
#include "util/rng.hpp"
#include "util/sha1.hpp"
#include "util/sha256.hpp"

namespace cloudsync {
namespace {

byte_view sv(const std::string& s) {
  return byte_view{reinterpret_cast<const std::uint8_t*>(s.data()), s.size()};
}

// ---------------------------------------------------------------------------
// Published vectors
// ---------------------------------------------------------------------------

TEST(KernelVectors, Sha256Fips180) {
  EXPECT_EQ(sha256(byte_view{}).hex(),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
  EXPECT_EQ(sha256(sv("abc")).hex(),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
  EXPECT_EQ(sha256(sv("abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopno"
                      "pq"))
                .hex(),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
}

TEST(KernelVectors, Sha1Fips180) {
  EXPECT_EQ(sha1(byte_view{}).hex(),
            "da39a3ee5e6b4b0d3255bfef95601890afd80709");
  EXPECT_EQ(sha1(sv("abc")).hex(),
            "a9993e364706816aba3e25717850c26c9cd0d89d");
  EXPECT_EQ(sha1(sv("abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnop"
                    "q"))
                .hex(),
            "84983e441c3bd26ebaae4aa1f95129e5e54670f1");
}

TEST(KernelVectors, Md5Rfc1321Suite) {
  const struct {
    const char* msg;
    const char* hex;
  } kSuite[] = {
      {"", "d41d8cd98f00b204e9800998ecf8427e"},
      {"a", "0cc175b9c0f1b6a831c399e269772661"},
      {"abc", "900150983cd24fb0d6963f7d28e17f72"},
      {"message digest", "f96b697d7cb7938d525a2f31aaf161d0"},
      {"abcdefghijklmnopqrstuvwxyz", "c3fcd3d76192e4007dfb496cca67e13b"},
      {"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789",
       "d174ab98d277d9f5a5611c2c9f419d9f"},
      {"123456789012345678901234567890123456789012345678901234567890123456789"
       "01234567890",
       "57edf4a22be3c955ac49da2e2107b67a"},
  };
  for (const auto& c : kSuite) {
    EXPECT_EQ(md5(sv(c.msg)).hex(), c.hex) << "MD5(\"" << c.msg << "\")";
  }
}

TEST(KernelVectors, Crc32CheckValue) {
  // The standard CRC-32/ISO-HDLC check value.
  EXPECT_EQ(crc32(sv("123456789")), 0xCBF43926u);
  EXPECT_EQ(crc32(byte_view{}), 0u);
}

// ---------------------------------------------------------------------------
// Rolling checksum == full recompute at every offset
// ---------------------------------------------------------------------------

TEST(RollingProperty, MatchesFullRecomputeAtEveryOffset) {
  rng r(1234);
  for (const std::size_t window : {16, 700, 4096}) {
    const byte_buffer data = random_bytes(r, 3 * window + 123);
    rolling_checksum rc(window);
    rc.reset(byte_view{data.data(), window});
    for (std::size_t off = 0;; ++off) {
      ASSERT_EQ(rc.value(),
                weak_checksum(byte_view{data.data() + off, window}))
          << "window " << window << " offset " << off;
      if (off + window >= data.size()) break;
      rc.roll(data[off], data[off + window]);
    }
  }
}

TEST(RollingProperty, WeakAccumulateSplitsArbitrarily) {
  rng r(99);
  const byte_buffer data = random_bytes(r, 10'000);
  const std::uint32_t whole = weak_checksum(data);
  for (const std::size_t cut : {0, 1, 63, 64, 65, 9'999}) {
    std::uint32_t a = 0, b = 0;
    weak_accumulate(byte_view{data.data(), cut}, a, b);
    weak_accumulate(byte_view{data.data() + cut, data.size() - cut}, a, b);
    EXPECT_EQ(((b << 16) | (a & 0xffffu)), whole) << "cut at " << cut;
  }
}

// ---------------------------------------------------------------------------
// CDC boundary invariance under offset shift
// ---------------------------------------------------------------------------

TEST(CdcProperty, BoundariesRealignAfterPrefixInsertion) {
  rng r(777);
  const byte_buffer data = random_bytes(r, 256 * 1024);
  const cdc_params params{};
  const auto base = content_defined_chunks(data, params);
  ASSERT_GT(base.size(), 3u);

  for (const std::size_t shift : {1, 37, 4096}) {
    byte_buffer shifted = random_bytes(r, shift);
    shifted.insert(shifted.end(), data.begin(), data.end());
    const auto moved = content_defined_chunks(shifted, params);

    // End-of-chunk positions, expressed as offsets into the original data.
    std::vector<std::size_t> base_cuts, moved_cuts;
    for (const chunk_ref& c : base) base_cuts.push_back(c.offset + c.size);
    for (const chunk_ref& c : moved) {
      const std::size_t end = c.offset + c.size;
      if (end > shift) moved_cuts.push_back(end - shift);
    }

    // The gear cut decision only reads a trailing byte window, so the two
    // streams must land on a common boundary quickly and then stay in
    // lockstep to the end of the buffer.
    std::size_t b = 0, m = 0;
    while (b < base_cuts.size() && m < moved_cuts.size() &&
           base_cuts[b] != moved_cuts[m]) {
      if (base_cuts[b] < moved_cuts[m]) {
        ++b;
      } else {
        ++m;
      }
    }
    ASSERT_LT(b, base_cuts.size()) << "no shared boundary at shift " << shift;
    EXPECT_LT(b, 4u) << "resynchronisation took too long";
    while (b < base_cuts.size() && m < moved_cuts.size()) {
      EXPECT_EQ(base_cuts[b], moved_cuts[m]) << "diverged after resync";
      ++b;
      ++m;
    }
    EXPECT_EQ(b, base_cuts.size());
    EXPECT_EQ(m, moved_cuts.size());
  }
}

TEST(CdcProperty, RespectsSizeBoundsAndCoversBuffer) {
  rng r(31337);
  const byte_buffer data = random_bytes(r, 200 * 1024 + 17);
  const cdc_params params{};
  const auto chunks = content_defined_chunks(data, params);
  std::size_t expect_off = 0;
  for (std::size_t i = 0; i < chunks.size(); ++i) {
    EXPECT_EQ(chunks[i].offset, expect_off);
    if (i + 1 < chunks.size()) {
      EXPECT_GE(chunks[i].size, params.min_size);
    }
    EXPECT_LE(chunks[i].size, params.max_size);
    expect_off += chunks[i].size;
  }
  EXPECT_EQ(expect_off, data.size());
}

// ---------------------------------------------------------------------------
// Pipeline == standalone computations
// ---------------------------------------------------------------------------

content_request everything() {
  content_request req;
  req.block_weak = 4 * 1024;
  req.entropy = true;
  return req;
}

void expect_report_matches(const content_report& rep, byte_view data) {
  EXPECT_EQ(rep.total_bytes, data.size());
  const auto blocks = fixed_chunks(data, 4 * 1024);
  ASSERT_EQ(rep.block_weak.size(), blocks.size());
  for (std::size_t i = 0; i < blocks.size(); ++i) {
    EXPECT_EQ(rep.block_weak[i], weak_checksum(slice(data, blocks[i])))
        << "block " << i;
  }
  // Order-0 entropy, summed in byte-value order as the pipeline does.
  std::uint64_t hist[256] = {};
  for (const std::uint8_t b : data) ++hist[b];
  double bits = 0.0;
  for (const std::uint64_t n : hist) {
    if (n == 0) continue;
    const double pr =
        static_cast<double>(n) / static_cast<double>(data.size());
    bits -= static_cast<double>(n) * std::log2(pr);
  }
  EXPECT_EQ(rep.entropy_bits_per_byte,
            data.empty() ? 0.0 : bits / static_cast<double>(data.size()));
}

TEST(BytePipeline, OneShotMatchesStandaloneKernels) {
  rng r(42);
  for (const std::size_t n : {0, 1, 63, 64, 65, 4096, 100'000}) {
    const byte_buffer data = random_bytes(r, n);
    const content_report rep = analyze_content(data, everything());
    expect_report_matches(rep, data);
  }
}

TEST(BytePipeline, TiledFeedMatchesWholeBuffer) {
  rng r(4242);
  const byte_buffer data = random_bytes(r, 150'000);
  for (const std::size_t tile : {1, 7, 64, 1000, 65'536}) {
    byte_pipeline p(everything());
    for (std::size_t off = 0; off < data.size(); off += tile) {
      const std::size_t take = std::min(tile, data.size() - off);
      p.feed(byte_view{data.data() + off, take});
    }
    expect_report_matches(p.finish(), data);
  }
}

TEST(BytePipeline, FinishTwiceThrows) {
  byte_pipeline p(everything());
  (void)p.finish();
  EXPECT_THROW((void)p.finish(), std::logic_error);
}

TEST(BytePipeline, EntropyBounds) {
  rng r(5);
  const byte_buffer random = random_bytes(r, 64 * 1024);
  content_request req;
  req.entropy = true;
  const double random_bits =
      analyze_content(random, req).entropy_bits_per_byte;
  EXPECT_GT(random_bits, 7.9);  // incompressible
  EXPECT_LE(random_bits, 8.0);

  const byte_buffer constant(64 * 1024, std::uint8_t{7});
  EXPECT_EQ(analyze_content(constant, req).entropy_bits_per_byte, 0.0);
}

// ---------------------------------------------------------------------------
// Flat fingerprint shard
// ---------------------------------------------------------------------------

fingerprint fp_of_u64(std::uint64_t v) {
  byte_buffer b(8);
  for (int i = 0; i < 8; ++i) b[i] = static_cast<std::uint8_t>(v >> (8 * i));
  return fingerprint_of(b);
}

TEST(FingerprintShard, AddContainsRemoveRefcount) {
  fingerprint_shard shard;
  const fingerprint fp = fp_of_u64(1);
  EXPECT_FALSE(shard.contains(fp));
  shard.remove(fp);  // absent: no-op
  shard.add(fp);
  shard.add(fp);
  EXPECT_TRUE(shard.contains(fp));
  EXPECT_EQ(shard.unique_count(), 1u);
  shard.remove(fp);
  EXPECT_TRUE(shard.contains(fp)) << "refcount 1 remains";
  shard.remove(fp);
  EXPECT_FALSE(shard.contains(fp));
  EXPECT_EQ(shard.unique_count(), 0u);
}

TEST(FingerprintShard, GrowsAndKeepsEveryEntry) {
  fingerprint_shard shard(4);  // force many rehashes
  constexpr std::uint64_t kN = 20'000;
  for (std::uint64_t i = 0; i < kN; ++i) shard.add(fp_of_u64(i));
  EXPECT_EQ(shard.unique_count(), kN);
  for (std::uint64_t i = 0; i < kN; ++i) {
    ASSERT_TRUE(shard.contains(fp_of_u64(i))) << i;
  }
  EXPECT_FALSE(shard.contains(fp_of_u64(kN + 1)));
}

TEST(FingerprintShard, TombstonesAreReusedAcrossChurn) {
  fingerprint_shard shard(16);
  // Repeatedly fill and drain; without tombstone reuse / rehash cleanup the
  // table would degrade or grow without bound.
  for (int round = 0; round < 50; ++round) {
    for (std::uint64_t i = 0; i < 100; ++i) shard.add(fp_of_u64(i));
    for (std::uint64_t i = 0; i < 100; ++i) shard.remove(fp_of_u64(i));
  }
  EXPECT_EQ(shard.unique_count(), 0u);
  shard.add(fp_of_u64(7));
  EXPECT_TRUE(shard.contains(fp_of_u64(7)));
}

TEST(FingerprintShard, MatchesMapSemanticsUnderRandomOps) {
  rng r(2024);
  fingerprint_shard shard;
  std::unordered_map<fingerprint, std::uint64_t> model;
  for (int op = 0; op < 20'000; ++op) {
    const fingerprint fp = fp_of_u64(r.uniform(500));
    if (r.chance(0.6)) {
      shard.add(fp);
      ++model[fp];
    } else {
      shard.remove(fp);
      const auto it = model.find(fp);
      if (it != model.end() && --it->second == 0) model.erase(it);
    }
    if (op % 1000 == 0) {
      ASSERT_EQ(shard.unique_count(), model.size()) << "op " << op;
    }
  }
  EXPECT_EQ(shard.unique_count(), model.size());
  for (const auto& [fp, count] : model) {
    EXPECT_TRUE(shard.contains(fp));
  }
}

}  // namespace
}  // namespace cloudsync
