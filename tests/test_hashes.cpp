// Known-answer and property tests for the from-scratch hash primitives.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <string>
#include <vector>

#include "util/crc32.hpp"
#include "util/md5.hpp"
#include "util/md5_kernels.hpp"
#include "util/rng.hpp"
#include "util/sha1.hpp"
#include "util/sha256.hpp"
#include "util/sha256_kernels.hpp"

namespace cloudsync {
namespace {

// --- MD5 (RFC 1321 test suite) -------------------------------------------

struct md5_vector {
  const char* input;
  const char* digest;
};

// Names each case by its digest. gtest's default would print the two pointers'
// bytes, and so the discovered test names would change with every load address.
void PrintTo(const md5_vector& v, std::ostream* os) { *os << v.digest; }

class Md5KnownAnswers : public ::testing::TestWithParam<md5_vector> {};

TEST_P(Md5KnownAnswers, MatchesRfc1321) {
  const auto& [input, digest] = GetParam();
  EXPECT_EQ(md5(as_bytes(input)).hex(), digest);
}

INSTANTIATE_TEST_SUITE_P(
    Rfc1321, Md5KnownAnswers,
    ::testing::Values(
        md5_vector{"", "d41d8cd98f00b204e9800998ecf8427e"},
        md5_vector{"a", "0cc175b9c0f1b6a831c399e269772661"},
        md5_vector{"abc", "900150983cd24fb0d6963f7d28e17f72"},
        md5_vector{"message digest", "f96b697d7cb7938d525a2f31aaf161d0"},
        md5_vector{"abcdefghijklmnopqrstuvwxyz",
                   "c3fcd3d76192e4007dfb496cca67e13b"},
        md5_vector{"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz01234"
                   "56789",
                   "d174ab98d277d9f5a5611c2c9f419d9f"},
        md5_vector{"1234567890123456789012345678901234567890123456789012345678"
                   "9012345678901234567890",
                   "57edf4a22be3c955ac49da2e2107b67a"}));

// --- multi-buffer MD5: the AVX-512F kernel driven directly ----------------

class Md5X16Kernel : public ::testing::Test {
 protected:
  void SetUp() override {
    if (!md5_kernels::has_avx512f()) {
      GTEST_SKIP() << "this CPU or OS lacks AVX-512F; kernel not exercised";
    }
  }

  /// Hashes `n` messages of `len` bytes at the given pointers through the
  /// kernel and checks every lane against md5().
  static void expect_lanes_match(const std::vector<const std::uint8_t*>& msgs,
                                 std::size_t len) {
    std::vector<md5_digest> out(msgs.size());
    md5_kernels::x16_avx512(msgs.data(), msgs.size(), len, out.data());
    for (std::size_t j = 0; j < msgs.size(); ++j) {
      ASSERT_EQ(out[j], md5(byte_view{msgs[j], len}))
          << "lane " << j << " of " << msgs.size() << ", " << len << " B";
    }
  }
};

TEST_F(Md5X16Kernel, EveryLaneMatchesMd5AtPaddingBoundaries) {
  rng r(21);
  for (const std::size_t len : {0, 1, 55, 56, 63, 64, 65, 119, 120, 700}) {
    // Distinct bytes per lane, each lane at its own misaligned offset.
    const byte_buffer data = random_bytes(r, kMd5MaxLanes * (len + 64) + 64);
    std::vector<const std::uint8_t*> msgs;
    for (std::size_t j = 0; j < kMd5MaxLanes; ++j) {
      msgs.push_back(data.data() + j * (len + 64) + j % 61);
    }
    expect_lanes_match(msgs, len);
  }
}

TEST_F(Md5X16Kernel, PartialBatchesAndRandomLengths) {
  rng r(22);
  for (int trial = 0; trial < 60; ++trial) {
    const auto len = static_cast<std::size_t>(
        trial < 6 ? r.uniform_range(0, 200) : r.uniform_range(0, 64 * 1024));
    const auto n = static_cast<std::size_t>(r.uniform_range(1, kMd5MaxLanes));
    const byte_buffer data = random_bytes(r, len * 2 + 64);
    std::vector<const std::uint8_t*> msgs;
    for (std::size_t j = 0; j < n; ++j) {
      // Overlapping windows of one buffer, as the delta scan passes them.
      msgs.push_back(data.data() + r.uniform(len + 64));
    }
    expect_lanes_match(msgs, len);
  }
}

TEST(Md5Many, EqualsMd5ForAnyCountThroughTheDispatchedKernel) {
  rng r(23);
  const byte_buffer data = random_bytes(r, 40 * 1024);
  for (const std::size_t n : {1, 2, 7, 8, 9, 15, 16}) {
    const std::size_t len = 1000;
    std::vector<const std::uint8_t*> msgs;
    for (std::size_t j = 0; j < n; ++j) msgs.push_back(data.data() + 977 * j);
    std::vector<md5_digest> out(n);
    md5_many(msgs.data(), n, len, out.data());
    for (std::size_t j = 0; j < n; ++j) {
      ASSERT_EQ(out[j], md5(byte_view{msgs[j], len})) << j << " of " << n;
    }
  }
}

// --- SHA-1 (FIPS 180 examples) --------------------------------------------

TEST(Sha1, KnownAnswers) {
  EXPECT_EQ(sha1(as_bytes("")).hex(),
            "da39a3ee5e6b4b0d3255bfef95601890afd80709");
  EXPECT_EQ(sha1(as_bytes("abc")).hex(),
            "a9993e364706816aba3e25717850c26c9cd0d89d");
  EXPECT_EQ(sha1(as_bytes("abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomno"
                          "pnopq"))
                .hex(),
            "84983e441c3bd26ebaae4aa1f95129e5e54670f1");
}

// --- SHA-256 (FIPS 180 examples) -------------------------------------------

struct sha256_vector {
  std::string input;
  const char* digest;
};

/// FIPS 180-4 examples, including the 896-bit and one-million-`a` messages.
std::vector<sha256_vector> fips_sha256_vectors() {
  return {
      {"", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"},
      {"abc",
       "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"},
      {"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
       "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"},
      {"abcdefghbcdefghicdefghijdefghijkefghijklfghijklmghijklmnhijklmno"
       "ijklmnopjklmnopqklmnopqrlmnopqrsmnopqrstnopqrstu",
       "cf5b16a778af8380036ce59e7b0492370b249b11e8f07a51afac45037afee9d1"},
      {std::string(1'000'000, 'a'),
       "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"},
  };
}

TEST(Sha256, KnownAnswers) {
  for (const auto& [input, digest] : fips_sha256_vectors()) {
    EXPECT_EQ(sha256(as_bytes(input)).hex(), digest) << input.size() << " B";
  }
}

/// SHA-256 of `msg` padded here (FIPS 180-4 §5.1.1) and folded by the
/// portable kernel: a check on the hasher's padding that shares none of it.
std::string reference_padded_hex(byte_view msg) {
  byte_buffer padded(msg.begin(), msg.end());
  padded.push_back(0x80);
  while (padded.size() % 64 != 56) padded.push_back(0);
  for (int shift = 56; shift >= 0; shift -= 8) {
    padded.push_back(static_cast<std::uint8_t>((msg.size() * 8) >> shift));
  }
  std::uint32_t state[8] = {0x6a09e667u, 0xbb67ae85u, 0x3c6ef372u,
                            0xa54ff53au, 0x510e527fu, 0x9b05688cu,
                            0x1f83d9abu, 0x5be0cd19u};
  sha256_kernels::portable(state, padded.data(), padded.size() / 64);
  byte_buffer digest;
  for (const std::uint32_t word : state) {
    for (int shift = 24; shift >= 0; shift -= 8) {
      digest.push_back(static_cast<std::uint8_t>(word >> shift));
    }
  }
  return to_hex(digest);
}

TEST(Sha256, EveryLengthMatchesSplitUpdatesAndReferencePadding) {
  rng r(11);
  const byte_buffer data = random_bytes(r, 1100);
  for (std::size_t n = 0; n <= data.size(); ++n) {
    const byte_view msg = byte_view{data}.first(n);
    sha256_hasher h;
    for (std::size_t off = 0; off < n;) {
      const std::size_t take = std::min<std::size_t>(
          n - off, static_cast<std::size_t>(r.uniform_range(0, 130)));
      h.update(msg.subspan(off, take));
      off += take;
    }
    const sha256_digest one_shot = sha256(msg);
    ASSERT_EQ(h.finish(), one_shot) << n << " B";
    ASSERT_EQ(one_shot.hex(), reference_padded_hex(msg)) << n << " B";
  }
}

// --- SHA-256 block kernels, each driven directly ----------------------------

struct sha256_kernel_case {
  const char* name;
  sha256_kernels::block_fn kernel;
  bool needs_sha_ni;
};

void PrintTo(const sha256_kernel_case& c, std::ostream* os) { *os << c.name; }

class Sha256Kernel : public ::testing::TestWithParam<sha256_kernel_case> {
 protected:
  void SetUp() override {
    if (GetParam().needs_sha_ni && !sha256_kernels::has_sha_ni()) {
      GTEST_SKIP() << "this CPU lacks the SHA extensions; " << GetParam().name
                   << " kernel not exercised";
    }
  }
};

TEST_P(Sha256Kernel, FipsVectors) {
  for (const auto& [input, digest] : fips_sha256_vectors()) {
    EXPECT_EQ(sha256_kernels::sha256_with(GetParam().kernel, as_bytes(input))
                  .hex(),
              digest)
        << input.size() << " B";
  }
}

INSTANTIATE_TEST_SUITE_P(
    Kernels, Sha256Kernel,
    ::testing::Values(
        sha256_kernel_case{"portable", sha256_kernels::portable, false},
        sha256_kernel_case{"sha_ni", sha256_kernels::sha_ni, true}),
    [](const auto& info) { return std::string(info.param.name); });

TEST(Sha256Kernels, ShaNiMatchesPortableOnRandomStates) {
  if (!sha256_kernels::has_sha_ni()) {
    GTEST_SKIP() << "this CPU lacks the SHA extensions; nothing to compare";
  }
  rng r(12);
  for (int trial = 0; trial < 300; ++trial) {
    std::uint32_t portable[8], sha_ni[8];
    for (std::uint32_t& word : portable) {
      word = static_cast<std::uint32_t>(r.next());
    }
    std::memcpy(sha_ni, portable, sizeof sha_ni);
    const auto blocks = static_cast<std::size_t>(r.uniform_range(1, 64));
    // Unaligned starts, as update() passes arbitrary offsets into a buffer.
    const auto skew = static_cast<std::size_t>(r.uniform(16));
    const byte_buffer data = random_bytes(r, skew + 64 * blocks);
    sha256_kernels::portable(portable, data.data() + skew, blocks);
    sha256_kernels::sha_ni(sha_ni, data.data() + skew, blocks);
    ASSERT_TRUE(std::equal(portable, portable + 8, sha_ni))
        << "trial " << trial << ", " << blocks << " blocks";
  }
}

// --- CRC-32 ------------------------------------------------------------------

TEST(Crc32, KnownAnswers) {
  EXPECT_EQ(crc32(as_bytes("")), 0u);
  EXPECT_EQ(crc32(as_bytes("123456789")), 0xcbf43926u);
  EXPECT_EQ(crc32(as_bytes("The quick brown fox jumps over the lazy dog")),
            0x414fa339u);
}

TEST(Crc32, SeedContinuation) {
  const std::string s = "hello world, this is a split crc test";
  const auto mid = s.size() / 2;
  const std::uint32_t whole = crc32(as_bytes(s));
  const std::uint32_t part1 = crc32(as_bytes(std::string_view(s).substr(0, mid)));
  const std::uint32_t split =
      crc32(as_bytes(std::string_view(s).substr(mid)), part1);
  EXPECT_EQ(whole, split);
}

// --- incremental == one-shot property across chunkings ----------------------

class IncrementalHashing : public ::testing::TestWithParam<std::size_t> {};

TEST_P(IncrementalHashing, Md5ChunkedEqualsOneShot) {
  rng r(7);
  const byte_buffer data = random_bytes(r, 10'000);
  const std::size_t chunk = GetParam();
  md5_hasher h;
  for (std::size_t off = 0; off < data.size(); off += chunk) {
    h.update(byte_view{data}.subspan(off, std::min(chunk, data.size() - off)));
  }
  EXPECT_EQ(h.finish(), md5(data));
}

TEST_P(IncrementalHashing, Sha1ChunkedEqualsOneShot) {
  rng r(8);
  const byte_buffer data = random_bytes(r, 10'000);
  const std::size_t chunk = GetParam();
  sha1_hasher h;
  for (std::size_t off = 0; off < data.size(); off += chunk) {
    h.update(byte_view{data}.subspan(off, std::min(chunk, data.size() - off)));
  }
  EXPECT_EQ(h.finish(), sha1(data));
}

TEST_P(IncrementalHashing, Sha256ChunkedEqualsOneShot) {
  rng r(9);
  const byte_buffer data = random_bytes(r, 10'000);
  const std::size_t chunk = GetParam();
  sha256_hasher h;
  for (std::size_t off = 0; off < data.size(); off += chunk) {
    h.update(byte_view{data}.subspan(off, std::min(chunk, data.size() - off)));
  }
  EXPECT_EQ(h.finish(), sha256(data));
}

INSTANTIATE_TEST_SUITE_P(ChunkSizes, IncrementalHashing,
                         ::testing::Values(1, 3, 63, 64, 65, 127, 1000, 4096));

// --- boundary lengths around the 64-byte block ------------------------------

class HashBlockBoundaries : public ::testing::TestWithParam<std::size_t> {};

TEST_P(HashBlockBoundaries, AllThreeHashesAreLengthSensitive) {
  rng r(10);
  const byte_buffer a = random_bytes(r, GetParam());
  byte_buffer b = a;
  if (!b.empty()) {
    b.back() ^= 1;
    EXPECT_NE(md5(a), md5(b));
    EXPECT_NE(sha1(a), sha1(b));
    EXPECT_NE(sha256(a), sha256(b));
  }
  // Appending a byte always changes the digest.
  byte_buffer c = a;
  c.push_back(0);
  EXPECT_NE(md5(a), md5(c));
  EXPECT_NE(sha1(a), sha1(c));
  EXPECT_NE(sha256(a), sha256(c));
}

INSTANTIATE_TEST_SUITE_P(Boundaries, HashBlockBoundaries,
                         ::testing::Values(0, 1, 55, 56, 57, 63, 64, 65, 119,
                                           120, 128, 1000));

TEST(Digest, Prefix64IsStable) {
  const md5_digest d = md5(as_bytes("abc"));
  EXPECT_EQ(d.prefix64(), 0x900150983cd24fb0ull);
}

TEST(Digest, Ordering) {
  const md5_digest a = md5(as_bytes("a"));
  const md5_digest b = md5(as_bytes("b"));
  EXPECT_NE(a, b);
  EXPECT_TRUE((a < b) != (b < a));
}

}  // namespace
}  // namespace cloudsync
