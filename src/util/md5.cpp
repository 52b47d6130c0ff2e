#include "util/md5.hpp"

#include <algorithm>
#include <cstring>

#include "util/md5_kernels.hpp"

#if (defined(__x86_64__) || defined(__i386__)) && defined(__GNUC__)
#define CLOUDSYNC_MD5_X86 1
#include <cpuid.h>
#include <immintrin.h>
#endif

namespace cloudsync {

namespace {

constexpr std::uint32_t kInit[4] = {0x67452301u, 0xefcdab89u, 0x98badcfeu,
                                    0x10325476u};

// K[i] = floor(2^32 * |sin(i + 1)|), precomputed per RFC 1321.
constexpr std::uint32_t kSine[64] = {
    0xd76aa478u, 0xe8c7b756u, 0x242070dbu, 0xc1bdceeeu, 0xf57c0fafu,
    0x4787c62au, 0xa8304613u, 0xfd469501u, 0x698098d8u, 0x8b44f7afu,
    0xffff5bb1u, 0x895cd7beu, 0x6b901122u, 0xfd987193u, 0xa679438eu,
    0x49b40821u, 0xf61e2562u, 0xc040b340u, 0x265e5a51u, 0xe9b6c7aau,
    0xd62f105du, 0x02441453u, 0xd8a1e681u, 0xe7d3fbc8u, 0x21e1cde6u,
    0xc33707d6u, 0xf4d50d87u, 0x455a14edu, 0xa9e3e905u, 0xfcefa3f8u,
    0x676f02d9u, 0x8d2a4c8au, 0xfffa3942u, 0x8771f681u, 0x6d9d6122u,
    0xfde5380cu, 0xa4beea44u, 0x4bdecfa9u, 0xf6bb4b60u, 0xbebfbc70u,
    0x289b7ec6u, 0xeaa127fau, 0xd4ef3085u, 0x04881d05u, 0xd9d4d039u,
    0xe6db99e5u, 0x1fa27cf8u, 0xc4ac5665u, 0xf4292244u, 0x432aff97u,
    0xab9423a7u, 0xfc93a039u, 0x655b59c3u, 0x8f0ccc92u, 0xffeff47du,
    0x85845dd1u, 0x6fa87e4fu, 0xfe2ce6e0u, 0xa3014314u, 0x4e0811a1u,
    0xf7537e82u, 0xbd3af235u, 0x2ad7d2bbu, 0xeb86d391u};

inline std::uint32_t rotl(std::uint32_t v, int s) {
  return v << s | v >> (32 - s);
}

inline std::uint32_t load_le32(const std::uint8_t* p) {
#if !defined(__BYTE_ORDER__) || __BYTE_ORDER__ == __ORDER_LITTLE_ENDIAN__
  std::uint32_t v;
  std::memcpy(&v, p, 4);
  return v;
#else
  return static_cast<std::uint32_t>(p[0]) |
         static_cast<std::uint32_t>(p[1]) << 8 |
         static_cast<std::uint32_t>(p[2]) << 16 |
         static_cast<std::uint32_t>(p[3]) << 24;
#endif
}

inline void store_le32(std::uint8_t* p, std::uint32_t v) {
  p[0] = static_cast<std::uint8_t>(v);
  p[1] = static_cast<std::uint8_t>(v >> 8);
  p[2] = static_cast<std::uint8_t>(v >> 16);
  p[3] = static_cast<std::uint8_t>(v >> 24);
}

/// Writes the padded end of a `len`-byte message whose last len % 64 bytes
/// start at `tail` (RFC 1321 §3.1-3.2: 0x80, zeros, 64-bit little-endian bit
/// length) into `out` and returns its block count, 1 or 2.
std::size_t pad_tail(const std::uint8_t* tail, std::uint64_t len,
                     std::uint8_t out[128]) {
  const auto rem = static_cast<std::size_t>(len % 64);
  const std::size_t blocks = rem < 56 ? 1 : 2;
  std::memset(out, 0, 64 * blocks);
  if (rem > 0) std::memcpy(out, tail, rem);
  out[rem] = 0x80;
  const std::uint64_t bit_len = len * 8;
  store_le32(out + 64 * blocks - 8, static_cast<std::uint32_t>(bit_len));
  store_le32(out + 64 * blocks - 4, static_cast<std::uint32_t>(bit_len >> 32));
  return blocks;
}

/// The lanes of a multi-buffer kernel call: the n real messages, then
/// message 0 again in the lanes nobody reads, so every lane loads valid
/// bytes; and each real lane's padded tail.
struct lane_set {
  const std::uint8_t* msg[kMd5MaxLanes];
  const std::uint8_t* tail[kMd5MaxLanes];
  std::size_t whole_blocks = 0;
  std::size_t tail_blocks = 0;
  alignas(64) std::uint8_t tail_bytes[kMd5MaxLanes][128];

  lane_set(const std::uint8_t* const msgs[], std::size_t n, std::size_t len)
      : whole_blocks(len / 64) {
    for (std::size_t j = 0; j < kMd5MaxLanes; ++j) {
      msg[j] = msgs[j < n ? j : 0];
      if (j < n) {
        tail_blocks = pad_tail(msg[j] + 64 * whole_blocks, len, tail_bytes[j]);
      }
      tail[j] = tail_bytes[j < n ? j : 0];
    }
  }

  /// Stores the lanes' final (a, b, c, d) words, given as four arrays of
  /// one word per lane, as the first n digests.
  void digests(const std::uint32_t words[4][kMd5MaxLanes], std::size_t n,
               md5_digest out[]) const {
    for (std::size_t j = 0; j < n; ++j) {
      for (int i = 0; i < 4; ++i) {
        store_le32(out[j].bytes.data() + 4 * i, words[i][j]);
      }
    }
  }
};

/// The 64 steps of one block (RFC 1321 §3.4) as four 16-step groups:
/// STEP(fn, a, b, c, d, g, i, s) is a = b + rotl(a + fn(b, c, d) + K[i] +
/// M[g], s), with the message word index g and the shift s literals once the
/// loops unroll, as the vector rotates need.
#define CLOUDSYNC_MD5_ROUNDS(STEP, F, G, H, I)                              \
  _Pragma("GCC unroll 4") for (int i = 0; i < 16; i += 4) {                \
    STEP(F, a, b, c, d, i + 0, i + 0, 7);                                   \
    STEP(F, d, a, b, c, i + 1, i + 1, 12);                                  \
    STEP(F, c, d, a, b, i + 2, i + 2, 17);                                  \
    STEP(F, b, c, d, a, i + 3, i + 3, 22);                                  \
  }                                                                         \
  _Pragma("GCC unroll 4") for (int i = 16; i < 32; i += 4) {               \
    STEP(G, a, b, c, d, (5 * (i + 0) + 1) & 15, i + 0, 5);                  \
    STEP(G, d, a, b, c, (5 * (i + 1) + 1) & 15, i + 1, 9);                  \
    STEP(G, c, d, a, b, (5 * (i + 2) + 1) & 15, i + 2, 14);                 \
    STEP(G, b, c, d, a, (5 * (i + 3) + 1) & 15, i + 3, 20);                 \
  }                                                                         \
  _Pragma("GCC unroll 4") for (int i = 32; i < 48; i += 4) {               \
    STEP(H, a, b, c, d, (3 * (i + 0) + 5) & 15, i + 0, 4);                  \
    STEP(H, d, a, b, c, (3 * (i + 1) + 5) & 15, i + 1, 11);                 \
    STEP(H, c, d, a, b, (3 * (i + 2) + 5) & 15, i + 2, 16);                 \
    STEP(H, b, c, d, a, (3 * (i + 3) + 5) & 15, i + 3, 23);                 \
  }                                                                         \
  _Pragma("GCC unroll 4") for (int i = 48; i < 64; i += 4) {               \
    STEP(I, a, b, c, d, (7 * (i + 0)) & 15, i + 0, 6);                      \
    STEP(I, d, a, b, c, (7 * (i + 1)) & 15, i + 1, 10);                     \
    STEP(I, c, d, a, b, (7 * (i + 2)) & 15, i + 2, 15);                     \
    STEP(I, b, c, d, a, (7 * (i + 3)) & 15, i + 3, 21);                     \
  }

void scalar_many(const std::uint8_t* const msgs[], std::size_t n,
                 std::size_t len, md5_digest out[]) {
  for (std::size_t j = 0; j < n; ++j) {
    out[j] = md5_hasher{}.update(byte_view{msgs[j], len}).finish();
  }
}

}  // namespace

md5_hasher::md5_hasher() { std::memcpy(state_, kInit, sizeof(state_)); }

// RFC 1321's FF/GG/HH/II steps through the round schedule the vector kernels
// share, on one message in scalar registers.
void md5_hasher::process_block(const std::uint8_t* block) {
  std::uint32_t m[16];
  for (int i = 0; i < 16; ++i) m[i] = load_le32(block + 4 * i);

  std::uint32_t a = state_[0], b = state_[1], c = state_[2], d = state_[3];

#define CLOUDSYNC_MD5_F(b, c, d) ((b & c) | (~b & d))
#define CLOUDSYNC_MD5_G(b, c, d) ((d & b) | (~d & c))
#define CLOUDSYNC_MD5_H(b, c, d) (b ^ c ^ d)
#define CLOUDSYNC_MD5_I(b, c, d) (c ^ (b | ~d))
#define CLOUDSYNC_MD5_STEP(FN, a, b, c, d, g, i, s) \
  a = b + rotl(a + FN(b, c, d) + kSine[i] + m[g], s)
  CLOUDSYNC_MD5_ROUNDS(CLOUDSYNC_MD5_STEP, CLOUDSYNC_MD5_F, CLOUDSYNC_MD5_G,
                       CLOUDSYNC_MD5_H, CLOUDSYNC_MD5_I)
#undef CLOUDSYNC_MD5_STEP
#undef CLOUDSYNC_MD5_F
#undef CLOUDSYNC_MD5_G
#undef CLOUDSYNC_MD5_H
#undef CLOUDSYNC_MD5_I

  state_[0] += a;
  state_[1] += b;
  state_[2] += c;
  state_[3] += d;
}

md5_hasher& md5_hasher::update(byte_view data) {
  total_len_ += data.size();
  std::size_t off = 0;

  if (buffer_len_ > 0) {
    const std::size_t take = std::min(data.size(), 64 - buffer_len_);
    std::memcpy(buffer_ + buffer_len_, data.data(), take);
    buffer_len_ += take;
    off = take;
    if (buffer_len_ == 64) {
      process_block(buffer_);
      buffer_len_ = 0;
    }
  }

  while (off + 64 <= data.size()) {
    process_block(data.data() + off);
    off += 64;
  }

  if (off < data.size()) {
    std::memcpy(buffer_, data.data() + off, data.size() - off);
    buffer_len_ = data.size() - off;
  }
  return *this;
}

md5_digest md5_hasher::finish() {
  std::uint8_t tail[128];
  const std::size_t blocks = pad_tail(buffer_, total_len_, tail);
  for (std::size_t i = 0; i < blocks; ++i) process_block(tail + 64 * i);

  md5_digest out;
  for (int i = 0; i < 4; ++i) store_le32(out.bytes.data() + 4 * i, state_[i]);
  return out;
}

md5_digest md5(byte_view data) { return md5_hasher{}.update(data).finish(); }

namespace md5_kernels {

#if CLOUDSYNC_MD5_X86

namespace {

// Neither the default build nor the benchmark compiles with -march=native,
// so the kernel's functions enable AVX-512F for themselves alone and are
// reached only through the CPUID check in dispatched().

// GCC 12's AVX-512 intrinsics pass a self-initialized "undefined" vector as
// the unused merge source of the unmasked forms, which -Wmaybe-uninitialized
// reports wherever they inline (GCC bug 105593).
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"

/// Transposes 16 rows of 16 words: rows[j] holds word 0..15 of message j
/// on entry and word j of messages 0..15 on return.
__attribute__((target("avx512f"))) void transpose16(__m512i rows[16]) {
  __m512i t[16];
  for (int j = 0; j < 16; j += 2) {
    t[j] = _mm512_unpacklo_epi32(rows[j], rows[j + 1]);
    t[j + 1] = _mm512_unpackhi_epi32(rows[j], rows[j + 1]);
  }
  // u[4q + k]'s 128-bit lane l holds word 4l + k of messages 4q .. 4q + 3.
  __m512i u[16];
  for (int q = 0; q < 16; q += 4) {
    u[q + 0] = _mm512_unpacklo_epi64(t[q + 0], t[q + 2]);
    u[q + 1] = _mm512_unpackhi_epi64(t[q + 0], t[q + 2]);
    u[q + 2] = _mm512_unpacklo_epi64(t[q + 1], t[q + 3]);
    u[q + 3] = _mm512_unpackhi_epi64(t[q + 1], t[q + 3]);
  }
  for (int k = 0; k < 4; ++k) {
    const __m512i lo01 = _mm512_shuffle_i32x4(u[k], u[4 + k], 0x44);
    const __m512i hi01 = _mm512_shuffle_i32x4(u[k], u[4 + k], 0xee);
    const __m512i lo23 = _mm512_shuffle_i32x4(u[8 + k], u[12 + k], 0x44);
    const __m512i hi23 = _mm512_shuffle_i32x4(u[8 + k], u[12 + k], 0xee);
    rows[k] = _mm512_shuffle_i32x4(lo01, lo23, 0x88);
    rows[4 + k] = _mm512_shuffle_i32x4(lo01, lo23, 0xdd);
    rows[8 + k] = _mm512_shuffle_i32x4(hi01, hi23, 0x88);
    rows[12 + k] = _mm512_shuffle_i32x4(hi01, hi23, 0xdd);
  }
}

// F, G, H and I as one vpternlogd each, named by their truth tables.
#define CLOUDSYNC_MD5_X16_F(b, c, d) _mm512_ternarylogic_epi32(b, c, d, 0xca)
#define CLOUDSYNC_MD5_X16_G(b, c, d) _mm512_ternarylogic_epi32(b, c, d, 0xe4)
#define CLOUDSYNC_MD5_X16_H(b, c, d) _mm512_ternarylogic_epi32(b, c, d, 0x96)
#define CLOUDSYNC_MD5_X16_I(b, c, d) _mm512_ternarylogic_epi32(b, c, d, 0x39)
#define CLOUDSYNC_MD5_X16_STEP(FN, a, b, c, d, g, i, s)                     \
  a = _mm512_add_epi32(                                                     \
      b, _mm512_rol_epi32(                                                  \
             _mm512_add_epi32(                                              \
                 _mm512_add_epi32(                                          \
                     a, _mm512_add_epi32(                                   \
                            m[g], _mm512_set1_epi32(                        \
                                      static_cast<int>(kSine[i])))),        \
                 FN(b, c, d)),                                              \
             s))

/// Folds `blocks` 64-byte blocks of each of 16 messages, starting at p[j],
/// into the lanes of (a, b, c, d) = state[0..3].
__attribute__((target("avx512f"))) void x16_blocks(
    __m512i state[4], const std::uint8_t* const p[16], std::size_t blocks) {
  __m512i a = state[0], b = state[1], c = state[2], d = state[3];
  for (std::size_t off = 0; off < 64 * blocks; off += 64) {
    __m512i m[16];
    for (int j = 0; j < 16; ++j) m[j] = _mm512_loadu_si512(p[j] + off);
    transpose16(m);
    const __m512i a0 = a, b0 = b, c0 = c, d0 = d;
    CLOUDSYNC_MD5_ROUNDS(CLOUDSYNC_MD5_X16_STEP, CLOUDSYNC_MD5_X16_F,
                         CLOUDSYNC_MD5_X16_G, CLOUDSYNC_MD5_X16_H,
                         CLOUDSYNC_MD5_X16_I)
    a = _mm512_add_epi32(a, a0);
    b = _mm512_add_epi32(b, b0);
    c = _mm512_add_epi32(c, c0);
    d = _mm512_add_epi32(d, d0);
  }
  state[0] = a;
  state[1] = b;
  state[2] = c;
  state[3] = d;
}

#undef CLOUDSYNC_MD5_X16_F
#undef CLOUDSYNC_MD5_X16_G
#undef CLOUDSYNC_MD5_X16_H
#undef CLOUDSYNC_MD5_X16_I
#undef CLOUDSYNC_MD5_X16_STEP

#pragma GCC diagnostic pop

/// XCR0 bits `mask` set: the operating system saves that register state.
bool os_saves(std::uint64_t mask) {
  unsigned eax = 0, ebx = 0, ecx = 0, edx = 0;
  if (!__get_cpuid(1, &eax, &ebx, &ecx, &edx) || !(ecx & bit_OSXSAVE)) {
    return false;
  }
  unsigned lo = 0, hi = 0;
  __asm__ volatile("xgetbv" : "=a"(lo), "=d"(hi) : "c"(0));
  return ((static_cast<std::uint64_t>(hi) << 32 | lo) & mask) == mask;
}

bool leaf7_ebx(unsigned bit) {
  unsigned eax = 0, ebx = 0, ecx = 0, edx = 0;
  return __get_cpuid_count(7, 0, &eax, &ebx, &ecx, &edx) && (ebx & bit);
}

}  // namespace

__attribute__((target("avx512f"))) void x16_avx512(
    const std::uint8_t* const msgs[], std::size_t n, std::size_t len,
    md5_digest out[]) {
  const lane_set lanes(msgs, n, len);
  __m512i state[4];
  for (int i = 0; i < 4; ++i) {
    state[i] = _mm512_set1_epi32(static_cast<int>(kInit[i]));
  }
  x16_blocks(state, lanes.msg, lanes.whole_blocks);
  x16_blocks(state, lanes.tail, lanes.tail_blocks);
  alignas(64) std::uint32_t words[4][16];
  for (int i = 0; i < 4; ++i) _mm512_store_si512(words[i], state[i]);
  lanes.digests(words, n, out);
}

// XCR0 bit 1 is the XMM state, bit 2 the YMM state, bits 5-7 the opmask
// and the two halves of the ZMM state.
bool has_avx512f() { return os_saves(0xe6) && leaf7_ebx(bit_AVX512F); }

#else

void x16_avx512(const std::uint8_t* const msgs[], std::size_t n,
                std::size_t len, md5_digest out[]) {
  scalar_many(msgs, n, len, out);
}

bool has_avx512f() { return false; }

#endif

namespace {

using many_fn = void (*)(const std::uint8_t* const msgs[], std::size_t n,
                         std::size_t len, md5_digest out[]);

// Chosen on first use, as sha256's kernel is, so a hash that runs during
// another translation unit's static initialization still gets a kernel.
many_fn dispatched() {
  static const many_fn chosen = has_avx512f() ? x16_avx512 : scalar_many;
  return chosen;
}

}  // namespace

const char* dispatched_name() {
  return dispatched() == scalar_many ? "scalar" : "avx512f";
}

}  // namespace md5_kernels

void md5_many(const std::uint8_t* const msgs[], std::size_t n,
              std::size_t len, md5_digest out[]) {
  md5_kernels::dispatched()(msgs, n, len, out);
}

#undef CLOUDSYNC_MD5_ROUNDS

}  // namespace cloudsync
