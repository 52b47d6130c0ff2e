#include "util/sha256.hpp"

#include <cstring>

#include "util/sha256_kernels.hpp"

#if (defined(__x86_64__) || defined(__i386__)) && defined(__GNUC__)
#define CLOUDSYNC_SHA256_X86 1
#include <cpuid.h>
#include <immintrin.h>
#endif

namespace cloudsync {

namespace {

// First 32 bits of the fractional parts of the cube roots of the first 64
// primes (FIPS 180-4 §4.2.2).
constexpr std::uint32_t kRound[64] = {
    0x428a2f98u, 0x71374491u, 0xb5c0fbcfu, 0xe9b5dba5u, 0x3956c25bu,
    0x59f111f1u, 0x923f82a4u, 0xab1c5ed5u, 0xd807aa98u, 0x12835b01u,
    0x243185beu, 0x550c7dc3u, 0x72be5d74u, 0x80deb1feu, 0x9bdc06a7u,
    0xc19bf174u, 0xe49b69c1u, 0xefbe4786u, 0x0fc19dc6u, 0x240ca1ccu,
    0x2de92c6fu, 0x4a7484aau, 0x5cb0a9dcu, 0x76f988dau, 0x983e5152u,
    0xa831c66du, 0xb00327c8u, 0xbf597fc7u, 0xc6e00bf3u, 0xd5a79147u,
    0x06ca6351u, 0x14292967u, 0x27b70a85u, 0x2e1b2138u, 0x4d2c6dfcu,
    0x53380d13u, 0x650a7354u, 0x766a0abbu, 0x81c2c92eu, 0x92722c85u,
    0xa2bfe8a1u, 0xa81a664bu, 0xc24b8b70u, 0xc76c51a3u, 0xd192e819u,
    0xd6990624u, 0xf40e3585u, 0x106aa070u, 0x19a4c116u, 0x1e376c08u,
    0x2748774cu, 0x34b0bcb5u, 0x391c0cb3u, 0x4ed8aa4au, 0x5b9cca4fu,
    0x682e6ff3u, 0x748f82eeu, 0x78a5636fu, 0x84c87814u, 0x8cc70208u,
    0x90befffau, 0xa4506cebu, 0xbef9a3f7u, 0xc67178f2u};

inline std::uint32_t rotr(std::uint32_t v, int s) {
  return v >> s | v << (32 - s);
}

inline std::uint32_t load_be32(const std::uint8_t* p) {
  std::uint32_t v;
  std::memcpy(&v, p, 4);
#if defined(__GNUC__) || defined(__clang__)
  return __builtin_bswap32(v);
#else
  return static_cast<std::uint32_t>(p[0]) << 24 |
         static_cast<std::uint32_t>(p[1]) << 16 |
         static_cast<std::uint32_t>(p[2]) << 8 |
         static_cast<std::uint32_t>(p[3]);
#endif
}

inline void store_be32(std::uint8_t* p, std::uint32_t v) {
  p[0] = static_cast<std::uint8_t>(v >> 24);
  p[1] = static_cast<std::uint8_t>(v >> 16);
  p[2] = static_cast<std::uint8_t>(v >> 8);
  p[3] = static_cast<std::uint8_t>(v);
}

// Fractional parts of the square roots of the first 8 primes.
constexpr std::uint32_t kInitial[8] = {0x6a09e667u, 0xbb67ae85u, 0x3c6ef372u,
                                       0xa54ff53au, 0x510e527fu, 0x9b05688cu,
                                       0x1f83d9abu, 0x5be0cd19u};

/// Pads the final `tail_len` (< 64) bytes of a `total_len`-byte message
/// (FIPS 180-4 §5.1.1: 0x80, zeros, 64-bit big-endian bit length) and folds
/// the resulting one or two blocks into `state`.
void finish_blocks(sha256_kernels::block_fn kernel, std::uint32_t state[8],
                   const std::uint8_t* tail, std::size_t tail_len,
                   std::uint64_t total_len) {
  std::uint8_t block[128] = {};
  if (tail_len > 0) std::memcpy(block, tail, tail_len);
  block[tail_len] = 0x80;
  const std::size_t blocks = tail_len < 56 ? 1 : 2;
  const std::uint64_t bit_len = total_len * 8;
  std::uint8_t* len = block + 64 * blocks - 8;
  store_be32(len, static_cast<std::uint32_t>(bit_len >> 32));
  store_be32(len + 4, static_cast<std::uint32_t>(bit_len));
  kernel(state, block, blocks);
}

sha256_digest digest_of(const std::uint32_t state[8]) {
  sha256_digest out;
  for (int i = 0; i < 8; ++i) store_be32(out.bytes.data() + 4 * i, state[i]);
  return out;
}

// Chosen on first use, not by a namespace-scope initializer, so a hash that
// runs during another translation unit's static initialization still gets a
// kernel.
sha256_kernels::block_fn dispatched_kernel() {
  static const sha256_kernels::block_fn kernel =
      sha256_kernels::has_sha_ni() ? sha256_kernels::sha_ni
                                   : sha256_kernels::portable;
  return kernel;
}

}  // namespace

namespace sha256_kernels {

// Compression rounds unrolled via register rotation, with the message
// schedule kept as a rolling 16-word ring instead of a 64-word array. Every
// operation is the same mod-2^32 arithmetic as the FIPS reference loop, only
// regrouped, so digests are bit-identical.
void portable(std::uint32_t state[8], const std::uint8_t* p,
              std::size_t blocks) {
  std::uint32_t s0 = state[0], s1 = state[1], s2 = state[2], s3 = state[3];
  std::uint32_t s4 = state[4], s5 = state[5], s6 = state[6], s7 = state[7];

  while (blocks-- > 0) {
    std::uint32_t w[16];
    for (int i = 0; i < 16; ++i) w[i] = load_be32(p + 4 * i);
    p += 64;

    std::uint32_t a = s0, b = s1, c = s2, d = s3;
    std::uint32_t e = s4, f = s5, g = s6, h = s7;

#define CLOUDSYNC_SHA256_RND(a, b, c, d, e, f, g, h, i, wi)               \
  {                                                                       \
    const std::uint32_t t1 = h + (rotr(e, 6) ^ rotr(e, 11) ^ rotr(e, 25)) + \
                             ((e & f) ^ (~e & g)) + kRound[i] + (wi);     \
    const std::uint32_t t2 = (rotr(a, 2) ^ rotr(a, 13) ^ rotr(a, 22)) +   \
                             ((a & b) ^ (a & c) ^ (b & c));               \
    d += t1;                                                              \
    h = t1 + t2;                                                          \
  }
#define CLOUDSYNC_SHA256_W(j)                                              \
  (w[(j) & 15] += (rotr(w[((j) - 15) & 15], 7) ^ rotr(w[((j) - 15) & 15], 18) ^ \
                   (w[((j) - 15) & 15] >> 3)) +                            \
                  w[((j) - 7) & 15] +                                      \
                  (rotr(w[((j) - 2) & 15], 17) ^ rotr(w[((j) - 2) & 15], 19) ^ \
                   (w[((j) - 2) & 15] >> 10)))

    for (int i = 0; i < 16; i += 8) {
      CLOUDSYNC_SHA256_RND(a, b, c, d, e, f, g, h, i + 0, w[i + 0]);
      CLOUDSYNC_SHA256_RND(h, a, b, c, d, e, f, g, i + 1, w[i + 1]);
      CLOUDSYNC_SHA256_RND(g, h, a, b, c, d, e, f, i + 2, w[i + 2]);
      CLOUDSYNC_SHA256_RND(f, g, h, a, b, c, d, e, i + 3, w[i + 3]);
      CLOUDSYNC_SHA256_RND(e, f, g, h, a, b, c, d, i + 4, w[i + 4]);
      CLOUDSYNC_SHA256_RND(d, e, f, g, h, a, b, c, i + 5, w[i + 5]);
      CLOUDSYNC_SHA256_RND(c, d, e, f, g, h, a, b, i + 6, w[i + 6]);
      CLOUDSYNC_SHA256_RND(b, c, d, e, f, g, h, a, i + 7, w[i + 7]);
    }
    for (int i = 16; i < 64; i += 8) {
      CLOUDSYNC_SHA256_RND(a, b, c, d, e, f, g, h, i + 0,
                           CLOUDSYNC_SHA256_W(i + 0));
      CLOUDSYNC_SHA256_RND(h, a, b, c, d, e, f, g, i + 1,
                           CLOUDSYNC_SHA256_W(i + 1));
      CLOUDSYNC_SHA256_RND(g, h, a, b, c, d, e, f, i + 2,
                           CLOUDSYNC_SHA256_W(i + 2));
      CLOUDSYNC_SHA256_RND(f, g, h, a, b, c, d, e, i + 3,
                           CLOUDSYNC_SHA256_W(i + 3));
      CLOUDSYNC_SHA256_RND(e, f, g, h, a, b, c, d, i + 4,
                           CLOUDSYNC_SHA256_W(i + 4));
      CLOUDSYNC_SHA256_RND(d, e, f, g, h, a, b, c, i + 5,
                           CLOUDSYNC_SHA256_W(i + 5));
      CLOUDSYNC_SHA256_RND(c, d, e, f, g, h, a, b, i + 6,
                           CLOUDSYNC_SHA256_W(i + 6));
      CLOUDSYNC_SHA256_RND(b, c, d, e, f, g, h, a, i + 7,
                           CLOUDSYNC_SHA256_W(i + 7));
    }
#undef CLOUDSYNC_SHA256_RND
#undef CLOUDSYNC_SHA256_W

    s0 += a;
    s1 += b;
    s2 += c;
    s3 += d;
    s4 += e;
    s5 += f;
    s6 += g;
    s7 += h;
  }

  state[0] = s0;
  state[1] = s1;
  state[2] = s2;
  state[3] = s3;
  state[4] = s4;
  state[5] = s5;
  state[6] = s6;
  state[7] = s7;
}

#if CLOUDSYNC_SHA256_X86

// Neither the default build nor the benchmark compiles with -march=native, so
// the SHA extensions are enabled for this function alone and reached only
// through the CPUID check in dispatched_kernel().
__attribute__((target("sha,sse4.1,ssse3"))) void sha_ni(
    std::uint32_t state[8], const std::uint8_t* p, std::size_t blocks) {
  // Reverses the bytes of each 32-bit lane: message words are big-endian.
  const __m128i bswap =
      _mm_set_epi64x(0x0c0d0e0f08090a0bll, 0x0405060700010203ll);
  // sha256rnds2 holds the state as {a, b, e, f} and {c, d, g, h}, listed
  // from the highest lane down.
  const __m128i cdab = _mm_shuffle_epi32(
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(state)), 0xb1);
  const __m128i efgh = _mm_shuffle_epi32(
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(state + 4)), 0x1b);
  __m128i abef = _mm_alignr_epi8(cdab, efgh, 8);
  __m128i cdgh = _mm_blend_epi16(efgh, cdab, 0xf0);

  while (blocks-- > 0) {
    const __m128i abef_in = abef, cdgh_in = cdgh;
    // w[g % 4] holds message words W[4g .. 4g+3] of the current group g.
    __m128i w[4];
    for (int i = 0; i < 4; ++i) {
      w[i] = _mm_shuffle_epi8(
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(p + 16 * i)),
          bswap);
    }
    p += 64;

#pragma GCC unroll 16
    for (int g = 0; g < 16; ++g) {
      __m128i& m = w[g & 3];
      if (g >= 4) {
        // W[t] = σ1(W[t-2]) + W[t-7] + σ0(W[t-15]) + W[t-16], four at once.
        const __m128i& prev = w[(g + 3) & 3];
        m = _mm_sha256msg2_epu32(
            _mm_add_epi32(_mm_sha256msg1_epu32(m, w[(g + 1) & 3]),
                          _mm_alignr_epi8(prev, w[(g + 2) & 3], 4)),
            prev);
      }
      const __m128i wk = _mm_add_epi32(
          m, _mm_loadu_si128(reinterpret_cast<const __m128i*>(kRound + 4 * g)));
      cdgh = _mm_sha256rnds2_epu32(cdgh, abef, wk);
      abef = _mm_sha256rnds2_epu32(abef, cdgh, _mm_shuffle_epi32(wk, 0x0e));
    }

    abef = _mm_add_epi32(abef, abef_in);
    cdgh = _mm_add_epi32(cdgh, cdgh_in);
  }

  const __m128i feba = _mm_shuffle_epi32(abef, 0x1b);
  const __m128i dchg = _mm_shuffle_epi32(cdgh, 0xb1);
  _mm_storeu_si128(reinterpret_cast<__m128i*>(state),
                   _mm_blend_epi16(feba, dchg, 0xf0));
  _mm_storeu_si128(reinterpret_cast<__m128i*>(state + 4),
                   _mm_alignr_epi8(dchg, feba, 8));
}

bool has_sha_ni() {
  unsigned eax = 0, ebx = 0, ecx = 0, edx = 0;
  if (!__get_cpuid(1, &eax, &ebx, &ecx, &edx)) return false;
  const bool shuffles = (ecx & bit_SSSE3) && (ecx & bit_SSE4_1);
  if (!__get_cpuid_count(7, 0, &eax, &ebx, &ecx, &edx)) return false;
  return shuffles && (ebx & bit_SHA);
}

#else

void sha_ni(std::uint32_t state[8], const std::uint8_t* p,
            std::size_t blocks) {
  portable(state, p, blocks);
}

bool has_sha_ni() { return false; }

#endif

sha256_digest sha256_with(block_fn kernel, byte_view data) {
  std::uint32_t state[8];
  std::memcpy(state, kInitial, sizeof state);
  const std::size_t whole = data.size() / 64;
  kernel(state, data.data(), whole);
  finish_blocks(kernel, state, data.data() + whole * 64,
                data.size() - whole * 64, data.size());
  return digest_of(state);
}

}  // namespace sha256_kernels

sha256_hasher::sha256_hasher() {
  std::memcpy(state_, kInitial, sizeof state_);
}

void sha256_hasher::process_blocks(const std::uint8_t* p, std::size_t blocks) {
  dispatched_kernel()(state_, p, blocks);
}

sha256_hasher& sha256_hasher::update(byte_view data) {
  total_len_ += data.size();
  std::size_t off = 0;

  if (buffer_len_ > 0) {
    const std::size_t take = std::min(data.size(), 64 - buffer_len_);
    std::memcpy(buffer_ + buffer_len_, data.data(), take);
    buffer_len_ += take;
    off = take;
    if (buffer_len_ == 64) {
      process_blocks(buffer_, 1);
      buffer_len_ = 0;
    }
  }

  if (const std::size_t whole = (data.size() - off) / 64; whole > 0) {
    process_blocks(data.data() + off, whole);
    off += whole * 64;
  }

  if (off < data.size()) {
    std::memcpy(buffer_, data.data() + off, data.size() - off);
    buffer_len_ = data.size() - off;
  }
  return *this;
}

sha256_digest sha256_hasher::finish() {
  finish_blocks(dispatched_kernel(), state_, buffer_, buffer_len_, total_len_);
  return digest_of(state_);
}

sha256_digest sha256(byte_view data) {
  return sha256_hasher{}.update(data).finish();
}

}  // namespace cloudsync
