// Before/after harness for the byte-kernel layer: times every content
// kernel (hashing, chunking, checksums, compression estimate) against an
// embedded copy of the pre-optimization scalar implementation, checks the
// outputs are bit-identical, and measures what the flat dedup shard buys
// over a node-based map. End-to-end replay throughput is perfbench's to
// measure.
//
// SHA-256 gets two rows: `sha256` is the kernel the program dispatches to on
// this host, `sha256_portable` is the scalar kernel driven directly, so both
// stay checked whichever one CPUID picks. The multi-buffer MD5 kernel gets
// the row `md5_x16` (AVX-512F), driven directly over the corpus cut into
// 10 KiB rsync blocks; on a host without AVX-512F the row is skipped and
// says so.
//
// Writes BENCH_kernels.json (or argv[1]). Exit status is the identity
// verdict: any kernel or index divergence fails the run (CI gates on it);
// throughput numbers are recorded but never gate, since they depend on the
// host.
#include <array>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <set>
#include <sstream>
#include <thread>
#include <unordered_map>

#include "bench_util.hpp"
#include "pipeline/byte_pipeline.hpp"
#include "util/adler32.hpp"
#include "util/crc32.hpp"
#include "util/md5_kernels.hpp"
#include "util/sha256_kernels.hpp"
#include "util/string_key.hpp"

using namespace cloudsync;
using namespace cloudsync::bench;

namespace {

// ---------------------------------------------------------------------------
// Reference kernels: the scalar implementations this PR replaced, kept here
// verbatim-in-shape so the "before" column stays measurable on any host.
// ---------------------------------------------------------------------------
namespace refk {

inline std::uint32_t rotr(std::uint32_t v, int s) {
  return v >> s | v << (32 - s);
}
inline std::uint32_t rotl(std::uint32_t v, int s) {
  return v << s | v >> (32 - s);
}
inline std::uint32_t load_be32(const std::uint8_t* p) {
  return static_cast<std::uint32_t>(p[0]) << 24 |
         static_cast<std::uint32_t>(p[1]) << 16 |
         static_cast<std::uint32_t>(p[2]) << 8 |
         static_cast<std::uint32_t>(p[3]);
}
inline std::uint32_t load_le32(const std::uint8_t* p) {
  return static_cast<std::uint32_t>(p[0]) |
         static_cast<std::uint32_t>(p[1]) << 8 |
         static_cast<std::uint32_t>(p[2]) << 16 |
         static_cast<std::uint32_t>(p[3]) << 24;
}
inline void store_be32(std::uint8_t* p, std::uint32_t v) {
  p[0] = static_cast<std::uint8_t>(v >> 24);
  p[1] = static_cast<std::uint8_t>(v >> 16);
  p[2] = static_cast<std::uint8_t>(v >> 8);
  p[3] = static_cast<std::uint8_t>(v);
}
inline void store_le32(std::uint8_t* p, std::uint32_t v) {
  p[0] = static_cast<std::uint8_t>(v);
  p[1] = static_cast<std::uint8_t>(v >> 8);
  p[2] = static_cast<std::uint8_t>(v >> 16);
  p[3] = static_cast<std::uint8_t>(v >> 24);
}

/// Final one-or-two padded blocks of a Merkle–Damgård hash (0x80, zeros,
/// 64-bit bit length; `be` selects the length byte order).
template <typename ProcessBlock>
void md_pad(const std::uint8_t* tail, std::size_t tail_len,
            std::uint64_t total_len, bool be, ProcessBlock&& process) {
  std::uint8_t block[128] = {};
  std::memcpy(block, tail, tail_len);
  block[tail_len] = 0x80;
  const std::size_t blocks = tail_len < 56 ? 1 : 2;
  const std::uint64_t bit_len = total_len * 8;
  std::uint8_t* lenp = block + blocks * 64 - 8;
  if (be) {
    store_be32(lenp, static_cast<std::uint32_t>(bit_len >> 32));
    store_be32(lenp + 4, static_cast<std::uint32_t>(bit_len));
  } else {
    store_le32(lenp, static_cast<std::uint32_t>(bit_len));
    store_le32(lenp + 4, static_cast<std::uint32_t>(bit_len >> 32));
  }
  for (std::size_t b = 0; b < blocks; ++b) process(block + b * 64);
}

constexpr std::uint32_t kSha256Round[64] = {
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

sha256_digest sha256(byte_view data) {
  std::uint32_t st[8] = {0x6a09e667u, 0xbb67ae85u, 0x3c6ef372u, 0xa54ff53au,
                         0x510e527fu, 0x9b05688cu, 0x1f83d9abu, 0x5be0cd19u};
  const auto process = [&st](const std::uint8_t* block) {
    std::uint32_t w[64];
    for (int i = 0; i < 16; ++i) w[i] = load_be32(block + 4 * i);
    for (int i = 16; i < 64; ++i) {
      const std::uint32_t s0 =
          rotr(w[i - 15], 7) ^ rotr(w[i - 15], 18) ^ (w[i - 15] >> 3);
      const std::uint32_t s1 =
          rotr(w[i - 2], 17) ^ rotr(w[i - 2], 19) ^ (w[i - 2] >> 10);
      w[i] = w[i - 16] + s0 + w[i - 7] + s1;
    }
    std::uint32_t a = st[0], b = st[1], c = st[2], d = st[3];
    std::uint32_t e = st[4], f = st[5], g = st[6], h = st[7];
    for (int i = 0; i < 64; ++i) {
      const std::uint32_t s1 = rotr(e, 6) ^ rotr(e, 11) ^ rotr(e, 25);
      const std::uint32_t ch = (e & f) ^ (~e & g);
      const std::uint32_t t1 = h + s1 + ch + kSha256Round[i] + w[i];
      const std::uint32_t s0 = rotr(a, 2) ^ rotr(a, 13) ^ rotr(a, 22);
      const std::uint32_t maj = (a & b) ^ (a & c) ^ (b & c);
      h = g; g = f; f = e; e = d + t1;
      d = c; c = b; b = a; a = t1 + s0 + maj;
    }
    st[0] += a; st[1] += b; st[2] += c; st[3] += d;
    st[4] += e; st[5] += f; st[6] += g; st[7] += h;
  };
  std::size_t off = 0;
  while (off + 64 <= data.size()) {
    process(data.data() + off);
    off += 64;
  }
  md_pad(data.data() + off, data.size() - off, data.size(), /*be=*/true,
         process);
  sha256_digest out;
  for (int i = 0; i < 8; ++i) store_be32(out.bytes.data() + 4 * i, st[i]);
  return out;
}

constexpr int kMd5Shift[64] = {
    7, 12, 17, 22, 7, 12, 17, 22, 7, 12, 17, 22, 7, 12, 17, 22,
    5, 9,  14, 20, 5, 9,  14, 20, 5, 9,  14, 20, 5, 9,  14, 20,
    4, 11, 16, 23, 4, 11, 16, 23, 4, 11, 16, 23, 4, 11, 16, 23,
    6, 10, 15, 21, 6, 10, 15, 21, 6, 10, 15, 21, 6, 10, 15, 21};
constexpr std::uint32_t kMd5Sine[64] = {
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

md5_digest md5(byte_view data) {
  std::uint32_t st[4] = {0x67452301u, 0xefcdab89u, 0x98badcfeu, 0x10325476u};
  const auto process = [&st](const std::uint8_t* block) {
    std::uint32_t m[16];
    for (int i = 0; i < 16; ++i) m[i] = load_le32(block + 4 * i);
    std::uint32_t a = st[0], b = st[1], c = st[2], d = st[3];
    for (int i = 0; i < 64; ++i) {
      std::uint32_t f;
      int g;
      if (i < 16) {
        f = (b & c) | (~b & d);
        g = i;
      } else if (i < 32) {
        f = (d & b) | (~d & c);
        g = (5 * i + 1) & 15;
      } else if (i < 48) {
        f = b ^ c ^ d;
        g = (3 * i + 5) & 15;
      } else {
        f = c ^ (b | ~d);
        g = (7 * i) & 15;
      }
      const std::uint32_t tmp = d;
      d = c;
      c = b;
      b = b + rotl(a + f + kMd5Sine[i] + m[g], kMd5Shift[i]);
      a = tmp;
    }
    st[0] += a; st[1] += b; st[2] += c; st[3] += d;
  };
  std::size_t off = 0;
  while (off + 64 <= data.size()) {
    process(data.data() + off);
    off += 64;
  }
  md_pad(data.data() + off, data.size() - off, data.size(), /*be=*/false,
         process);
  md5_digest out;
  for (int i = 0; i < 4; ++i) store_le32(out.bytes.data() + 4 * i, st[i]);
  return out;
}

sha1_digest sha1(byte_view data) {
  std::uint32_t st[5] = {0x67452301u, 0xefcdab89u, 0x98badcfeu, 0x10325476u,
                         0xc3d2e1f0u};
  const auto process = [&st](const std::uint8_t* block) {
    std::uint32_t w[80];
    for (int i = 0; i < 16; ++i) w[i] = load_be32(block + 4 * i);
    for (int i = 16; i < 80; ++i) {
      w[i] = rotl(w[i - 3] ^ w[i - 8] ^ w[i - 14] ^ w[i - 16], 1);
    }
    std::uint32_t a = st[0], b = st[1], c = st[2], d = st[3], e = st[4];
    for (int i = 0; i < 80; ++i) {
      std::uint32_t f, k;
      if (i < 20) {
        f = (b & c) | (~b & d);
        k = 0x5a827999u;
      } else if (i < 40) {
        f = b ^ c ^ d;
        k = 0x6ed9eba1u;
      } else if (i < 60) {
        f = (b & c) | (b & d) | (c & d);
        k = 0x8f1bbcdcu;
      } else {
        f = b ^ c ^ d;
        k = 0xca62c1d6u;
      }
      const std::uint32_t tmp = rotl(a, 5) + f + e + k + w[i];
      e = d;
      d = c;
      c = rotl(b, 30);
      b = a;
      a = tmp;
    }
    st[0] += a; st[1] += b; st[2] += c; st[3] += d; st[4] += e;
  };
  std::size_t off = 0;
  while (off + 64 <= data.size()) {
    process(data.data() + off);
    off += 64;
  }
  md_pad(data.data() + off, data.size() - off, data.size(), /*be=*/true,
         process);
  sha1_digest out;
  for (int i = 0; i < 5; ++i) store_be32(out.bytes.data() + 4 * i, st[i]);
  return out;
}

std::uint32_t crc32(byte_view data, std::uint32_t seed = 0) {
  static const auto table = [] {
    std::array<std::uint32_t, 256> t{};
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t c = i;
      for (int k = 0; k < 8; ++k) c = (c & 1) ? 0xedb88320u ^ (c >> 1) : c >> 1;
      t[i] = c;
    }
    return t;
  }();
  std::uint32_t c = seed ^ 0xffffffffu;
  for (std::uint8_t b : data) c = table[(c ^ b) & 0xffu] ^ (c >> 8);
  return c ^ 0xffffffffu;
}

std::uint32_t weak_checksum(byte_view block) {
  std::uint32_t a = 0, b = 0;
  for (const std::uint8_t byte : block) {
    a += byte;
    b += a;
  }
  return (b << 16) | (a & 0xffffu);
}

std::vector<chunk_ref> content_defined_chunks(byte_view data,
                                              cdc_params params) {
  const std::uint64_t* gear = gear_table();
  const std::uint64_t mask = params.avg_size - 1;
  std::vector<chunk_ref> out;
  std::size_t start = 0;
  while (start < data.size()) {
    const std::size_t remain = data.size() - start;
    if (remain <= params.min_size) {
      out.push_back({start, remain});
      break;
    }
    const std::size_t limit = std::min(remain, params.max_size);
    std::uint64_t h = 0;
    std::size_t len = 0;
    for (len = 0; len < limit; ++len) {
      h = (h << 1) + gear[data[start + len]];
      if (len + 1 >= params.min_size && (h & mask) == 0) {
        ++len;
        break;
      }
    }
    out.push_back({start, len});
    start += len;
  }
  return out;
}

}  // namespace refk

// ---------------------------------------------------------------------------
// Measurement scaffolding
// ---------------------------------------------------------------------------

/// Every timed loop folds its results in here so the optimizer cannot
/// discard a kernel call whose value is otherwise unused.
volatile std::uint64_t g_sink = 0;

bool chunks_equal(const std::vector<chunk_ref>& a,
                  const std::vector<chunk_ref>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].offset != b[i].offset || a[i].size != b[i].size) return false;
  }
  return true;
}

double now_ms() {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Run `fn` repeatedly until it has consumed ≥ `min_ms` of wall clock, then
/// return MB/s over the bytes it claims to process per call.
template <typename Fn>
double throughput_mb_s(std::uint64_t bytes_per_call, double min_ms, Fn&& fn) {
  // Warm up caches/allocations once, outside the timed region.
  fn();
  int calls = 0;
  const double t0 = now_ms();
  double elapsed = 0;
  do {
    fn();
    ++calls;
    elapsed = now_ms() - t0;
  } while (elapsed < min_ms);
  const double bytes = static_cast<double>(bytes_per_call) * calls;
  return bytes / (elapsed * 1e3);  // bytes/ms → MB/s (MB = 1e6 B)
}

struct kernel_row {
  const char* name;
  double ref_mb_s = 0;
  double opt_mb_s = 0;
  bool identical = true;
  bool identity_checked = true;  ///< estimator changes are rate-only rows
  bool in_aggregate = true;  ///< false where another row times the same work
  double speedup() const { return ref_mb_s > 0 ? opt_mb_s / ref_mb_s : 0; }
};

/// The /proc/cpuinfo flags (empty where that file does not exist).
std::set<std::string> cpu_flags() {
  std::ifstream in("/proc/cpuinfo");
  for (std::string line; std::getline(in, line);) {
    if (line.rfind("flags", 0) != 0) continue;
    std::istringstream words(line.substr(line.find(':') + 1));
    std::set<std::string> flags;
    for (std::string f; words >> f;) flags.insert(f);
    return flags;
  }
  return {};
}

/// Mixed-compressibility corpus: binary-random, mildly compressible, and
/// text-like buffers, the three content classes the trace generator emits.
std::vector<byte_buffer> make_corpus() {
  std::vector<byte_buffer> corpus;
  rng r(0x6b65726e5f726570ull);
  corpus.push_back(synthetic_payload(r, 4 * MiB, 1.0));
  corpus.push_back(synthetic_payload(r, 4 * MiB, 2.0));
  corpus.push_back(synthetic_payload(r, 2 * MiB, 4.0));
  corpus.push_back(synthetic_payload(r, 512 * KiB + 37, 1.5));  // odd tail
  return corpus;
}

}  // namespace

int main(int argc, char** argv) {
  print_section("Kernel report: scalar reference vs optimized byte kernels");

  const std::vector<byte_buffer> corpus = make_corpus();
  std::uint64_t corpus_bytes = 0;
  for (const byte_buffer& b : corpus) corpus_bytes += b.size();
  const cdc_params cdc{};
  constexpr double kMinMs = 150.0;  // per timed kernel side

  std::vector<kernel_row> rows;

  {
    kernel_row row{"sha256"};
    for (const byte_buffer& b : corpus) {
      row.identical &= refk::sha256(b) == sha256(b);
    }
    row.ref_mb_s = throughput_mb_s(corpus_bytes, kMinMs, [&] {
      std::uint64_t s = 0;
      for (const byte_buffer& b : corpus) s += refk::sha256(b).prefix64();
      g_sink = g_sink + s;
    });
    row.opt_mb_s = throughput_mb_s(corpus_bytes, kMinMs, [&] {
      std::uint64_t s = 0;
      for (const byte_buffer& b : corpus) s += sha256(b).prefix64();
      g_sink = g_sink + s;
    });
    rows.push_back(row);
  }
  {
    // Shares the sha256 row's reference rate.
    kernel_row row{"sha256_portable"};
    row.in_aggregate = false;
    row.ref_mb_s = rows.back().ref_mb_s;
    const auto portable = [](byte_view b) {
      return sha256_kernels::sha256_with(sha256_kernels::portable, b);
    };
    for (const byte_buffer& b : corpus) {
      row.identical &= refk::sha256(b) == portable(b);
    }
    row.opt_mb_s = throughput_mb_s(corpus_bytes, kMinMs, [&] {
      std::uint64_t s = 0;
      for (const byte_buffer& b : corpus) s += portable(b).prefix64();
      g_sink = g_sink + s;
    });
    rows.push_back(row);
  }
  {
    kernel_row row{"md5"};
    for (const byte_buffer& b : corpus) row.identical &= refk::md5(b) == md5(b);
    row.ref_mb_s = throughput_mb_s(corpus_bytes, kMinMs, [&] {
      std::uint64_t s = 0;
      for (const byte_buffer& b : corpus) s += refk::md5(b).prefix64();
      g_sink = g_sink + s;
    });
    row.opt_mb_s = throughput_mb_s(corpus_bytes, kMinMs, [&] {
      std::uint64_t s = 0;
      for (const byte_buffer& b : corpus) s += md5(b).prefix64();
      g_sink = g_sink + s;
    });
    rows.push_back(row);
  }
  // The multi-buffer MD5 kernel: identity on every lane for random lengths
  // and misaligned starts, then the rate over the corpus's 10 KiB blocks,
  // 16 blocks per call, against refk::md5 one block at a time.
  {
    kernel_row row{"md5_x16"};
    row.in_aggregate = false;  // the md5 row already times this work
    if (!md5_kernels::has_avx512f()) {
      row.identity_checked = false;
    } else {
      constexpr std::size_t kRsyncBlock = 10 * KiB;
      std::vector<const std::uint8_t*> blocks;
      for (const byte_buffer& b : corpus) {
        for (std::size_t off = 0; off + kRsyncBlock <= b.size();
             off += kRsyncBlock) {
          blocks.push_back(b.data() + off);
        }
      }
      const std::uint64_t block_bytes = blocks.size() * kRsyncBlock;
      rng lr(0x6d64355f6c616e65ull);
      const byte_buffer& src = corpus.front();
      for (int trial = 0; trial < 200; ++trial) {
        const auto len = static_cast<std::size_t>(
            lr.uniform_range(0, trial < 50 ? 200 : 64 * KiB));
        const auto n =
            static_cast<std::size_t>(lr.uniform_range(1, kMd5MaxLanes));
        const std::uint8_t* msgs[kMd5MaxLanes];
        md5_digest out[kMd5MaxLanes];
        for (std::size_t j = 0; j < n; ++j) {
          msgs[j] = src.data() + lr.uniform(src.size() - len);
        }
        md5_kernels::x16_avx512(msgs, n, len, out);
        for (std::size_t j = 0; j < n; ++j) {
          row.identical &= out[j] == refk::md5(byte_view(msgs[j], len));
        }
      }
      row.ref_mb_s = throughput_mb_s(block_bytes, kMinMs, [&] {
        std::uint64_t s = 0;
        for (const std::uint8_t* b : blocks) {
          s += refk::md5(byte_view(b, kRsyncBlock)).prefix64();
        }
        g_sink = g_sink + s;
      });
      row.opt_mb_s = throughput_mb_s(block_bytes, kMinMs, [&] {
        std::uint64_t s = 0;
        md5_digest out[kMd5MaxLanes];
        for (std::size_t first = 0; first < blocks.size();
             first += kMd5MaxLanes) {
          const std::size_t n = std::min(kMd5MaxLanes, blocks.size() - first);
          md5_kernels::x16_avx512(blocks.data() + first, n, kRsyncBlock, out);
          s += out[n - 1].prefix64();
        }
        g_sink = g_sink + s;
      });
    }
    rows.push_back(row);
  }
  {
    kernel_row row{"sha1"};
    for (const byte_buffer& b : corpus) {
      row.identical &= refk::sha1(b) == sha1(b);
    }
    row.ref_mb_s = throughput_mb_s(corpus_bytes, kMinMs, [&] {
      std::uint64_t s = 0;
      for (const byte_buffer& b : corpus) s += refk::sha1(b).prefix64();
      g_sink = g_sink + s;
    });
    row.opt_mb_s = throughput_mb_s(corpus_bytes, kMinMs, [&] {
      std::uint64_t s = 0;
      for (const byte_buffer& b : corpus) s += sha1(b).prefix64();
      g_sink = g_sink + s;
    });
    rows.push_back(row);
  }
  {
    kernel_row row{"crc32"};
    for (const byte_buffer& b : corpus) {
      row.identical &= refk::crc32(b) == crc32(b);
    }
    row.ref_mb_s = throughput_mb_s(corpus_bytes, kMinMs, [&] {
      std::uint64_t s = 0;
      for (const byte_buffer& b : corpus) s += refk::crc32(b);
      g_sink = g_sink + s;
    });
    row.opt_mb_s = throughput_mb_s(corpus_bytes, kMinMs, [&] {
      std::uint64_t s = 0;
      for (const byte_buffer& b : corpus) s += crc32(b);
      g_sink = g_sink + s;
    });
    rows.push_back(row);
  }
  {
    kernel_row row{"adler32_weak"};
    for (const byte_buffer& b : corpus) {
      row.identical &= refk::weak_checksum(b) == weak_checksum(b);
    }
    row.ref_mb_s = throughput_mb_s(corpus_bytes, kMinMs, [&] {
      std::uint64_t s = 0;
      for (const byte_buffer& b : corpus) s += refk::weak_checksum(b);
      g_sink = g_sink + s;
    });
    row.opt_mb_s = throughput_mb_s(corpus_bytes, kMinMs, [&] {
      std::uint64_t s = 0;
      for (const byte_buffer& b : corpus) s += weak_checksum(b);
      g_sink = g_sink + s;
    });
    rows.push_back(row);
  }
  {
    kernel_row row{"gear_cdc"};
    for (const byte_buffer& b : corpus) {
      row.identical &= chunks_equal(refk::content_defined_chunks(b, cdc),
                                    content_defined_chunks(b, cdc));
    }
    row.ref_mb_s = throughput_mb_s(corpus_bytes, kMinMs, [&] {
      std::uint64_t s = 0;
      for (const byte_buffer& b : corpus) {
        s += refk::content_defined_chunks(b, cdc).size();
      }
      g_sink = g_sink + s;
    });
    row.opt_mb_s = throughput_mb_s(corpus_bytes, kMinMs, [&] {
      std::uint64_t s = 0;
      for (const byte_buffer& b : corpus) {
        s += content_defined_chunks(b, cdc).size();
      }
      g_sink = g_sink + s;
    });
    rows.push_back(row);
  }
  {
    // Compression-size estimate over the full buffer: the lzss trial
    // compression a size estimate used to require vs the pipeline's
    // streamable order-0 entropy. Different estimators by design (the
    // pipeline cannot run a match-finder per tile), so rate-only: no
    // identity.
    kernel_row row{"compress_estimate"};
    row.identity_checked = false;
    row.ref_mb_s = throughput_mb_s(corpus_bytes, kMinMs, [&] {
      std::uint64_t s = 0;
      for (const byte_buffer& b : corpus) {
        s += static_cast<std::uint64_t>(
            estimate_compression_ratio(b, b.size()) * 1000);
      }
      g_sink = g_sink + s;
    });
    content_request ereq;
    ereq.entropy = true;
    row.opt_mb_s = throughput_mb_s(corpus_bytes, kMinMs, [&] {
      std::uint64_t s = 0;
      for (const byte_buffer& b : corpus) {
        s += static_cast<std::uint64_t>(
            analyze_content(b, ereq).entropy_bits_per_byte * 1000);
      }
      g_sink = g_sink + s;
    });
    rows.push_back(row);
  }

  // Aggregate = one virtual pass of every kernel the program runs over the
  // corpus, time-weighted (sum of per-kernel times at the measured rates).
  double ref_time = 0, opt_time = 0;
  std::size_t agg_rows = 0;
  for (const kernel_row& r : rows) {
    if (!r.in_aggregate) continue;
    ref_time += static_cast<double>(corpus_bytes) / r.ref_mb_s;
    opt_time += static_cast<double>(corpus_bytes) / r.opt_mb_s;
    ++agg_rows;
  }
  const double agg_ref = agg_rows * static_cast<double>(corpus_bytes) /
                         ref_time;
  const double agg_opt = agg_rows * static_cast<double>(corpus_bytes) /
                         opt_time;

  // Dedup-index probe: the flat per-user shard vs the node-based
  // unordered_map<fingerprint, count> it replaced. Same fingerprints, same
  // membership answers.
  constexpr std::size_t kFingerprints = 100'000;
  std::vector<fingerprint> fps(kFingerprints);
  {
    rng fr(0xdedbull);
    for (fingerprint& fp : fps) {
      for (auto& byte : fp.bytes) {
        byte = static_cast<std::uint8_t>(fr.uniform_range(0, 255));
      }
    }
  }
  bool index_identical = true;
  double baseline_mops = 0, shard_mops = 0;
  {
    std::unordered_map<fingerprint, std::uint64_t> base;
    fingerprint_shard shard(kFingerprints);
    for (const fingerprint& fp : fps) {
      ++base[fp];
      shard.add(fp);
    }
    for (std::size_t i = 0; i < kFingerprints; i += 97) {
      index_identical &= base.contains(fps[i]) == shard.contains(fps[i]);
    }
    index_identical &= base.size() == shard.unique_count();

    const double ops = 2.0 * kFingerprints;  // one add + one probe per fp
    baseline_mops = throughput_mb_s(static_cast<std::uint64_t>(ops), kMinMs,
                                    [&] {
                                      std::unordered_map<fingerprint,
                                                         std::uint64_t>
                                          m;
                                      for (const fingerprint& fp : fps) {
                                        ++m[fp];
                                      }
                                      std::size_t hits = 0;
                                      for (const fingerprint& fp : fps) {
                                        hits += m.contains(fp);
                                      }
                                      if (hits != kFingerprints) std::abort();
                                    });
    shard_mops = throughput_mb_s(static_cast<std::uint64_t>(ops), kMinMs, [&] {
      fingerprint_shard s(kFingerprints);
      for (const fingerprint& fp : fps) s.add(fp);
      std::size_t hits = 0;
      for (const fingerprint& fp : fps) hits += s.contains(fp);
      if (hits != kFingerprints) std::abort();
    });
  }

  bool all_identical = index_identical;
  for (const kernel_row& r : rows) all_identical &= r.identical;

  const std::set<std::string> flags = cpu_flags();
  const unsigned nproc = std::thread::hardware_concurrency();
  const char* sha256_kernel =
      sha256_kernels::has_sha_ni() ? "sha_ni" : "portable";
  const char* md5_kernel = md5_kernels::dispatched_name();
  std::printf("host: %u cores, sha_ni=%d avx2=%d avx512f=%d; sha256 "
              "dispatches to the %s kernel, md5_many to the %s kernel\n",
              nproc, flags.contains("sha_ni"), flags.contains("avx2"),
              flags.contains("avx512f"), sha256_kernel, md5_kernel);

  text_table table;
  table.header({"kernel", "ref MB/s", "opt MB/s", "speedup", "identical"});
  for (const kernel_row& r : rows) {
    if (r.identity_checked || r.opt_mb_s > 0) {
      table.row({r.name, strfmt("%.1f", r.ref_mb_s),
                 strfmt("%.1f", r.opt_mb_s), strfmt("%.2fx", r.speedup()),
                 r.identity_checked ? (r.identical ? "yes" : "NO") : "n/a"});
    } else {
      table.row({r.name, "-", "-", "-", "skipped: ISA missing"});
    }
  }
  table.row({"aggregate", strfmt("%.1f", agg_ref), strfmt("%.1f", agg_opt),
             strfmt("%.2fx", agg_opt / agg_ref), "-"});
  std::printf("%s\n", table.str().c_str());
  std::printf("dedup index: %.2f Mops/s flat shard vs %.2f Mops/s "
              "unordered_map (%.2fx), answers identical: %s\n",
              shard_mops, baseline_mops, shard_mops / baseline_mops,
              index_identical ? "yes" : "NO");

  const char* out_path = argc > 1 ? argv[1] : "BENCH_kernels.json";
  std::ofstream out(out_path);
  const auto flag = [&](const char* f) {
    return flags.contains(f) ? "true" : "false";
  };
  out << "{\n"
      << "  \"bench\": \"kernels\",\n"
      << "  \"host\": {\"nproc\": " << nproc
      << ", \"cpu_flags\": {\"sha_ni\": " << flag("sha_ni")
      << ", \"avx2\": " << flag("avx2")
      << ", \"avx512f\": " << flag("avx512f") << "}},\n"
      << "  \"sha256_kernel\": \"" << sha256_kernel << "\",\n"
      << "  \"md5_kernel\": \"" << md5_kernel << "\",\n"
      << "  \"corpus_bytes\": " << corpus_bytes << ",\n"
      << "  \"kernels\": {";
  bool first = true;
  for (const kernel_row& r : rows) {
    out << (first ? "\n" : ",\n") << "    \"" << r.name
        << "\": {\"ref_mb_s\": " << r.ref_mb_s
        << ", \"opt_mb_s\": " << r.opt_mb_s << ", \"speedup\": " << r.speedup()
        << ", \"identical\": "
        << (r.identity_checked ? (r.identical ? "true" : "false") : "null")
        << "}";
    first = false;
  }
  out << "\n  },\n"
      << "  \"aggregate\": {\"ref_mb_s\": " << agg_ref
      << ", \"opt_mb_s\": " << agg_opt
      << ", \"speedup\": " << agg_opt / agg_ref << "},\n"
      << "  \"dedup_index\": {\"unordered_map_mops\": " << baseline_mops
      << ", \"flat_shard_mops\": " << shard_mops
      << ", \"speedup\": " << shard_mops / baseline_mops
      << ", \"identical\": " << (index_identical ? "true" : "false") << "},\n"
      << "  \"identical_outputs\": " << (all_identical ? "true" : "false")
      << "\n}\n";
  out.flush();
  if (!out) {
    std::fprintf(stderr, "error: could not write %s\n", out_path);
    return 1;
  }
  std::printf("wrote %s\n", out_path);

  // Identity is the correctness gate; throughput is recorded, not gated
  // (it depends on the host).
  return all_identical ? 0 : 1;
}
