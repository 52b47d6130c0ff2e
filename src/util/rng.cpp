#include "util/rng.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>
#include <numbers>

namespace cloudsync {

namespace {

std::uint64_t splitmix64(std::uint64_t& x) {
  x += 0x9e3779b97f4a7c15ull;
  std::uint64_t z = x;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

inline std::uint64_t rotl(std::uint64_t v, int s) {
  return v << s | v >> (64 - s);
}

// A small dictionary is enough: what matters is realistic compressibility of
// "random English words", not linguistics.
constexpr const char* kWords[] = {
    "the",     "of",      "and",      "to",       "in",      "is",
    "you",     "that",    "it",       "he",       "was",     "for",
    "on",      "are",     "as",       "with",     "his",     "they",
    "cloud",   "storage", "service",  "traffic",  "sync",    "data",
    "file",    "update",  "network",  "measure",  "system",  "design",
    "block",   "chunk",   "user",     "client",   "server",  "folder",
    "upload",  "download","bandwidth","latency",  "energy",  "mobile",
    "device",  "protocol","transfer", "efficient","metric",  "paper"};
constexpr std::size_t kWordCount = sizeof(kWords) / sizeof(kWords[0]);

}  // namespace

rng::rng(std::uint64_t seed) {
  for (auto& s : s_) s = splitmix64(seed);
}

std::uint64_t rng::next() {
  const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
  const std::uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = rotl(s_[3], 45);
  return result;
}

std::uint64_t rng::uniform(std::uint64_t bound) {
  // Rejection sampling to avoid modulo bias.
  const std::uint64_t threshold = -bound % bound;
  for (;;) {
    const std::uint64_t r = next();
    if (r >= threshold) return r % bound;
  }
}

std::uint64_t rng::uniform_range(std::uint64_t lo, std::uint64_t hi) {
  return lo + uniform(hi - lo + 1);
}

double rng::uniform_real() {
  return static_cast<double>(next() >> 11) * 0x1.0p-53;
}

bool rng::chance(double p) { return uniform_real() < p; }

double rng::normal() {
  // Box-Muller; guard against log(0).
  double u1 = uniform_real();
  if (u1 <= 0.0) u1 = 0x1.0p-53;
  const double u2 = uniform_real();
  return std::sqrt(-2.0 * std::log(u1)) *
         std::cos(2.0 * std::numbers::pi * u2);
}

double rng::lognormal(double mu, double sigma) {
  return std::exp(mu + sigma * normal());
}

double rng::exponential(double lambda) {
  double u = uniform_real();
  if (u <= 0.0) u = 0x1.0p-53;
  return -std::log(u) / lambda;
}

std::uint64_t rng::zipf(std::uint64_t n, double s) {
  // Inverse-CDF on the continuous approximation of the Zipf distribution.
  const double u = uniform_real();
  if (s == 1.0) {
    const double h = std::log(static_cast<double>(n) + 1.0);
    const double rank = std::exp(u * h) - 1.0;
    const auto r = static_cast<std::uint64_t>(rank);
    return r >= n ? n - 1 : r;
  }
  const double p = 1.0 - s;
  const double hn = (std::pow(static_cast<double>(n) + 1.0, p) - 1.0) / p;
  const double rank = std::pow(u * hn * p + 1.0, 1.0 / p) - 1.0;
  const auto r = static_cast<std::uint64_t>(rank);
  return r >= n ? n - 1 : r;
}

namespace {

/// p[0, n) takes the little-endian bytes of successive next() words, 8 per
/// store; the tail takes the low bytes of one more word. The generator runs
/// on a local copy, written back at the end, so the byte stores cannot alias
/// its state and the compiler keeps it in registers.
void fill_random(rng& r, std::uint8_t* p, std::size_t n) {
  rng g = r;
  const auto le = [](std::uint64_t v) {
    if constexpr (std::endian::native == std::endian::big) {
      v = __builtin_bswap64(v);
    }
    return v;
  };
  const std::size_t whole = n - n % 8;
  for (std::size_t i = 0; i < whole; i += 8) {
    const std::uint64_t v = le(g.next());
    std::memcpy(p + i, &v, 8);
  }
  if (const std::size_t rest = n % 8; rest > 0) {
    const std::uint64_t v = le(g.next());
    std::memcpy(p + whole, &v, rest);
  }
  r = g;
}

}  // namespace

byte_buffer random_bytes(rng& r, std::size_t n) {
  byte_buffer out(n);
  fill_random(r, out.data(), n);
  return out;
}

byte_buffer random_text(rng& r, std::size_t n) {
  // Dictionary words mixed with unique identifier-like tokens. Calibrated so
  // that best-effort LZSS lands near WinZip's ratio on the paper's
  // "random English words" file (10 MB -> ~4.5 MB, ratio ≈ 2.2).
  byte_buffer out;
  out.reserve(n + 24);
  while (out.size() < n) {
    if (r.chance(0.17)) {
      // Fresh token: numbers, names, hashes — the high-entropy part of
      // realistic text.
      const std::size_t len = 4 + r.uniform(8);
      for (std::size_t i = 0; i < len; ++i) {
        const std::uint64_t v = r.uniform(36);
        out.push_back(static_cast<std::uint8_t>(
            v < 26 ? 'a' + v : '0' + (v - 26)));
      }
    } else {
      const char* w = kWords[r.uniform(kWordCount)];
      while (*w != '\0') out.push_back(static_cast<std::uint8_t>(*w++));
    }
    out.push_back(r.chance(0.1) ? '\n' : ' ');
  }
  out.resize(n);
  return out;
}

byte_buffer synthetic_payload(rng& r, std::size_t n, double target_ratio) {
  if (target_ratio <= 1.05) return random_bytes(r, n);
  // Interleave incompressible runs with highly repetitive runs. A repetitive
  // run compresses to ~nothing, so a fraction q of repetitive content yields
  // ratio ~ 1 / (1 - q).
  const double q = 1.0 - 1.0 / target_ratio;
  rng g = r;
  byte_buffer out(n);
  constexpr std::size_t kRun = 256;
  for (std::size_t pos = 0; pos < n; pos += kRun) {
    const std::size_t want = std::min(kRun, n - pos);
    if (g.uniform_real() < q) {
      std::memset(out.data() + pos, static_cast<int>('a' + g.uniform(26)),
                  want);
    } else {
      fill_random(g, out.data() + pos, want);
    }
  }
  r = g;
  return out;
}

}  // namespace cloudsync
