// Strict number arguments for the command-line tools: an argument is taken
// whole or not at all.
//
//   size   decimal digits with an optional K, M or G suffix (binary
//          multiples), e.g. 65536, 64K, 1M
//   count  decimal digits
//   real   a finite decimal >= 0, e.g. 0.5, 8, 1e-3
//
// Signs, spaces, trailing characters and values out of range are malformed:
// the tool prints its usage and exits 2.
#pragma once

#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <functional>
#include <limits>
#include <string_view>
#include <system_error>
#include <utility>

#include "util/units.hpp"

namespace cloudsync::cli {

/// Each parser returns false, leaving `out` alone, unless all of `text` is
/// one value of its kind.
inline bool parse_count(std::string_view text, std::uint64_t& out) {
  std::uint64_t v = 0;
  const char* end = text.data() + text.size();
  const auto [stop, ec] = std::from_chars(text.data(), end, v);
  if (ec != std::errc{} || stop != end) return false;
  out = v;
  return true;
}

inline bool parse_size(std::string_view text, std::uint64_t& out) {
  std::uint64_t unit = 1;
  if (!text.empty()) {
    switch (text.back()) {
      case 'K': case 'k': unit = KiB; break;
      case 'M': case 'm': unit = MiB; break;
      case 'G': case 'g': unit = GiB; break;
      default: break;
    }
  }
  if (unit != 1) text.remove_suffix(1);
  std::uint64_t v = 0;
  if (!parse_count(text, v) ||
      v > std::numeric_limits<std::uint64_t>::max() / unit) {
    return false;
  }
  out = v * unit;
  return true;
}

inline bool parse_real(std::string_view text, double& out) {
  double v = 0;
  const char* end = text.data() + text.size();
  const auto [stop, ec] = std::from_chars(text.data(), end, v);
  if (ec != std::errc{} || stop != end || !std::isfinite(v) ||
      std::signbit(v)) {
    return false;
  }
  out = v;
  return true;
}

/// One tool's reader: each call returns the value of a whole argument (a
/// missing one is null) or prints the tool's usage and exits 2.
class strict_numbers {
 public:
  explicit strict_numbers(std::function<void()> usage)
      : usage_(std::move(usage)) {}

  std::uint64_t size(const char* text) const {
    std::uint64_t v = 0;
    if (text == nullptr || !parse_size(text, v)) fail();
    return v;
  }
  std::uint64_t count(const char* text,
                      std::uint64_t max =
                          std::numeric_limits<std::uint64_t>::max()) const {
    std::uint64_t v = 0;
    if (text == nullptr || !parse_count(text, v) || v > max) fail();
    return v;
  }
  double real(const char* text) const {
    double v = 0;
    if (text == nullptr || !parse_real(text, v)) fail();
    return v;
  }

 private:
  [[noreturn]] void fail() const {
    usage_();
    std::exit(2);
  }

  std::function<void()> usage_;
};

}  // namespace cloudsync::cli
