// Adler-32-style rolling weak checksum, as used by rsync.
//
// The window form supports O(1) slide: remove the outgoing byte, add the
// incoming byte. This is the "weak" half of the rsync signature; MD5 is the
// strong half.
#pragma once

#include <cstddef>
#include <cstdint>

#include "util/bytes.hpp"

namespace cloudsync {

/// One-shot weak checksum of a block (rsync's a/b split packed into 32 bits).
std::uint32_t weak_checksum(byte_view block);

/// Streaming form: fold `data` into running (a, b) sums, exactly as if the
/// bytes had been fed to the naive per-byte loop. Lets a stream (the byte
/// pipeline's per-block sums, rsync's signature job) fold a block fed in
/// pieces; pack the result as (b << 16) | (a & 0xffff).
void weak_accumulate(byte_view data, std::uint32_t& a, std::uint32_t& b);

/// Rolling window over a fixed block size.
///
///   rolling_checksum rc(block_size);
///   rc.reset(first_window);
///   while (...) { rc.roll(outgoing, incoming); use rc.value(); }
class rolling_checksum {
 public:
  explicit rolling_checksum(std::size_t window) : window_(window) {}

  /// Initialise from a full window (data.size() must equal window()).
  void reset(byte_view data);

  /// Continue from a packed value() of the same window size: value() and
  /// every later roll() then equal those of reset() on the window that
  /// produced it, because the packed value keeps a and b mod 2^16 and the
  /// sums are mod-2^32 arithmetic.
  void resume(std::uint32_t packed) {
    a_ = packed & 0xffffu;
    b_ = packed >> 16;
  }

  /// Slide one byte: `out` leaves the window, `in` enters.
  void roll(std::uint8_t out, std::uint8_t in) {
    a_ -= out;
    a_ += in;
    b_ -= static_cast<std::uint32_t>(window_) * out;
    b_ += a_;
  }

  std::uint32_t value() const { return (b_ << 16) | (a_ & 0xffffu); }
  std::size_t window() const { return window_; }

 private:
  std::size_t window_;
  std::uint32_t a_ = 0;  // sum of bytes (mod 2^16 at extraction)
  std::uint32_t b_ = 0;  // sum of prefix sums
};

}  // namespace cloudsync
