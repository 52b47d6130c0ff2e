// LZSS dictionary compressor, implemented from scratch.
//
// Greedy/lazy hash-chain matcher over a 64 KiB sliding window. The encoded
// stream is flag-grouped: one control byte per 8 tokens, each token either a
// literal byte or a (offset, length) back-reference.
//
// The `level` knob (0-9) trades CPU for ratio exactly like zlib's: it bounds
// the hash-chain walk and enables lazy matching at higher levels. Level 0
// stores the input uncompressed (used to model services that upload raw).
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "util/bytes.hpp"

namespace cloudsync {

struct lzss_params {
  int level = 6;  ///< 0 = store, 1 = fastest, 9 = best ratio.
};

/// Compress `input` into a self-describing frame (magic, original size,
/// token stream, CRC-32 trailer).
byte_buffer lzss_compress(byte_view input, lzss_params params = {});

/// Decompress a frame produced by lzss_compress.
/// Throws std::runtime_error on malformed input or CRC mismatch.
byte_buffer lzss_decompress(byte_view frame);

/// Cheap compressibility probe: compresses up to `sample_budget` bytes of
/// evenly spaced windows and returns the estimated ratio original/compressed
/// (>= 1.0 means compressible).
double estimate_compression_ratio(byte_view input,
                                  std::size_t sample_budget = 64 * 1024);

/// The window layout the probe samples for a `size`-byte input: the whole
/// input when it fits the budget, otherwise 8 evenly spaced budget/8-byte
/// windows. Exposed so non-contiguous representations (ropes, streamed delta
/// wire) can be probed with the identical layout and therefore return the
/// identical estimate.
struct sample_window {
  std::size_t offset = 0;
  std::size_t length = 0;
};
std::vector<sample_window> compression_sample_windows(
    std::size_t size, std::size_t sample_budget);

/// Shared probe core: ratio sum(in) / max(1, sum(out)) over the level-5
/// frame sizes of the sampled windows, counted rather than written.
/// estimate_compression_ratio == estimate_ratio_of_windows over
/// compression_sample_windows' views.
double estimate_ratio_of_windows(const std::vector<byte_view>& windows);

/// Exact streamed frame sizing: feed the input in windows of any size and
/// finish() returns precisely lzss_compress(concatenation, params).size() —
/// including the stored-frame fallback — without holding the input. It runs
/// lzss_compress's own parse with a byte counter in place of the writer, over
/// a buffer of min(total, 256 KiB): the 64 KiB match window, the lookahead
/// and the bytes fed since the last slide. The hash chains are the calling
/// thread's, which the sizer borrows until finish(). This is how multi-GB
/// upload payloads are priced without ever being flat in memory.
class lzss_stream_sizer {
 public:
  /// The total input size must be known up front (frame headers and
  /// end-of-input match limits depend on it).
  explicit lzss_stream_sizer(std::uint64_t total_size, lzss_params params = {});
  ~lzss_stream_sizer();

  /// Throws std::logic_error past total_size bytes or after finish().
  void feed(byte_view window);
  /// Throws std::logic_error unless exactly total_size bytes were fed, or
  /// when called twice.
  std::uint64_t finish();

 private:
  struct state;

  std::uint64_t total_;
  std::uint64_t fed_ = 0;
  std::unique_ptr<state> state_;  ///< null for a stored frame, and once done
  bool finished_ = false;
};

}  // namespace cloudsync
