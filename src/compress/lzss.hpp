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

/// The level the probe compresses its windows at.
inline constexpr int kProbeLevel = 5;

/// The probe's totals over its windows: bytes in, and the bytes of their
/// level-5 frames, counted rather than written.
struct probe_totals {
  std::uint64_t in = 0;
  std::uint64_t out = 0;
  /// in / max(1, out): the estimated compression ratio.
  double ratio() const;
};
probe_totals probe_windows(const std::vector<byte_view>& windows);

/// Shared probe core: probe_windows(windows).ratio().
/// estimate_compression_ratio == estimate_ratio_of_windows over
/// compression_sample_windows' views.
double estimate_ratio_of_windows(const std::vector<byte_view>& windows);

/// One token start of a counted parse, with the tokens before it.
struct lzss_checkpoint {
  std::uint64_t offset = 0;    ///< input offset at which a token starts
  std::uint64_t literals = 0;  ///< literal tokens before it
  std::uint64_t matches = 0;   ///< match tokens before it
};

/// What a counted parse leaves behind, so that an edited version of its
/// input can be priced from it (lzss_stream_sizer::reuse). The checkpoints
/// are the first token start at or past each multiple of a spacing of
/// max(4 KiB, size / 1024 rounded up to a power of two): at most about 1-2 K
/// of them, 24 bytes each, whatever the size.
struct lzss_summary {
  int level = 0;
  std::uint64_t size = 0;      ///< input bytes
  std::uint64_t literals = 0;  ///< tokens of the whole parse
  std::uint64_t matches = 0;
  std::vector<lzss_checkpoint> checkpoints;  ///< ascending, the first at 0
};

/// Exact streamed frame sizing: feed the input in windows of any size and
/// finish() returns precisely lzss_compress(concatenation, params).size() —
/// including the stored-frame fallback — without holding the input. It runs
/// lzss_compress's own parse with a byte counter in place of the writer, over
/// a buffer of min(total, 256 KiB): the 64 KiB match window, the lookahead
/// and the bytes fed since the last slide. The hash chains are the calling
/// thread's, which the sizer borrows until finish(). This is how multi-GB
/// upload payloads are priced without ever being flat in memory.
///
/// Every parse also records an lzss_summary (summary()). Given the summary
/// of an earlier version of the input and the lengths of the two inputs'
/// common prefix and suffix (reuse()), the sizer parses only the band around
/// the edit and is still exact. A token decision at input offset p reads
/// only the bytes in [p - 64 KiB, p + kLookahead), kLookahead = 262, and the
/// distances to the input's start and end. So:
///   - the parse resumes at the last checkpoint that lies at least
///     kLookahead bytes before the first changed byte, with the counts
///     recorded there and the hash chains primed (insert-only) from the up
///     to 64 KiB before it;
///   - it stops at the first old checkpoint that is also a new token start
///     once the 64 KiB window has passed the end of the edit, and the old
///     parse's counts after that checkpoint complete the total.
/// The caller still feeds every byte in order; the sizer skips those outside
/// the band. The new summary holds the old checkpoints before the resume
/// point, the re-parsed ones, and the old ones after the rejoin, shifted by
/// the change in size, so summaries chain from version to version.
class lzss_stream_sizer {
 public:
  /// The total input size must be known up front (frame headers and
  /// end-of-input match limits depend on it).
  explicit lzss_stream_sizer(std::uint64_t total_size, lzss_params params = {});
  ~lzss_stream_sizer();

  /// Prices this input from `base`, the summary of a parse of an earlier
  /// version, whose input shares its first `prefix` and its last `suffix`
  /// bytes with this one (prefix + suffix within both sizes). Call before
  /// the first feed, once. A null base, one of another level, or a stored
  /// frame parses in full. Throws std::logic_error after a feed or a first
  /// reuse, or when the lengths do not fit both inputs.
  void reuse(std::shared_ptr<const lzss_summary> base, std::uint64_t prefix,
             std::uint64_t suffix);
  /// Throws std::logic_error past total_size bytes or after finish().
  void feed(byte_view window);
  /// Throws std::logic_error unless exactly total_size bytes were fed, or
  /// when called twice.
  std::uint64_t finish();
  /// After finish(): the summary of this input's parse. Null for a stored
  /// frame (level 0, or under 8 bytes) and for a parse with one checkpoint
  /// (no token start past the first spacing; every input up to 4 KiB).
  const std::shared_ptr<const lzss_summary>& summary() const {
    return summary_;
  }

 private:
  struct state;

  std::uint64_t total_;
  std::uint64_t fed_ = 0;
  std::unique_ptr<state> state_;  ///< null for a stored frame, and once done
  std::shared_ptr<const lzss_summary> summary_;
  bool finished_ = false;
};

}  // namespace cloudsync
