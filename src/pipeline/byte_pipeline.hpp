// Single-pass feature pipeline for the protocol cost model.
//
// The adaptive selector (client/protocol_cost) wants two things from an
// update's bytes before it picks a protocol: an order-0 entropy estimate of
// their compressibility and the rsync weak sum of every fixed block, to
// match against the shadow's signature. `byte_pipeline` computes both in one
// walk, in cache-sized tiles, over flat bytes or rope segments in place.
//
// Determinism contract: any feed() split gives the same report, and each
// per-block weak sum equals weak_checksum() of that fixed block, which the
// test suite asserts.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "store/content_ref.hpp"
#include "util/bytes.hpp"

namespace cloudsync {

/// Which stages the pass should run. Disabled stages cost nothing.
struct content_request {
  /// Per-block rsync weak checksums over a fixed grid of this block size:
  /// the similarity probe of the protocol cost model. Each value matches
  /// weak_checksum() of the corresponding fixed block exactly.
  std::optional<std::size_t> block_weak;
  /// Byte-histogram Huffman entropy, the streamable compressed-size
  /// estimate (bits assigned by an ideal order-0 coder).
  bool entropy = false;
};

/// Everything the pass produced. Only fields whose stage was requested are
/// meaningful, except total_bytes.
struct content_report {
  std::vector<std::uint32_t> block_weak;  ///< one per fixed block, in order
  double entropy_bits_per_byte = 0.0;
  std::uint64_t total_bytes = 0;
};

/// Streaming stage machine: feed() the content in arrival order (any tile
/// sizes, including a single whole-buffer call), then finish() exactly once.
class byte_pipeline {
 public:
  explicit byte_pipeline(content_request req);

  /// Fold one tile of content into every enabled stage.
  void feed(byte_view tile);

  /// Flush the last partial block and finalize the entropy.
  content_report finish();

 private:
  content_request req_;
  content_report out_;

  std::uint32_t bw_a_ = 0, bw_b_ = 0;  ///< block_weak accumulator
  std::size_t bw_len_ = 0;             ///< bytes into the current block
  std::uint64_t hist_[256] = {};

  bool finished_ = false;
};

/// One-shot convenience over a complete buffer.
content_report analyze_content(byte_view data, const content_request& req);

/// Rope entry point: feeds the rope's segments in place — no flatten. The
/// pipeline's tiling contract makes every output bit-identical to the flat
/// call on the same logical bytes.
content_report analyze_content(const content_ref& data,
                               const content_request& req);

}  // namespace cloudsync
