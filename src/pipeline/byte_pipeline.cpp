#include "pipeline/byte_pipeline.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <stdexcept>

#include "util/adler32.hpp"

namespace cloudsync {

namespace {

/// Tile size for the one-shot walk: big enough to amortize per-stage call
/// overhead, small enough that a tile stays in L1/L2 across both stages.
constexpr std::size_t kTile = 64 * 1024;

}  // namespace

byte_pipeline::byte_pipeline(content_request req) : req_(std::move(req)) {}

void byte_pipeline::feed(byte_view tile) {
  assert(!finished_);
  if (tile.empty()) return;
  out_.total_bytes += tile.size();
  if (req_.block_weak) {
    // Split the tile at fixed-block boundaries so each block's accumulator
    // sees exactly its own bytes — identical to weak_checksum() per block.
    const std::size_t bs = *req_.block_weak;
    std::size_t i = 0;
    while (i < tile.size()) {
      const std::size_t take = std::min(bs - bw_len_, tile.size() - i);
      weak_accumulate(tile.subspan(i, take), bw_a_, bw_b_);
      bw_len_ += take;
      i += take;
      if (bw_len_ == bs) {
        out_.block_weak.push_back((bw_b_ << 16) | (bw_a_ & 0xffffu));
        bw_a_ = bw_b_ = 0;
        bw_len_ = 0;
      }
    }
  }
  if (req_.entropy) {
    for (const std::uint8_t b : tile) ++hist_[b];
  }
}

content_report byte_pipeline::finish() {
  if (finished_) throw std::logic_error("byte_pipeline::finish called twice");
  finished_ = true;
  if (req_.block_weak && bw_len_ > 0) {
    out_.block_weak.push_back((bw_b_ << 16) | (bw_a_ & 0xffffu));
  }
  if (req_.entropy && out_.total_bytes > 0) {
    double bits = 0.0;
    for (const std::uint64_t n : hist_) {
      if (n == 0) continue;
      const double pr = static_cast<double>(n) /
                        static_cast<double>(out_.total_bytes);
      bits -= static_cast<double>(n) * std::log2(pr);
    }
    out_.entropy_bits_per_byte = bits / static_cast<double>(out_.total_bytes);
  }
  return std::move(out_);
}

content_report analyze_content(byte_view data, const content_request& req) {
  byte_pipeline pipe(req);
  for (std::size_t off = 0; off < data.size(); off += kTile) {
    pipe.feed(data.subspan(off, std::min(kTile, data.size() - off)));
  }
  return pipe.finish();
}

content_report analyze_content(const content_ref& data,
                               const content_request& req) {
  byte_pipeline pipe(req);
  // Segments arrive in logical order; the tiling contract makes any split
  // equivalent, so feeding rope segments directly needs no flatten.
  data.walk([&](byte_view seg) {
    for (std::size_t off = 0; off < seg.size(); off += kTile) {
      pipe.feed(seg.subspan(off, std::min(kTile, seg.size() - off)));
    }
  });
  return pipe.finish();
}

}  // namespace cloudsync
