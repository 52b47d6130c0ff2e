#include "chunking/cdc.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cassert>

namespace cloudsync {

namespace {

// Deterministic pseudo-random gear table (splitmix64 over the byte value).
constexpr std::array<std::uint64_t, 256> make_gear_table() {
  std::array<std::uint64_t, 256> table{};
  std::uint64_t x = 0x243f6a8885a308d3ull;  // pi digits as seed
  for (auto& v : table) {
    x += 0x9e3779b97f4a7c15ull;
    std::uint64_t z = x;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    v = z ^ (z >> 31);
  }
  return table;
}

constexpr auto kGear = make_gear_table();

/// The gear-CDC cut rule as a stream: feed() the content in order, in
/// pieces of any size, then finish(). A chunk ends at the first byte where
/// it is at least min_size long and the gear hash's low log2(avg_size) bits
/// are zero, or at max_size; the last chunk takes whatever remains.
class cdc_cutter {
 public:
  cdc_cutter(const cdc_params& p, std::size_t total)
      : mask_(p.avg_size - 1), min_(p.min_size), max_(p.max_size) {
    assert(p.min_size > 0 && p.min_size <= p.avg_size &&
           p.avg_size <= p.max_size);
    assert((p.avg_size & (p.avg_size - 1)) == 0 &&
           "avg_size must be a power of two");
    // Min-size skipping: the cut test (h & mask) == 0 reads only the low
    // log2(avg_size) bits of h, and h = Σ_j gear[data[j]] << (len−1−j), so
    // those bits depend only on the last log2(avg_size) bytes hashed. The
    // first test fires at length min_size, so hashing can start at
    // min_size − mask_bits with h = 0 and every test result — hence every
    // boundary — is identical to hashing from the chunk start. (The skip
    // must not pass the first test itself, hence the max(mask_bits, 1)
    // clamp for degenerate 1-byte avg sizes.)
    const std::size_t mask_bits = std::max<std::size_t>(
        static_cast<std::size_t>(std::countr_zero(p.avg_size)), 1);
    skip_ = min_ > mask_bits ? min_ - mask_bits : 0;
    out_.reserve(total / p.avg_size + 1);
  }

  void feed(byte_view piece) {
    // The hash and the length live in locals: the piece's bytes may alias
    // any member, so a member in the loop would be reloaded every byte.
    const std::uint8_t* const p = piece.data();
    const std::size_t n = piece.size();
    const std::uint64_t mask = mask_;
    const std::size_t min = min_;
    std::uint64_t h = hash_;
    std::size_t len = len_;
    std::size_t i = 0;
    while (i < n) {
      if (len < skip_) {  // bytes below the hash start only count
        const std::size_t take = std::min(skip_ - len, n - i);
        len += take;
        i += take;
        continue;
      }
      // Hash up to max_size; the bytes that leave the chunk shorter than
      // min_size are hashed untested, the rest tested one by one.
      const std::size_t stop = i + std::min(n - i, max_ - len);
      const std::size_t untested = len + 1 < min ? min - 1 - len : 0;
      const std::size_t warm = i + std::min(stop - i, untested);
      std::size_t j = i;
      for (; j < warm; ++j) h = (h << 1) + kGear[p[j]];
      bool cut = false;
      for (; j < stop; ++j) {
        h = (h << 1) + kGear[p[j]];
        if ((h & mask) == 0) {
          cut = true;
          ++j;
          break;
        }
      }
      len += j - i;
      i = j;
      if (cut || len == max_) {
        out_.push_back({start_, len});
        start_ += len;
        len = 0;
        h = 0;
      }
    }
    hash_ = h;
    len_ = len;
  }

  std::vector<chunk_ref> finish() {
    if (len_ > 0) out_.push_back({start_, len_});
    return std::move(out_);
  }

 private:
  std::uint64_t mask_;
  std::size_t min_, max_, skip_;
  std::uint64_t hash_ = 0;
  std::size_t len_ = 0;    ///< bytes into the current chunk
  std::size_t start_ = 0;  ///< stream offset of the current chunk
  std::vector<chunk_ref> out_;
};

}  // namespace

const std::uint64_t* gear_table() { return kGear.data(); }

std::vector<chunk_ref> content_defined_chunks(byte_view data,
                                              cdc_params params) {
  cdc_cutter cut(params, data.size());
  cut.feed(data);
  return cut.finish();
}

std::vector<chunk_ref> content_defined_chunks(const content_ref& data,
                                              cdc_params params) {
  cdc_cutter cut(params, data.size());
  data.walk([&](byte_view seg) { cut.feed(seg); });
  return cut.finish();
}

}  // namespace cloudsync
