#include "compress/huffman.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <queue>
#include <stdexcept>
#include <vector>

#include "compress/varint.hpp"

namespace cloudsync {

namespace {

constexpr std::uint8_t kMagic0 = 'h';
constexpr std::uint8_t kMagic1 = 'f';
constexpr std::uint8_t kFormatStored = 0;
constexpr std::uint8_t kFormatHuffman = 1;
constexpr int kMaxCodeLen = 15;
constexpr std::size_t kAlphabet = 256;

/// Compute Huffman code lengths for the given frequencies, capped at
/// kMaxCodeLen (frequencies are halved and rebuilt if the tree gets too
/// deep — the classic zlib workaround, fine for a cap of 15).
std::array<std::uint8_t, kAlphabet> code_lengths(
    std::array<std::uint64_t, kAlphabet> freq) {
  std::array<std::uint8_t, kAlphabet> lengths{};

  for (;;) {
    // Huffman via a min-heap of (weight, node). Leaves are 0..255, internal
    // nodes get indices >= 256.
    struct node {
      std::uint64_t weight;
      int index;
    };
    struct heavier {
      bool operator()(const node& a, const node& b) const {
        if (a.weight != b.weight) return a.weight > b.weight;
        return a.index > b.index;  // deterministic ties
      }
    };
    std::priority_queue<node, std::vector<node>, heavier> heap;
    std::vector<int> parent;
    parent.reserve(kAlphabet * 2);
    parent.assign(kAlphabet, -1);

    int live = 0;
    for (std::size_t s = 0; s < kAlphabet; ++s) {
      if (freq[s] > 0) {
        heap.push({freq[s], static_cast<int>(s)});
        ++live;
      }
    }
    if (live == 0) return lengths;  // empty input
    if (live == 1) {
      // A single distinct symbol still needs one bit on the wire.
      lengths[static_cast<std::size_t>(heap.top().index)] = 1;
      return lengths;
    }

    while (heap.size() > 1) {
      const node a = heap.top();
      heap.pop();
      const node b = heap.top();
      heap.pop();
      const int idx = static_cast<int>(parent.size());
      parent.push_back(-1);
      parent[static_cast<std::size_t>(a.index)] = idx;
      parent[static_cast<std::size_t>(b.index)] = idx;
      heap.push({a.weight + b.weight, idx});
    }
    const int root = heap.top().index;

    int max_len = 0;
    for (std::size_t s = 0; s < kAlphabet; ++s) {
      if (freq[s] == 0) {
        lengths[s] = 0;
        continue;
      }
      int len = 0;
      for (int n = static_cast<int>(s); n != root;
           n = parent[static_cast<std::size_t>(n)]) {
        ++len;
      }
      lengths[s] = static_cast<std::uint8_t>(len);
      max_len = std::max(max_len, len);
    }
    if (max_len <= kMaxCodeLen) return lengths;

    // Flatten the distribution and retry.
    for (auto& f : freq) {
      if (f > 0) f = (f + 1) / 2;
    }
  }
}

struct canonical_codes {
  std::array<std::uint16_t, kAlphabet> code{};
  std::array<std::uint8_t, kAlphabet> len{};
};

/// Assign canonical codes: symbols sorted by (length, value) get
/// consecutive codes per length.
canonical_codes make_canonical(const std::array<std::uint8_t, kAlphabet>& lengths) {
  canonical_codes out;
  out.len = lengths;
  std::array<std::uint16_t, kMaxCodeLen + 1> count{};
  for (std::uint8_t l : lengths) {
    if (l > 0) ++count[l];
  }
  std::array<std::uint16_t, kMaxCodeLen + 2> next{};
  std::uint16_t code = 0;
  for (int l = 1; l <= kMaxCodeLen; ++l) {
    code = static_cast<std::uint16_t>((code + count[l - 1]) << 1);
    next[l] = code;
  }
  for (std::size_t s = 0; s < kAlphabet; ++s) {
    if (lengths[s] > 0) out.code[s] = next[lengths[s]]++;
  }
  return out;
}

class bit_writer {
 public:
  explicit bit_writer(byte_buffer& out) : out_(out) {}

  void put(std::uint32_t bits, int n) {  // MSB-first within the code
    for (int i = n - 1; i >= 0; --i) {
      acc_ = static_cast<std::uint8_t>(acc_ << 1 | ((bits >> i) & 1));
      if (++filled_ == 8) {
        out_.push_back(acc_);
        acc_ = 0;
        filled_ = 0;
      }
    }
  }

  void flush() {
    if (filled_ > 0) {
      out_.push_back(static_cast<std::uint8_t>(acc_ << (8 - filled_)));
      acc_ = 0;
      filled_ = 0;
    }
  }

 private:
  byte_buffer& out_;
  std::uint8_t acc_ = 0;
  int filled_ = 0;
};

class bit_reader {
 public:
  bit_reader(byte_view data, std::size_t pos) : data_(data), pos_(pos) {}

  int next_bit() {
    if (bit_ == 0) {
      if (pos_ >= data_.size()) return -1;
      cur_ = data_[pos_++];
      bit_ = 8;
    }
    --bit_;
    return (cur_ >> bit_) & 1;
  }

 private:
  byte_view data_;
  std::size_t pos_;
  std::uint8_t cur_ = 0;
  int bit_ = 0;
};

byte_buffer stored_frame(byte_view input) {
  byte_buffer out;
  out.reserve(input.size() + 8);
  out.push_back(kMagic0);
  out.push_back(kMagic1);
  out.push_back(kFormatStored);
  put_varint(out, input.size());
  append(out, input);
  return out;
}

}  // namespace

byte_buffer huffman_encode(byte_view input) {
  if (input.size() < 64) return stored_frame(input);

  std::array<std::uint64_t, kAlphabet> freq{};
  for (std::uint8_t b : input) ++freq[b];
  const auto lengths = code_lengths(freq);
  const canonical_codes codes = make_canonical(lengths);

  byte_buffer out;
  out.reserve(input.size() / 2 + 160);
  out.push_back(kMagic0);
  out.push_back(kMagic1);
  out.push_back(kFormatHuffman);
  put_varint(out, input.size());
  // 256 code lengths, two per byte.
  for (std::size_t s = 0; s < kAlphabet; s += 2) {
    out.push_back(static_cast<std::uint8_t>(lengths[s] << 4 |
                                            (lengths[s + 1] & 0x0f)));
  }

  bit_writer writer(out);
  for (std::uint8_t b : input) {
    writer.put(codes.code[b], codes.len[b]);
  }
  writer.flush();

  if (out.size() >= input.size() + 7) return stored_frame(input);
  return out;
}

byte_buffer huffman_decode(byte_view frame) {
  auto fail = [](const char* why) -> byte_buffer {
    throw std::runtime_error(std::string("huffman_decode: ") + why);
  };
  if (frame.size() < 4 || frame[0] != kMagic0 || frame[1] != kMagic1) {
    return fail("bad magic");
  }
  std::size_t pos = 3;
  const auto size = get_varint(frame, pos);
  if (!size) return fail("truncated header");

  if (frame[2] == kFormatStored) {
    if (frame.size() - pos != *size) return fail("stored size mismatch");
    return byte_buffer(frame.begin() + static_cast<std::ptrdiff_t>(pos),
                       frame.end());
  }
  if (frame[2] != kFormatHuffman) return fail("unknown format");
  if (frame.size() < pos + kAlphabet / 2) return fail("truncated table");

  std::array<std::uint8_t, kAlphabet> lengths{};
  for (std::size_t s = 0; s < kAlphabet; s += 2) {
    const std::uint8_t packed = frame[pos++];
    lengths[s] = packed >> 4;
    lengths[s + 1] = packed & 0x0f;
  }

  // Canonical decoding tables: first code and first symbol index per length.
  std::array<std::uint16_t, kMaxCodeLen + 1> count{};
  for (std::uint8_t l : lengths) {
    if (l > 0) ++count[l];
  }
  std::array<std::uint32_t, kMaxCodeLen + 1> first_code{};
  std::array<std::uint32_t, kMaxCodeLen + 1> first_index{};
  std::uint32_t code = 0, index = 0;
  std::vector<std::uint8_t> symbols;  // sorted by (length, symbol)
  symbols.reserve(kAlphabet);
  for (int l = 1; l <= kMaxCodeLen; ++l) {
    code = (code + count[l - 1]) << 1;
    first_code[l] = code;
    first_index[l] = index;
    index += count[l];
    for (std::size_t s = 0; s < kAlphabet; ++s) {
      if (lengths[s] == l) symbols.push_back(static_cast<std::uint8_t>(s));
    }
  }
  if (symbols.empty() && *size > 0) return fail("empty code table");
  // Every symbol takes at least one bit, so a larger declared size cannot be
  // honest; check before reserving it.
  if (*size > 8 * static_cast<std::uint64_t>(frame.size() - pos)) {
    return fail("declared size exceeds the frame");
  }

  byte_buffer out;
  out.reserve(*size);
  bit_reader reader(frame, pos);
  while (out.size() < *size) {
    std::uint32_t acc = 0;
    int len = 0;
    for (;;) {
      const int bit = reader.next_bit();
      if (bit < 0) return fail("truncated bit stream");
      acc = acc << 1 | static_cast<std::uint32_t>(bit);
      ++len;
      if (len > kMaxCodeLen) return fail("invalid code");
      const std::uint32_t offset = acc - first_code[len];
      if (count[len] > 0 && acc >= first_code[len] && offset < count[len]) {
        out.push_back(symbols[first_index[len] + offset]);
        break;
      }
    }
  }
  return out;
}

double byte_entropy_bits(byte_view input) {
  if (input.empty()) return 0.0;
  std::array<std::uint64_t, kAlphabet> freq{};
  for (std::uint8_t b : input) ++freq[b];
  double h = 0.0;
  const double n = static_cast<double>(input.size());
  for (std::uint64_t f : freq) {
    if (f == 0) continue;
    const double p = static_cast<double>(f) / n;
    h -= p * std::log2(p);
  }
  return h;
}

}  // namespace cloudsync
