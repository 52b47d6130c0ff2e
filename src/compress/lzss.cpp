#include "compress/lzss.hpp"

#include <algorithm>
#include <bit>
#include <cstring>
#include <memory>
#include <stdexcept>
#include <vector>

#include "compress/varint.hpp"
#include "util/crc32.hpp"

namespace cloudsync {

namespace {

constexpr std::uint8_t kMagic0 = 'c';
constexpr std::uint8_t kMagic1 = 'z';
constexpr std::uint8_t kFormatStored = 0;
constexpr std::uint8_t kFormatLzss = 1;

constexpr std::uint32_t kWindowSize = 64 * 1024;
constexpr std::uint32_t kMinMatch = 4;
constexpr std::uint32_t kMaxMatch = kMinMatch + 255;  // length fits one byte
constexpr std::size_t kHashBits = 15;
constexpr std::size_t kHashSize = 1u << kHashBits;
/// Chain links are kept for the last kChainSlots positions, in slot
/// `position % kChainSlots`. A link is only read for a position inside the
/// window, and no insert has reached that slot's next owner yet.
constexpr std::uint32_t kChainSlots = 128 * 1024;
static_assert(kChainSlots > kWindowSize);
/// Contiguous input a parse holds at once: the window, the lookahead and
/// the bytes fed since the last slide. Smaller inputs need only their size.
constexpr std::size_t kBufferBytes = 256 * 1024;
/// Matching at a position reads up to kMaxMatch bytes ahead, and inserting
/// the positions a match covers hashes three bytes past it. Until the input
/// ends, a parse stops this far short of its last byte.
constexpr std::uint32_t kLookahead = kMaxMatch + 3;
/// A parse that would start above this position rebases the tables first,
/// so positions stay below kRebaseAbove + 2 * kBufferBytes, far from 2^31.
constexpr std::uint32_t kRebaseAbove = 4u << 20;

struct level_config {
  std::size_t max_chain;  ///< How many previous positions to examine.
  std::uint32_t nice_len; ///< Stop searching once a match this long is found.
  bool lazy;              ///< Defer one byte to look for a better match.
  std::uint32_t accept_len; ///< Shortest match worth emitting (>= kMinMatch).
                            ///< Low levels skip short matches entirely — the
                            ///< "quite low" compression of mobile clients.
};

level_config config_for(int level) {
  switch (std::clamp(level, 1, 9)) {
    case 1: return {2, 16, false, 8};
    case 2: return {4, 24, false, 7};
    case 3: return {16, 32, false, kMinMatch};
    case 4: return {24, 48, false, kMinMatch};
    case 5: return {32, 64, true, kMinMatch};
    case 6: return {64, 96, true, kMinMatch};
    case 7: return {128, 128, true, kMinMatch};
    case 8: return {256, 192, true, kMinMatch};
    default: return {1024, kMaxMatch, true, kMinMatch};
  }
}

/// Level 0 and inputs too short to hold a match get a stored frame.
bool stored_only(int level, std::uint64_t size) {
  return level <= 0 || size < kMinMatch + 4;
}

inline std::uint32_t load32(const std::uint8_t* p) {
  std::uint32_t v;
  std::memcpy(&v, p, 4);
  return v;
}

inline std::uint64_t load64(const std::uint8_t* p) {
  std::uint64_t v;
  std::memcpy(&v, p, 8);
  return v;
}

inline std::uint32_t hash4(const std::uint8_t* p) {
  return (load32(p) * 2654435761u) >> (32 - kHashBits);
}

/// Length of the common prefix of `a` and `b`, at most `max_len`. Compares
/// eight bytes at a time and reads nothing past `max_len`.
inline std::uint32_t common_prefix(const std::uint8_t* a,
                                   const std::uint8_t* b,
                                   std::uint32_t max_len) {
  static_assert(std::endian::native == std::endian::little);
  std::uint32_t len = 0;
  for (; len + 8 <= max_len; len += 8) {
    const std::uint64_t diff = load64(a + len) ^ load64(b + len);
    if (diff != 0) {
      return len + static_cast<std::uint32_t>(std::countr_zero(diff)) / 8;
    }
  }
  while (len < max_len && a[len] == b[len]) ++len;
  return len;
}

/// Hash heads and chain links over 32-bit positions. Every parse claims
/// positions above all stored ones (`next`), so whatever earlier parses
/// left lies below its floor and fails the window test: nothing is cleared
/// between parses.
struct match_tables {
  std::uint32_t head[kHashSize] = {};
  std::uint32_t prev[kChainSlots] = {};
  std::uint32_t next = 1;  ///< above every stored position; 0 is never one

  /// Moves every stored position down by the largest multiple of
  /// kChainSlots below `keep` (zlib's slide_hash), so each link keeps its
  /// slot. Positions that would fall below 1 become 0, which no parse
  /// matches. Returns where `keep` is now.
  std::uint32_t rebase(std::uint32_t keep) {
    const std::uint32_t delta = (keep - 1) / kChainSlots * kChainSlots;
    // Positions stay below 2^31, so the difference is exact as an int32_t,
    // and this form vectorizes without SSE4.1.
    const auto shift = [delta](std::uint32_t& p) {
      const auto d = static_cast<std::int32_t>(p - delta);
      p = d < 0 ? 0 : static_cast<std::uint32_t>(d);
    };
    for (std::uint32_t& p : head) shift(p);
    for (std::uint32_t& p : prev) shift(p);
    return keep - delta;
  }
};

/// The calling thread's idle tables. A parse takes them and gives them back
/// when it ends; one that starts while another parse on the same thread
/// still holds them (two live stream sizers) gets fresh ones.
std::unique_ptr<match_tables>& spare_tables() {
  thread_local std::unique_ptr<match_tables> spare;
  return spare;
}

struct lz_match {
  std::uint32_t length = 0;
  std::uint32_t distance = 0;
};

/// The lowest position a match at `pos` may reach: the window, cut off at
/// `floor`.
inline std::uint32_t window_start(std::uint32_t pos, std::uint32_t floor) {
  return pos - floor > kWindowSize ? pos - kWindowSize : floor;
}

/// Hash-chain match finder over one stretch of contiguous input: the byte
/// at position p is data[p - origin], and positions below `floor` belong to
/// earlier parses or have left the window.
struct match_finder {
  match_tables* t;
  level_config cfg;
  const std::uint8_t* data;
  std::uint32_t origin;  ///< position of the first byte still held
  std::uint32_t floor;
  std::uint32_t end;     ///< one past the last byte in data

  const std::uint8_t* at(std::uint32_t pos) const {
    return data + (pos - origin);
  }

  /// Best match at `pos` against the preceding window: the first candidate
  /// on the hash chain with the longest common prefix. Forced inline: as a
  /// call from the parse loop's two sites it doubles the cost of small
  /// inputs.
  [[gnu::always_inline]] lz_match find(std::uint32_t pos) const {
    lz_match best;
    if (end - pos < kMinMatch) return best;
    const std::uint32_t limit = window_start(pos, floor);
    const std::uint32_t max_len = std::min(kMaxMatch, end - pos);
    const std::uint8_t* const here = at(pos);
    const std::uint32_t first4 = load32(here);
    std::uint32_t cand = t->head[hash4(here)];
    for (std::size_t chain = cfg.max_chain; cand >= limit && chain > 0;
         --chain) {
      // Quick reject. No match shorter than kMinMatch is ever emitted, and
      // a longer one than `best` must also agree at offset best.length.
      const std::uint8_t* const there = at(cand);
      if (load32(there) == first4 && there[best.length] == here[best.length]) {
        const std::uint32_t len =
            kMinMatch + common_prefix(there + kMinMatch, here + kMinMatch,
                                      max_len - kMinMatch);
        if (len > best.length) {
          best = {len, pos - cand};
          if (len >= cfg.nice_len || len == max_len) break;
        }
      }
      cand = t->prev[cand % kChainSlots];
    }
    if (best.length < cfg.accept_len) best = {};
    return best;
  }

  /// Register position `pos` in the hash chains.
  void insert(std::uint32_t pos) const {
    if (end - pos < 4) return;
    const std::uint32_t h = hash4(at(pos));
    t->prev[pos % kChainSlots] = t->head[h];
    t->head[h] = pos;
  }
};

/// The one LZSS parse: greedy, or lazy one byte ahead, over an input of
/// known size whose bytes may arrive in pieces. lzss_compress, the stream
/// sizer and the probe all run it and differ only in the token sink
/// (token_writer or token_counter) and in who holds the bytes.
///
/// The caller passes the input from offset() on. After a parse that did not
/// reach the end, slide() says how many of those bytes no match can reach
/// any more, and rebases the positions so that they stay bounded.
///
/// A parse may also start at a token start of an earlier parse of the same
/// bytes (resume()): it then holds only the window before that point and
/// inserts its positions into the chains before parsing on.
class lz_parser {
 public:
  lz_parser(const level_config& cfg, std::uint64_t total)
      : total_(total),
        tables_(spare_tables() ? std::move(spare_tables())
                               : std::make_unique<match_tables>()) {
    if (tables_->next > kRebaseAbove) {
      tables_->next = tables_->rebase(tables_->next);
    }
    pos_ = tables_->next;
    m_ = {tables_.get(), cfg, nullptr, pos_, pos_, pos_};
  }

  ~lz_parser() {
    tables_->next = m_.end;
    if (!spare_tables()) spare_tables() = std::move(tables_);
  }

  lz_parser(const lz_parser&) = delete;
  lz_parser& operator=(const lz_parser&) = delete;

  /// Input offset of data[0] in parse().
  std::uint64_t offset() const { return offset_; }
  /// Input offset of the cursor: where the next token starts.
  std::uint64_t cursor() const { return offset_ + (pos_ - m_.origin); }

  /// Before the first parse(): starts the cursor at input offset `at`, a
  /// token start of an earlier parse whose input agrees with this one up to
  /// at + kLookahead. The caller then passes the input from offset(), up to
  /// 64 KiB before `at`, and the first parse() that holds the bytes up to
  /// at + 3 inserts the positions before `at` into the chains, once.
  void resume(std::uint64_t at) {
    const auto back =
        static_cast<std::uint32_t>(std::min<std::uint64_t>(at, kWindowSize));
    offset_ = at - back;
    pos_ += back;
    unprimed_ = back;
  }

  /// Parses on from the cursor as far as `data[0, n)` allows: to the end
  /// when it holds the input's last byte, otherwise every position whose
  /// lookahead it holds. Stops early at the first token start at or past
  /// input offset `until`. `n` is at most kBufferBytes.
  template <class Sink>
  void parse(const std::uint8_t* data, std::size_t n, Sink& sink,
             std::uint64_t until = UINT64_MAX) {
    m_.data = data;
    m_.end = m_.origin + static_cast<std::uint32_t>(n);
    // A local copy keeps the finder in registers: the writer's byte stores
    // could alias members.
    const match_finder m = m_;
    if (unprimed_ > 0) {
      // Inserting position p hashes the bytes [p, p + 4).
      if (m.end < pos_ + 3) return;
      for (std::uint32_t p = pos_ - unprimed_; p < pos_; ++p) m.insert(p);
      unprimed_ = 0;
    }
    std::uint32_t stop = offset_ + n == total_
                             ? m.end
                             : m.end - std::min(m.end, kLookahead - 1);
    const std::uint64_t ahead = until - std::min(until, cursor());
    if (stop > pos_ && ahead < stop - pos_) {
      stop = pos_ + static_cast<std::uint32_t>(ahead);
    }
    std::uint32_t pos = pos_;
    lz_match next;           // find(pos) of the last lazy probe, if it won
    bool have_next = false;
    while (pos < stop) {
      const lz_match cur = have_next ? next : m.find(pos);
      have_next = false;
      m.insert(pos);
      if (cur.length == 0) {
        sink.literal(*m.at(pos));
        ++pos;
        continue;
      }
      if (m.cfg.lazy && pos + 1 < m.end) {
        next = m.find(pos + 1);
        if (next.length > cur.length + 1) {
          // The deferred match is better: emit a literal and take `next`
          // from pos + 1.
          sink.literal(*m.at(pos));
          ++pos;
          have_next = true;
          continue;
        }
      }
      sink.match(cur.distance, cur.length);
      // Register the covered positions so later matches can reference them.
      for (std::uint32_t i = 1; i < cur.length; ++i) m.insert(pos + i);
      pos += cur.length;
    }
    pos_ = pos;
  }

  /// Drops every byte below the window at the cursor and returns how many
  /// that is, then moves all positions down by a multiple of kChainSlots.
  std::size_t slide() {
    const std::uint32_t keep = window_start(pos_, m_.floor);
    const std::size_t drop = keep - m_.origin;
    offset_ += drop;
    m_.origin = m_.floor = tables_->rebase(keep);
    pos_ -= keep - m_.origin;
    m_.end -= keep - m_.origin;
    return drop;
  }

 private:
  const std::uint64_t total_;
  std::unique_ptr<match_tables> tables_;
  match_finder m_;            ///< data and end as of the last parse
  std::uint64_t offset_ = 0;  ///< input offset of the byte at m_.origin
  std::uint32_t pos_;         ///< next position to parse
  std::uint32_t unprimed_ = 0;  ///< positions before pos_ not yet inserted
};

/// Parses all of `input`, sliding every kBufferBytes like the stream sizer.
template <class Sink>
void parse_all(byte_view input, const level_config& cfg, Sink& sink) {
  lz_parser parser(cfg, input.size());
  for (;;) {
    const std::size_t n =
        std::min<std::size_t>(input.size() - parser.offset(), kBufferBytes);
    parser.parse(input.data() + parser.offset(), n, sink);
    if (parser.offset() + n == input.size()) return;
    parser.slide();
  }
}

/// Token emitter with one flag byte per 8 tokens (bit set = match).
class token_writer {
 public:
  explicit token_writer(byte_buffer& out) : out_(out) {}

  void literal(std::uint8_t b) {
    begin_token(false);
    out_.push_back(b);
  }

  void match(std::uint32_t distance, std::uint32_t length) {
    begin_token(true);
    out_.push_back(static_cast<std::uint8_t>(distance - 1));
    out_.push_back(static_cast<std::uint8_t>((distance - 1) >> 8));
    out_.push_back(static_cast<std::uint8_t>(length - kMinMatch));
  }

 private:
  void begin_token(bool is_match) {
    if (bit_ == 8) {
      flag_pos_ = out_.size();
      out_.push_back(0);
      bit_ = 0;
    }
    if (is_match) out_[flag_pos_] |= static_cast<std::uint8_t>(1u << bit_);
    ++bit_;
  }

  byte_buffer& out_;
  std::size_t flag_pos_ = 0;
  unsigned bit_ = 8;
};

/// Counts the tokens token_writer would write; frame_size() turns the
/// counts into bytes.
struct token_counter {
  std::uint64_t literals = 0;
  std::uint64_t matches = 0;

  void literal(std::uint8_t) { ++literals; }
  void match(std::uint32_t, std::uint32_t) { ++matches; }
};

/// Magic, format byte and the varint input size.
std::uint64_t header_size(std::uint64_t size) {
  std::uint64_t varint = 1;
  while (size >= 0x80) {
    size >>= 7;
    ++varint;
  }
  return 3 + varint;
}

std::uint64_t stored_frame_size(std::uint64_t size) {
  return header_size(size) + size + 4;
}

/// The size of the frame lzss_compress returns for `size` input bytes that
/// parse into `tokens`, stored-frame fallback included.
std::uint64_t frame_size(std::uint64_t size, const token_counter& tokens) {
  const std::uint64_t token_count = tokens.literals + tokens.matches;
  const std::uint64_t lzss = header_size(size) + (token_count + 7) / 8 +
                             tokens.literals + 3 * tokens.matches + 4;
  return lzss >= size + 7 + 4 ? stored_frame_size(size) : lzss;
}

/// lzss_compress(input, {level}).size(), counted rather than written.
std::uint64_t counted_frame_size(byte_view input, int level) {
  if (stored_only(level, input.size())) return stored_frame_size(input.size());
  token_counter tokens;
  parse_all(input, config_for(level), tokens);
  return frame_size(input.size(), tokens);
}

byte_buffer make_stored_frame(byte_view input) {
  byte_buffer out;
  out.reserve(input.size() + 16);
  out.push_back(kMagic0);
  out.push_back(kMagic1);
  out.push_back(kFormatStored);
  put_varint(out, input.size());
  append(out, input);
  const std::uint32_t crc = crc32(input);
  for (int i = 0; i < 4; ++i) {
    out.push_back(static_cast<std::uint8_t>(crc >> (8 * i)));
  }
  return out;
}

}  // namespace

byte_buffer lzss_compress(byte_view input, lzss_params params) {
  if (stored_only(params.level, input.size())) {
    return make_stored_frame(input);
  }
  byte_buffer out;
  out.reserve(input.size() / 2 + 32);
  out.push_back(kMagic0);
  out.push_back(kMagic1);
  out.push_back(kFormatLzss);
  put_varint(out, input.size());

  token_writer writer(out);
  parse_all(input, config_for(params.level), writer);

  const std::uint32_t crc = crc32(input);
  for (int i = 0; i < 4; ++i) {
    out.push_back(static_cast<std::uint8_t>(crc >> (8 * i)));
  }

  // If the "compressed" stream expanded, fall back to a stored frame: the
  // consumer always gets min(original, compressed) semantics, like gzip.
  if (out.size() >= input.size() + 7 + 4) {
    return make_stored_frame(input);
  }
  return out;
}

byte_buffer lzss_decompress(byte_view frame) {
  std::size_t pos = 0;
  auto fail = [](const char* why) -> byte_buffer {
    throw std::runtime_error(std::string("lzss_decompress: ") + why);
  };
  if (frame.size() < 7 || frame[0] != kMagic0 || frame[1] != kMagic1) {
    return fail("bad magic");
  }
  const std::uint8_t format = frame[2];
  pos = 3;
  const auto orig_size = get_varint(frame, pos);
  if (!orig_size) return fail("truncated header");
  if (frame.size() < pos + 4) return fail("truncated frame");
  const std::size_t body_end = frame.size() - 4;
  // No body byte decodes to more than kMaxMatch bytes, so a larger declared
  // size cannot be honest; check before reserving it.
  if (*orig_size > kMaxMatch * static_cast<std::uint64_t>(body_end - pos)) {
    return fail("declared size exceeds the frame");
  }

  byte_buffer out;
  out.reserve(*orig_size);

  if (format == kFormatStored) {
    if (body_end - pos != *orig_size) return fail("stored size mismatch");
    out.assign(frame.begin() + static_cast<std::ptrdiff_t>(pos),
               frame.begin() + static_cast<std::ptrdiff_t>(body_end));
  } else if (format == kFormatLzss) {
    std::uint8_t flags = 0;
    unsigned bit = 8;
    while (out.size() < *orig_size) {
      if (bit == 8) {
        if (pos >= body_end) return fail("truncated token stream");
        flags = frame[pos++];
        bit = 0;
      }
      if (flags & (1u << bit)) {
        if (pos + 3 > body_end) return fail("truncated match");
        const std::size_t distance =
            (static_cast<std::size_t>(frame[pos]) |
             static_cast<std::size_t>(frame[pos + 1]) << 8) + 1;
        const std::size_t length = frame[pos + 2] + kMinMatch;
        pos += 3;
        if (distance > out.size()) return fail("match before start");
        // Byte-by-byte copy: overlapping matches (distance < length) are the
        // RLE case and must replicate.
        std::size_t src = out.size() - distance;
        for (std::size_t i = 0; i < length; ++i) {
          out.push_back(out[src + i]);
        }
      } else {
        if (pos >= body_end) return fail("truncated literal");
        out.push_back(frame[pos++]);
      }
      ++bit;
    }
    if (out.size() != *orig_size) return fail("size mismatch");
  } else {
    return fail("unknown format");
  }

  std::uint32_t crc = 0;
  for (int i = 0; i < 4; ++i) {
    crc |= static_cast<std::uint32_t>(frame[body_end + i]) << (8 * i);
  }
  if (crc32(out) != crc) return fail("crc mismatch");
  return out;
}

std::vector<sample_window> compression_sample_windows(
    std::size_t size, std::size_t sample_budget) {
  std::vector<sample_window> windows;
  if (size == 0) return windows;
  if (size <= sample_budget) {
    windows.push_back({0, size});
    return windows;
  }
  // Sample up to 8 evenly spaced windows.
  const std::size_t window = sample_budget / 8;
  windows.reserve(8);
  for (int i = 0; i < 8; ++i) {
    const std::size_t off = (size - window) * static_cast<std::size_t>(i) / 7;
    windows.push_back({off, window});
  }
  return windows;
}

double probe_totals::ratio() const {
  if (in == 0) return 1.0;
  return static_cast<double>(in) /
         static_cast<double>(std::max<std::uint64_t>(1, out));
}

probe_totals probe_windows(const std::vector<byte_view>& windows) {
  probe_totals t;
  for (const byte_view chunk : windows) {
    t.in += chunk.size();
    t.out += counted_frame_size(chunk, kProbeLevel);
  }
  return t;
}

double estimate_ratio_of_windows(const std::vector<byte_view>& windows) {
  return probe_windows(windows).ratio();
}

double estimate_compression_ratio(byte_view input, std::size_t sample_budget) {
  if (input.empty()) return 1.0;
  std::vector<byte_view> views;
  for (const sample_window& w : compression_sample_windows(input.size(),
                                                           sample_budget)) {
    views.push_back(input.subspan(w.offset, w.length));
  }
  return estimate_ratio_of_windows(views);
}

namespace {

/// Checkpoints lie at least this far apart, and at least 1/1024 of the
/// input apart (rounded up to a power of two).
constexpr std::uint64_t kMinCheckpointSpacing = 4 * 1024;

std::uint64_t checkpoint_spacing(std::uint64_t size) {
  return std::max(kMinCheckpointSpacing, std::bit_ceil((size + 1023) / 1024));
}

}  // namespace

/// What a sizer with a token stream holds while it is being fed.
struct lzss_stream_sizer::state {
  state(int level, std::uint64_t total)
      : parser(config_for(level), total),
        capacity(static_cast<std::size_t>(
            std::min<std::uint64_t>(total, kBufferBytes))),
        level(level),
        total(total),
        spacing(checkpoint_spacing(total)),
        // An input no longer than the spacing has one checkpoint, so its
        // summary is not kept and nothing is recorded.
        next_mark(total <= spacing ? UINT64_MAX : 0) {
    buffer.reserve(capacity);
  }

  /// Records token start `at`, with the tokens before it, if it is the first
  /// at or past the next multiple of the spacing.
  void keep(std::uint64_t at, std::uint64_t literals, std::uint64_t matches) {
    if (at < next_mark) return;
    checkpoints.push_back({at, literals, matches});
    next_mark = (at / spacing + 1) * spacing;
  }

  /// Offset in this input of the base's checkpoint `i`, which lies in the
  /// common suffix.
  std::uint64_t shifted(std::size_t i) const {
    return base->checkpoints[i].offset + total - base->size;
  }

  bool can_rejoin() const {
    return base != nullptr && rejoin < base->checkpoints.size();
  }

  /// Starts the parse from `from`'s summary of an earlier version (see
  /// lzss_stream_sizer's class comment).
  void resume(std::shared_ptr<const lzss_summary> from, std::uint64_t prefix,
              std::uint64_t suffix) {
    const std::vector<lzss_checkpoint>& old = from->checkpoints;
    const auto by_offset = [](std::uint64_t off, const lzss_checkpoint& c) {
      return off < c.offset;
    };
    // Every token before the last checkpoint at least kLookahead bytes
    // before the first changed byte read only unchanged bytes.
    std::size_t r = 0;
    if (prefix >= kLookahead) {
      r = static_cast<std::size_t>(std::upper_bound(old.begin(), old.end(),
                                                    prefix - kLookahead,
                                                    by_offset) -
                                   old.begin()) - 1;
    }
    for (std::size_t i = 0; i <= r; ++i) {
      keep(old[i].offset, old[i].literals, old[i].matches);
    }
    tokens = {old[r].literals, old[r].matches};
    parser.resume(old[r].offset);
    // From an old checkpoint whose window starts past the edit in both
    // inputs on, the two parses read the same bytes.
    const std::uint64_t past_edit = from->size - suffix + kWindowSize;
    rejoin = static_cast<std::size_t>(
        std::upper_bound(old.begin(), old.end(), past_edit - 1, by_offset) -
        old.begin());
    base = std::move(from);
  }

  /// Parses the held bytes, stopping at every checkpoint mark and every
  /// rejoin candidate on the way; at a candidate that is also a token start
  /// of this parse, the base's tail completes the counts.
  void parse_held() {
    for (;;) {
      const std::uint64_t until =
          std::min(next_mark, can_rejoin() ? shifted(rejoin) : UINT64_MAX);
      parser.parse(buffer.data(), buffer.size(), tokens, until);
      const std::uint64_t at = parser.cursor();
      if (at < until || at == total) return;
      keep(at, tokens.literals, tokens.matches);
      while (can_rejoin() && shifted(rejoin) < at) ++rejoin;
      if (can_rejoin() && shifted(rejoin) == at) {
        const std::vector<lzss_checkpoint>& old = base->checkpoints;
        const lzss_checkpoint& join = old[rejoin];
        for (std::size_t i = rejoin; i < old.size(); ++i) {
          keep(shifted(i), tokens.literals + old[i].literals - join.literals,
               tokens.matches + old[i].matches - join.matches);
        }
        tokens.literals += base->literals - join.literals;
        tokens.matches += base->matches - join.matches;
        rejoined = true;
        return;
      }
    }
  }

  lz_parser parser;
  token_counter tokens;
  byte_buffer buffer;  ///< the input from parser.offset() on
  std::size_t capacity;
  const int level;
  const std::uint64_t total;
  const std::uint64_t spacing;
  std::uint64_t next_mark;  ///< the next checkpoint is the first token
                            ///< start at or past this offset
  std::vector<lzss_checkpoint> checkpoints;
  std::shared_ptr<const lzss_summary> base;  ///< the parse resumed from
  std::size_t rejoin = 0;  ///< the base's next checkpoint to rejoin at
  bool rejoined = false;   ///< the counts are complete
};

lzss_stream_sizer::lzss_stream_sizer(std::uint64_t total_size,
                                     lzss_params params)
    : total_(total_size) {
  if (!stored_only(params.level, total_size)) {
    state_ = std::make_unique<state>(params.level, total_size);
  }
}

lzss_stream_sizer::~lzss_stream_sizer() = default;

void lzss_stream_sizer::reuse(std::shared_ptr<const lzss_summary> base,
                              std::uint64_t prefix, std::uint64_t suffix) {
  if (fed_ > 0 || finished_ || (state_ && state_->base)) {
    throw std::logic_error("lzss_stream_sizer: reuse after the first feed");
  }
  if (!base) return;
  if (prefix > std::min(base->size, total_) ||
      suffix > std::min(base->size, total_) - prefix) {
    throw std::logic_error("lzss_stream_sizer: prefix and suffix overlap");
  }
  if (!state_ || base->level != state_->level || base->checkpoints.empty() ||
      base->checkpoints.front().offset != 0) {
    return;
  }
  state_->resume(std::move(base), prefix, suffix);
}

void lzss_stream_sizer::feed(byte_view window) {
  if (finished_) throw std::logic_error("lzss_stream_sizer: already finished");
  if (window.size() > total_ - fed_) {
    throw std::logic_error("lzss_stream_sizer: fed past the declared size");
  }
  const std::uint64_t at = fed_;
  fed_ += window.size();
  if (!state_ || state_->rejoined) return;
  state& s = *state_;
  // A resumed parse holds the input from the window before its cursor on.
  const std::uint64_t held_end = s.parser.offset() + s.buffer.size();
  if (at < held_end) {
    window = window.subspan(static_cast<std::size_t>(
        std::min<std::uint64_t>(window.size(), held_end - at)));
  }
  while (!window.empty()) {
    if (s.buffer.size() == s.capacity) {
      const std::size_t drop = s.parser.slide();
      s.buffer.erase(s.buffer.begin(),
                     s.buffer.begin() + static_cast<std::ptrdiff_t>(drop));
    }
    const std::size_t take =
        std::min(window.size(), s.capacity - s.buffer.size());
    append(s.buffer, window.first(take));
    window = window.subspan(take);
    s.parse_held();
    if (s.rejoined) return;
  }
}

std::uint64_t lzss_stream_sizer::finish() {
  if (fed_ != total_) {
    throw std::logic_error("lzss_stream_sizer: fed size != declared size");
  }
  if (finished_) throw std::logic_error("lzss_stream_sizer: already finished");
  finished_ = true;
  if (!state_) return stored_frame_size(total_);
  // The feed that brought the last byte parsed to the end, or rejoined.
  state& s = *state_;
  const std::uint64_t size = frame_size(total_, s.tokens);
  if (s.checkpoints.size() > 1) {
    summary_ = std::make_shared<const lzss_summary>(
        lzss_summary{s.level, total_, s.tokens.literals, s.tokens.matches,
                     std::move(s.checkpoints)});
  }
  state_.reset();  // hands the tables back to this thread
  return size;
}

}  // namespace cloudsync
