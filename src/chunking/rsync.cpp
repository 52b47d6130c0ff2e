#include "chunking/rsync.hpp"

#include <algorithm>
#include <bit>
#include <stdexcept>

#include "chunking/fixed_chunker.hpp"
#include "compress/varint.hpp"
#include "util/crc32.hpp"

namespace cloudsync {

namespace {
/// Feed granularity of the whole-buffer pumps: large enough that the
/// per-window overhead vanishes, small enough that the job's internal
/// buffer stays a rounding error next to the block size.
constexpr std::size_t kPumpWindowBytes = 256 * 1024;

/// Compact the job buffer once this many consumed bytes pile up in front.
constexpr std::size_t kCompactBytes = 256 * 1024;

/// A weak sum's bit in delta_job's prefilter: the top (64 - shift) bits of
/// a multiplicative hash.
std::uint64_t filter_hash(std::uint32_t weak, unsigned shift) {
  return (weak * 0x9e3779b97f4a7c15ull) >> shift;
}
}  // namespace

sig_job::sig_job(std::size_t block_size, std::uint64_t size_hint) {
  if (block_size == 0) throw invalid_block_size();
  sig_.block_size = block_size;
  if (size_hint > 0) {
    sig_.blocks.reserve(
        static_cast<std::size_t>(size_hint / block_size + 1));
  }
}

void sig_job::feed(byte_view window) {
  sig_.file_size += window.size();
  while (!window.empty()) {
    if (fill_ == 0 && window.size() / sig_.block_size >= 2) {
      window = window.subspan(sign_whole_blocks(window));
      continue;
    }
    const std::size_t take =
        std::min(window.size(), sig_.block_size - fill_);
    const byte_view piece = window.first(take);
    weak_accumulate(piece, a_, b_);
    strong_.update(piece);
    fill_ += take;
    window = window.subspan(take);
    if (fill_ == sig_.block_size) {
      sig_.blocks.push_back({(b_ << 16) | (a_ & 0xffffu), strong_.finish()});
      a_ = b_ = 0;
      strong_ = md5_hasher{};
      fill_ = 0;
    }
  }
}

/// Signs the whole blocks at the front of `window`, the strong sums
/// kMd5MaxLanes at a time straight from the window (a lone one on md5()),
/// and returns the bytes they span.
std::size_t sig_job::sign_whole_blocks(byte_view window) {
  const std::size_t bs = sig_.block_size;
  const std::size_t whole = window.size() / bs;
  const std::uint8_t* msgs[kMd5MaxLanes];
  md5_digest strong[kMd5MaxLanes];
  for (std::size_t first = 0; first < whole; first += kMd5MaxLanes) {
    const std::size_t n = std::min(kMd5MaxLanes, whole - first);
    for (std::size_t k = 0; k < n; ++k) {
      msgs[k] = window.data() + (first + k) * bs;
    }
    if (n == 1) {
      strong[0] = md5(byte_view(msgs[0], bs));
    } else {
      md5_many(msgs, n, bs, strong);
    }
    for (std::size_t k = 0; k < n; ++k) {
      sig_.blocks.push_back({weak_checksum(byte_view(msgs[k], bs)), strong[k]});
    }
  }
  return whole * bs;
}

file_signature sig_job::finish() {
  if (!finished_) {
    finished_ = true;
    if (fill_ > 0) {
      sig_.blocks.push_back({(b_ << 16) | (a_ & 0xffffu), strong_.finish()});
    }
  }
  return std::move(sig_);
}

file_signature compute_signature(byte_view data, std::size_t block_size) {
  sig_job job(block_size, data.size());
  // Pump in bounded windows: the job splits at block boundaries itself, and
  // both per-block sums stream, so windowing cannot change the result.
  for (std::size_t off = 0; off < data.size(); off += kPumpWindowBytes) {
    job.feed(data.subspan(off, std::min(kPumpWindowBytes,
                                        data.size() - off)));
  }
  return job.finish();
}

file_signature compute_signature_ref(const content_ref& data,
                                     std::size_t block_size) {
  sig_job job(block_size, data.size());
  data.walk([&](byte_view seg) { job.feed(seg); });
  return job.finish();
}

void delta_op::walk_literal(const std::function<void(byte_view)>& fn) const {
  if (op != kind::literal) return;
  if (ref.empty()) {
    if (!bytes.empty()) fn(bytes);
  } else {
    ref.walk(fn);
  }
}

std::uint64_t file_delta::literal_bytes() const {
  std::uint64_t n = 0;
  for (const delta_op& op : ops) n += op.literal_size();
  return n;
}

std::uint64_t file_delta::copied_bytes(std::uint64_t old_file_size) const {
  if (block_size == 0) return 0;
  const std::uint64_t full_blocks = old_file_size / block_size;
  const std::uint64_t tail = old_file_size % block_size;
  std::uint64_t n = 0;
  for (const delta_op& op : ops) {
    if (op.op != delta_op::kind::copy) continue;
    for (std::uint64_t b = op.block_index;
         b < op.block_index + op.block_count; ++b) {
      n += b < full_blocks ? block_size : tail;
    }
  }
  return n;
}

delta_job::delta_job(const file_signature& sig)
    : sig_(sig),
      bs_(sig.block_size),
      degenerate_(sig.block_size == 0 || sig.blocks.empty()),
      rc_(sig.block_size == 0 ? 1 : sig.block_size) {
  if (!degenerate_) {
    // Index full-size signature blocks by weak checksum. The (possibly
    // short) final block is handled separately at the tail.
    full_blocks_ = sig.file_size / bs_;
    weak_index_.reserve(sig.blocks.size());
    for (std::uint64_t i = 0; i < full_blocks_; ++i) {
      weak_index_.emplace(sig.blocks[i].weak, i);
    }
    if (full_blocks_ > 0) {
      // 64 bits per block, so a weak sum no block has passes about once in
      // 64 probes; at most 8 Mi bits.
      const std::uint64_t bits = std::bit_ceil(std::clamp<std::uint64_t>(
          full_blocks_ * 64, 64, std::uint64_t{1} << 23));
      filter_shift_ = 64 - static_cast<unsigned>(std::countr_zero(bits));
      weak_filter_.assign(static_cast<std::size_t>(bits / 64), 0);
      for (std::uint64_t i = 0; i < full_blocks_; ++i) {
        const std::uint64_t h = filter_hash(sig.blocks[i].weak, filter_shift_);
        weak_filter_[h / 64] |= std::uint64_t{1} << (h % 64);
      }
    }
    if (full_blocks_ >= 2) lanes_ = kMd5MaxLanes;
  }
}

bool delta_job::may_be_indexed(std::uint32_t weak) const {
  if (weak_filter_.empty()) return false;
  const std::uint64_t h = filter_hash(weak, filter_shift_);
  return (weak_filter_[h / 64] >> (h % 64) & 1) != 0;
}

/// The strong sum of the window at pos_: the next look-ahead digest, or a
/// new look-ahead from pos_ when none is left.
md5_digest delta_job::strong_at_pos() {
  if (ahead_next_ < ahead_count_) return ahead_strong_[ahead_next_++];
  const std::uint8_t* msgs[kMd5MaxLanes];
  std::size_t n = 0;
  for (std::uint64_t q = pos_; n < lanes_ && q + bs_ <= fed_; q += bs_) {
    const byte_view window = buffered(q, bs_);
    if (n > 0) {
      const std::uint32_t weak = weak_checksum(window);
      if (!may_be_indexed(weak) || !weak_index_.contains(weak)) break;
      ahead_weak_[n] = weak;
    }
    msgs[n++] = window.data();
  }
  if (n == 1) {
    ahead_strong_[0] = md5(byte_view(msgs[0], bs_));
  } else {
    md5_many(msgs, n, bs_, ahead_strong_);
  }
  ahead_count_ = n;
  ahead_next_ = 1;
  return ahead_strong_[0];
}

byte_view delta_job::buffered(std::uint64_t pos, std::size_t len) const {
  return byte_view(buf_).subspan(static_cast<std::size_t>(pos - base_), len);
}

void delta_job::compact() {
  const std::size_t consumed = static_cast<std::size_t>(pos_ - base_);
  if (consumed < kCompactBytes) return;
  buf_.erase(buf_.begin(),
             buf_.begin() + static_cast<std::ptrdiff_t>(consumed));
  base_ = pos_;
}

void delta_job::emit_copy(std::uint64_t block) {
  if (!events_.empty() && events_.back().copy &&
      events_.back().block_index + events_.back().block_count == block) {
    ++events_.back().block_count;
    return;
  }
  events_.push_back({true, block, 1, 0, 0});
}

void delta_job::emit_literal(std::uint64_t offset, std::uint64_t length) {
  if (length == 0) return;
  // Literal runs are emitted in file order, so a literal following a
  // literal is always adjacent — merging by kind matches the whole-buffer
  // implementation's trailing-op merge exactly.
  if (!events_.empty() && !events_.back().copy) {
    events_.back().length += length;
    return;
  }
  events_.push_back({false, 0, 0, offset, length});
}

void delta_job::feed(byte_view window) {
  fed_ += window.size();
  if (degenerate_) {
    // The whole file resolves at finish(); only its strong sum is needed
    // (for the short-old-file identity check), so nothing is buffered.
    whole_md5_.update(window);
    return;
  }
  // With a look-ahead, grow straight to what this window and its reach of
  // 16 blocks need instead of doubling up to it: a doubling step holds the
  // old and the new buffer at once.
  if (const std::size_t need = buf_.size() + window.size();
      lanes_ > 1 && need > buf_.capacity()) {
    buf_.reserve(need + lanes_ * bs_);
  }
  append(buf_, window);
  drain(/*final_window=*/false);
  compact();
}

void delta_job::drain(bool final_window) {
  // During feed, stop short of the fed horizon: an unmatched position needs
  // the byte at pos + bs to roll, and whether that byte exists (vs. the file
  // simply ending) is only known at finish(); a weak hit at pos looks ahead
  // over lanes_ windows, which must be buffered to batch.
  const std::uint64_t reach = lanes_ * bs_;
  if (!final_window && fed_ <= reach) return;
  const std::uint64_t horizon = final_window ? fed_ : fed_ - 1 - (reach - bs_);

  while (pos_ + bs_ <= horizon) {
    if (!window_valid_) {
      rc_.reset(buffered(pos_, bs_));
      window_valid_ = true;
    }
    bool matched = false;
    if (may_be_indexed(rc_.value())) {
      auto [it, end] = weak_index_.equal_range(rc_.value());
      if (it != end) {
        const md5_digest strong = strong_at_pos();
        for (; it != end; ++it) {
          if (sig_.blocks[it->second].strong == strong) {
            emit_copy(it->second);
            pos_ += bs_;
            window_valid_ = false;
            matched = true;
            break;
          }
        }
      }
    }
    if (matched) {
      // The next window's weak sum is known if the look-ahead reached it.
      if (ahead_next_ < ahead_count_) {
        rc_.resume(ahead_weak_[ahead_next_]);
        window_valid_ = true;
      }
    } else {
      ahead_next_ = ahead_count_ = 0;
      emit_literal(pos_, 1);
      if (pos_ + bs_ < fed_) {
        rc_.roll(buf_[pos_ - base_], buf_[pos_ + bs_ - base_]);
      } else {
        window_valid_ = false;
      }
      ++pos_;
    }
  }
}

const std::vector<delta_job::event>& delta_job::finish() {
  if (finished_) return events_;
  finished_ = true;
  const std::uint64_t size = fed_;

  if (degenerate_ || size < bs_) {
    // Nothing matchable at full-block granularity: check whether the whole
    // new file equals the old short file; otherwise ship it as one literal.
    const auto whole_strong = [&]() -> md5_digest {
      if (degenerate_) return whole_md5_.finish();
      return md5(buffered(0, static_cast<std::size_t>(size)));
    };
    if (sig_.file_size == size && sig_.blocks.size() == 1 && size > 0 &&
        sig_.blocks[0].strong == whole_strong()) {
      emit_copy(0);
    } else {
      emit_literal(0, size);
    }
    return events_;
  }

  drain(/*final_window=*/true);

  // Tail: the old file's final short block can only align with the last
  // tail_size bytes of the new file. If it matches there, everything between
  // the scan position and that point is literal; otherwise the whole
  // remainder is.
  const bool has_tail = sig_.file_size % bs_ != 0;
  const std::size_t tail_size = static_cast<std::size_t>(sig_.file_size % bs_);
  if (has_tail && size >= tail_size) {
    const std::uint64_t tail_pos = size - tail_size;
    if (tail_pos >= pos_) {
      const byte_view tail_view = buffered(tail_pos, tail_size);
      if (!tail_view.empty() &&
          sig_.blocks[full_blocks_].weak == weak_checksum(tail_view) &&
          sig_.blocks[full_blocks_].strong == md5(tail_view)) {
        emit_literal(pos_, tail_pos - pos_);
        emit_copy(full_blocks_);
        return events_;
      }
    }
  }
  emit_literal(pos_, size - pos_);
  return events_;
}

file_delta compute_delta(const file_signature& sig, byte_view new_data) {
  delta_job job(sig);
  for (std::size_t off = 0; off < new_data.size(); off += kPumpWindowBytes) {
    job.feed(new_data.subspan(off, std::min(kPumpWindowBytes,
                                            new_data.size() - off)));
  }
  file_delta delta;
  delta.block_size = sig.block_size;
  delta.new_file_size = new_data.size();
  for (const delta_job::event& ev : job.finish()) {
    delta_op op;
    if (ev.copy) {
      op.op = delta_op::kind::copy;
      op.block_index = ev.block_index;
      op.block_count = ev.block_count;
    } else {
      const byte_view run = new_data.subspan(
          static_cast<std::size_t>(ev.offset),
          static_cast<std::size_t>(ev.length));
      op.bytes.assign(run.begin(), run.end());
    }
    delta.ops.push_back(std::move(op));
  }
  return delta;
}

std::vector<delta_job::event> compute_delta_events(const file_signature& sig,
                                                   const content_ref& new_data,
                                                   std::size_t window_bytes) {
  if (window_bytes == 0) window_bytes = kPumpWindowBytes;
  delta_job job(sig);
  // Rope segments can be arbitrarily large (a lazy chunk spans the whole
  // file), so re-window them: the job's buffer is bounded by block_size +
  // window_bytes either way.
  new_data.walk([&](byte_view seg) {
    for (std::size_t off = 0; off < seg.size(); off += window_bytes) {
      job.feed(seg.subspan(off, std::min(window_bytes, seg.size() - off)));
    }
  });
  return job.finish();
}

file_delta delta_from_events(std::size_t block_size,
                             const content_ref& new_data,
                             const std::vector<delta_job::event>& events) {
  file_delta delta;
  delta.block_size = block_size;
  delta.new_file_size = new_data.size();
  delta.ops.reserve(events.size());
  for (const delta_job::event& ev : events) {
    delta_op op;
    if (ev.copy) {
      op.op = delta_op::kind::copy;
      op.block_index = ev.block_index;
      op.block_count = ev.block_count;
    } else {
      // Zero-copy literal: pin the run's chunks out of the new file's rope.
      op.ref = new_data.substr(static_cast<std::size_t>(ev.offset),
                               static_cast<std::size_t>(ev.length));
    }
    delta.ops.push_back(std::move(op));
  }
  return delta;
}

file_delta compute_delta_ref(const file_signature& sig,
                             const content_ref& new_data,
                             std::size_t window_bytes) {
  return delta_from_events(sig.block_size, new_data,
                           compute_delta_events(sig, new_data, window_bytes));
}

bool copy_in_range(const delta_op& op, std::uint64_t old_blocks) {
  return op.block_index <= old_blocks &&
         op.block_count <= old_blocks - op.block_index;
}

byte_buffer apply_delta(byte_view old_data, const file_delta& delta) {
  const std::size_t bs = delta.block_size;
  const std::vector<chunk_ref> old_blocks =
      bs > 0 ? fixed_chunks(old_data, bs) : std::vector<chunk_ref>{};
  // What the ops produce, checked against the declared size before that
  // size is reserved: a parsed delta may declare any 64-bit size.
  std::uint64_t produced = 0;
  for (const delta_op& op : delta.ops) {
    if (op.op == delta_op::kind::literal) {
      produced += op.literal_size();
      continue;
    }
    if (!copy_in_range(op, old_blocks.size())) {
      throw std::runtime_error("apply_delta: block index out of range");
    }
    if (op.block_count > 0) {
      const chunk_ref& last = old_blocks[op.block_index + op.block_count - 1];
      produced += last.offset + last.size - old_blocks[op.block_index].offset;
    }
  }
  if (produced != delta.new_file_size) {
    throw std::runtime_error("apply_delta: reconstructed size mismatch");
  }

  byte_buffer out;
  out.reserve(delta.new_file_size);
  for (const delta_op& op : delta.ops) {
    if (op.op == delta_op::kind::literal) {
      op.walk_literal([&](byte_view run) { append(out, run); });
      continue;
    }
    for (std::uint64_t b = op.block_index;
         b < op.block_index + op.block_count; ++b) {
      append(out, slice(old_data, old_blocks[b]));
    }
  }
  return out;
}

patch_job::patch_job(content_ref old_data, std::size_t block_size,
                     std::uint64_t new_file_size)
    : old_(std::move(old_data)),
      bs_(block_size),
      new_file_size_(new_file_size),
      old_blocks_(bs_ > 0 ? (old_.size() + bs_ - 1) / bs_ : 0) {}

void patch_job::feed(const delta_op& op) {
  if (op.op == delta_op::kind::literal) {
    if (op.ref.empty()) {
      out_.append_bytes(op.bytes);
    } else {
      out_.append(op.ref);
    }
    return;
  }
  if (!copy_in_range(op, old_blocks_)) {
    throw std::runtime_error("apply_delta: block index out of range");
  }
  const std::size_t start = static_cast<std::size_t>(op.block_index) * bs_;
  const std::size_t end = std::min<std::size_t>(
      old_.size(),
      static_cast<std::size_t>(op.block_index + op.block_count) * bs_);
  out_.append(old_, start, end - start);
}

content_ref patch_job::finish() {
  if (out_.size() != new_file_size_) {
    throw std::runtime_error("apply_delta: reconstructed size mismatch");
  }
  return out_.build();
}

content_ref apply_delta_ref(const content_ref& old_data,
                            const file_delta& delta) {
  patch_job job(old_data, delta.block_size, delta.new_file_size);
  for (const delta_op& op : delta.ops) job.feed(op);
  return job.finish();
}

namespace {
constexpr std::uint8_t kDeltaMagic0 = 'd';
constexpr std::uint8_t kDeltaMagic1 = 'l';
constexpr std::uint8_t kOpCopy = 0;
constexpr std::uint8_t kOpLiteral = 1;

std::size_t varint_size(std::uint64_t v) {
  std::size_t n = 1;
  while (v >= 0x80) {
    v >>= 7;
    ++n;
  }
  return n;
}

void delta_wire_header(byte_buffer& out, const file_delta& delta) {
  out.push_back(kDeltaMagic0);
  out.push_back(kDeltaMagic1);
  put_varint(out, delta.block_size);
  put_varint(out, delta.new_file_size);
  put_varint(out, delta.ops.size());
}

void delta_op_header(byte_buffer& out, const delta_op& op) {
  if (op.op == delta_op::kind::copy) {
    out.push_back(kOpCopy);
    put_varint(out, op.block_index);
    put_varint(out, op.block_count);
  } else {
    out.push_back(kOpLiteral);
    put_varint(out, op.literal_size());
  }
}
}  // namespace

std::uint64_t delta_wire_size(const file_delta& delta) {
  std::uint64_t n = 2 + varint_size(delta.block_size) +
                    varint_size(delta.new_file_size) +
                    varint_size(delta.ops.size());
  for (const delta_op& op : delta.ops) {
    if (op.op == delta_op::kind::copy) {
      n += 1 + varint_size(op.block_index) + varint_size(op.block_count);
    } else {
      const std::uint64_t lit = op.literal_size();
      n += 1 + varint_size(lit) + lit;
    }
  }
  return n + 4;  // CRC-32 trailer
}

void walk_delta_wire(const file_delta& delta,
                     const std::function<void(byte_view)>& fn) {
  std::uint32_t crc = 0;
  const auto ship = [&](byte_view piece) {
    if (piece.empty()) return;
    crc = crc32(piece, crc);
    fn(piece);
  };
  byte_buffer scratch;
  delta_wire_header(scratch, delta);
  ship(scratch);
  for (const delta_op& op : delta.ops) {
    scratch.clear();
    delta_op_header(scratch, op);
    ship(scratch);
    op.walk_literal(ship);
  }
  std::uint8_t trailer[4];
  for (int i = 0; i < 4; ++i) {
    trailer[i] = static_cast<std::uint8_t>(crc >> (8 * i));
  }
  fn(byte_view(trailer, 4));
}

byte_buffer serialize_delta(const file_delta& delta) {
  byte_buffer out;
  out.reserve(static_cast<std::size_t>(delta_wire_size(delta)));
  delta_wire_header(out, delta);
  for (const delta_op& op : delta.ops) {
    delta_op_header(out, op);
    op.walk_literal([&](byte_view run) { append(out, run); });
  }
  const std::uint32_t crc = crc32(out);
  for (int i = 0; i < 4; ++i) {
    out.push_back(static_cast<std::uint8_t>(crc >> (8 * i)));
  }
  return out;
}

file_delta parse_delta(byte_view wire) {
  auto fail = [](const char* why) -> file_delta {
    throw std::runtime_error(std::string("parse_delta: ") + why);
  };
  if (wire.size() < 6 || wire[0] != kDeltaMagic0 || wire[1] != kDeltaMagic1) {
    return fail("bad magic");
  }
  const std::size_t body_end = wire.size() - 4;
  std::uint32_t crc = 0;
  for (int i = 0; i < 4; ++i) {
    crc |= static_cast<std::uint32_t>(wire[body_end + i]) << (8 * i);
  }
  if (crc32(wire.first(body_end)) != crc) return fail("crc mismatch");

  const byte_view body = wire.first(body_end);
  std::size_t pos = 2;
  file_delta delta;
  const auto bs = get_varint(body, pos);
  const auto nfs = get_varint(body, pos);
  const auto nops = get_varint(body, pos);
  if (!bs || !nfs || !nops) return fail("truncated header");
  delta.block_size = static_cast<std::size_t>(*bs);
  delta.new_file_size = *nfs;
  // Every op takes at least a tag byte and a varint byte: reject a count the
  // remaining body cannot hold before reserving room for it.
  if (*nops > (body.size() - pos) / 2) return fail("op count exceeds body");
  delta.ops.reserve(static_cast<std::size_t>(*nops));
  for (std::uint64_t i = 0; i < *nops; ++i) {
    if (pos >= body.size()) return fail("truncated op");
    const std::uint8_t tag = body[pos++];
    delta_op op;
    if (tag == kOpCopy) {
      op.op = delta_op::kind::copy;
      const auto bi = get_varint(body, pos);
      const auto bc = get_varint(body, pos);
      if (!bi || !bc) return fail("truncated copy op");
      op.block_index = *bi;
      op.block_count = *bc;
    } else if (tag == kOpLiteral) {
      op.op = delta_op::kind::literal;
      const auto len = get_varint(body, pos);
      if (!len || *len > body.size() - pos) return fail("truncated literal");
      op.bytes.assign(body.begin() + static_cast<std::ptrdiff_t>(pos),
                      body.begin() + static_cast<std::ptrdiff_t>(pos + *len));
      pos += static_cast<std::size_t>(*len);
    } else {
      return fail("unknown op tag");
    }
    delta.ops.push_back(std::move(op));
  }
  return delta;
}

}  // namespace cloudsync
