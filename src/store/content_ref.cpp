#include "store/content_ref.hpp"

#include <algorithm>
#include <bit>
#include <cstring>
#include <stdexcept>

#include "util/content_cache.hpp"

namespace cloudsync {

namespace {

std::uint64_t load64(const std::uint8_t* p) {
  std::uint64_t v;
  std::memcpy(&v, p, 8);
  return v;
}

/// How many leading bytes of a[0, n) and b[0, n) agree.
std::size_t equal_head(const std::uint8_t* a, const std::uint8_t* b,
                       std::size_t n) {
  static_assert(std::endian::native == std::endian::little);
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const std::uint64_t diff = load64(a + i) ^ load64(b + i);
    if (diff != 0) {
      return i + static_cast<std::size_t>(std::countr_zero(diff)) / 8;
    }
  }
  while (i < n && a[i] == b[i]) ++i;
  return i;
}

/// How many trailing bytes of a[0, n) and b[0, n) agree.
std::size_t equal_tail(const std::uint8_t* a, const std::uint8_t* b,
                       std::size_t n) {
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const std::uint64_t diff = load64(a + n - i - 8) ^ load64(b + n - i - 8);
    if (diff != 0) {
      return i + static_cast<std::size_t>(std::countl_zero(diff)) / 8;
    }
  }
  while (i < n && a[n - 1 - i] == b[n - 1 - i]) ++i;
  return i;
}

}  // namespace

content_ref::content_ref(std::shared_ptr<const segment_list> segs,
                         std::size_t size)
    : segs_(std::move(segs)), size_(size) {
  auto starts = std::make_shared<std::vector<std::size_t>>();
  starts->reserve(segs_->size());
  std::size_t pos = 0;
  for (const rope_segment& s : *segs_) {
    starts->push_back(pos);
    pos += s.length;
  }
  starts_ = std::move(starts);
}

content_ref content_ref::from_segments(segment_list segs) {
  std::size_t total = 0;
  for (const rope_segment& s : segs) total += s.length;
  if (total == 0) return {};
  return content_ref(std::make_shared<const segment_list>(std::move(segs)),
                     total);
}

content_ref content_ref::from_bytes(byte_view data) {
  if (data.empty()) return {};
  content_store& store = content_store::global();
  const std::size_t cs = content_store::kInternChunkBytes;
  segment_list segs;
  segs.reserve((data.size() + cs - 1) / cs);
  for (std::size_t off = 0; off < data.size(); off += cs) {
    const std::size_t len = std::min(cs, data.size() - off);
    segs.push_back({store.intern(data.subspan(off, len)), 0, len});
  }
  return from_segments(std::move(segs));
}

content_ref content_ref::from_buffer(byte_buffer&& data) {
  content_ref r = from_bytes(byte_view{data});
  data.clear();
  return r;
}

content_ref content_ref::adopt(byte_buffer&& data) {
  if (data.empty()) return {};
  const std::size_t size = data.size();
  segment_list segs;
  segs.push_back({content_store::global().adopt(std::move(data)), 0, size});
  return from_segments(std::move(segs));
}

content_ref content_ref::lazy(std::size_t size,
                              std::function<byte_buffer()> fill) {
  if (size == 0) return {};
  segment_list segs;
  segs.push_back({content_store::global().lazy(size, std::move(fill)), 0,
                  size});
  return from_segments(std::move(segs));
}

std::size_t content_ref::locate(std::size_t off) const {
  const auto& starts = *starts_;
  const auto it = std::upper_bound(starts.begin(), starts.end(), off);
  return static_cast<std::size_t>(it - starts.begin()) - 1;
}

std::uint8_t content_ref::at(std::size_t off) const {
  if (off >= size_) {
    throw std::out_of_range("content_ref::at: offset beyond end");
  }
  const std::size_t i = locate(off);
  const rope_segment& s = (*segs_)[i];
  return s.chunk->bytes()[s.offset + (off - (*starts_)[i])];
}

content_ref content_ref::substr(std::size_t off, std::size_t len) const {
  if (off + len > size_ || off + len < off) {
    throw std::out_of_range("content_ref::substr: range beyond end");
  }
  if (len == 0) return {};
  if (off == 0 && len == size_) return *this;
  segment_list segs;
  std::size_t i = locate(off);
  std::size_t skip = off - (*starts_)[i];
  while (len > 0) {
    const rope_segment& s = (*segs_)[i];
    const std::size_t take = std::min(s.length - skip, len);
    segs.push_back({s.chunk, s.offset + skip, take});
    len -= take;
    skip = 0;
    ++i;
  }
  return from_segments(std::move(segs));
}

content_ref content_ref::patched(std::size_t off, byte_view data) const {
  if (off + data.size() > size_ || off + data.size() < off) {
    throw std::out_of_range("content_ref::patched: range beyond end");
  }
  if (data.empty()) return *this;
  builder b;
  b.append(*this, 0, off);
  b.append_bytes(data);
  b.append(*this, off + data.size(), size_ - off - data.size());
  return b.build();
}

content_ref content_ref::appended(byte_view data) const {
  if (data.empty()) return *this;
  builder b;
  b.append(*this);
  b.append_bytes(data);
  return b.build();
}

byte_buffer content_ref::flatten() const {
  byte_buffer out;
  out.reserve(size_);
  walk([&](byte_view v) { append(out, v); });
  return out;
}

void content_ref::walk_range(std::size_t off, std::size_t len,
                             const std::function<void(byte_view)>& fn) const {
  if (off + len > size_ || off + len < off) {
    throw std::out_of_range("content_ref::walk_range: range beyond end");
  }
  if (len == 0) return;
  std::size_t i = locate(off);
  std::size_t skip = off - (*starts_)[i];
  while (len > 0) {
    const rope_segment& s = (*segs_)[i];
    const std::size_t take = std::min(s.length - skip, len);
    fn(s.chunk->bytes().subspan(s.offset + skip, take));
    len -= take;
    skip = 0;
    ++i;
  }
}

std::uint64_t content_ref::hash64_range(std::size_t off,
                                        std::size_t len) const {
  content_hasher64 h;
  walk_range(off, len, [&](byte_view v) { h.update(v); });
  return h.finish();
}

bool content_ref::equal(const content_ref& other) const {
  if (size_ != other.size_) return false;
  if (size_ == 0) return true;
  if (segs_ == other.segs_) return true;
  // Zipped walk over both segment lists; identical (chunk, offset) runs are
  // equal without touching bytes.
  std::size_t ia = 0, ib = 0, oa = 0, ob = 0, left = size_;
  while (left > 0) {
    const rope_segment& a = (*segs_)[ia];
    const rope_segment& b = (*other.segs_)[ib];
    const std::size_t take =
        std::min({a.length - oa, b.length - ob, left});
    if (a.chunk != b.chunk || a.offset + oa != b.offset + ob) {
      if (std::memcmp(a.chunk->bytes().data() + a.offset + oa,
                      b.chunk->bytes().data() + b.offset + ob, take) != 0) {
        return false;
      }
    }
    left -= take;
    oa += take;
    ob += take;
    if (oa == a.length) {
      ++ia;
      oa = 0;
    }
    if (ob == b.length) {
      ++ib;
      ob = 0;
    }
  }
  return true;
}

content_ref::affixes content_ref::common_affixes(
    const content_ref& other) const {
  const std::size_t limit = std::min(size_, other.size_);
  affixes out;
  if (limit == 0) return out;
  if (segs_ == other.segs_) return {limit, 0};
  const segment_list& sa = *segs_;
  const segment_list& sb = *other.segs_;
  // Forward over both segment lists, as in equal().
  std::size_t ia = 0, ib = 0, oa = 0, ob = 0;
  while (out.prefix < limit) {
    const rope_segment& a = sa[ia];
    const rope_segment& b = sb[ib];
    const std::size_t take =
        std::min({a.length - oa, b.length - ob, limit - out.prefix});
    const std::size_t same =
        a.chunk == b.chunk && a.offset + oa == b.offset + ob
            ? take
            : equal_head(a.chunk->bytes().data() + a.offset + oa,
                         b.chunk->bytes().data() + b.offset + ob, take);
    out.prefix += same;
    if (same < take) break;
    oa += take;
    ob += take;
    if (oa == a.length) {
      ++ia;
      oa = 0;
    }
    if (ob == b.length) {
      ++ib;
      ob = 0;
    }
  }
  // Backward from both ends over what the prefix left; `la` and `lb` are
  // the unvisited lengths of the current segments.
  const std::size_t room = limit - out.prefix;
  ia = sa.size() - 1;
  ib = sb.size() - 1;
  std::size_t la = sa[ia].length, lb = sb[ib].length;
  while (out.suffix < room) {
    const rope_segment& a = sa[ia];
    const rope_segment& b = sb[ib];
    const std::size_t take = std::min({la, lb, room - out.suffix});
    const std::size_t same =
        a.chunk == b.chunk && a.offset + la == b.offset + lb
            ? take
            : equal_tail(a.chunk->bytes().data() + a.offset + la - take,
                         b.chunk->bytes().data() + b.offset + lb - take, take);
    out.suffix += same;
    if (same < take) break;
    la -= take;
    lb -= take;
    if (la == 0 && ia > 0) la = sa[--ia].length;
    if (lb == 0 && ib > 0) lb = sb[--ib].length;
  }
  return out;
}

bool content_ref::equal(byte_view other) const {
  if (size_ != other.size()) return false;
  if (size_ == 0) return true;
  std::size_t pos = 0;
  for (const rope_segment& s : *segs_) {
    if (std::memcmp(s.chunk->bytes().data() + s.offset, other.data() + pos,
                    s.length) != 0) {
      return false;
    }
    pos += s.length;
  }
  return true;
}

void content_ref::builder::push(const rope_segment& seg) {
  if (seg.length == 0) return;
  if (!segs_.empty()) {
    rope_segment& last = segs_.back();
    if (last.chunk == seg.chunk && last.offset + last.length == seg.offset) {
      last.length += seg.length;
      size_ += seg.length;
      return;
    }
  }
  segs_.push_back(seg);
  size_ += seg.length;
}

void content_ref::builder::append(const content_ref& ref, std::size_t off,
                                  std::size_t len) {
  if (off + len > ref.size() || off + len < off) {
    throw std::out_of_range("content_ref::builder: range beyond end");
  }
  if (len == 0) return;
  std::size_t i = ref.locate(off);
  std::size_t skip = off - (*ref.starts_)[i];
  while (len > 0) {
    const rope_segment& s = (*ref.segs_)[i];
    const std::size_t take = std::min(s.length - skip, len);
    push({s.chunk, s.offset + skip, take});
    len -= take;
    skip = 0;
    ++i;
  }
}

void content_ref::builder::append_bytes(byte_view data) {
  if (data.empty()) return;
  const content_ref fresh = content_ref::from_bytes(data);
  for (const rope_segment& s : *fresh.segs_) push(s);
}

content_ref content_ref::builder::build() {
  content_ref out = from_segments(std::move(segs_));
  segs_ = {};
  size_ = 0;
  return out;
}

std::string to_string(const content_ref& r) {
  std::string out;
  out.reserve(r.size());
  r.walk([&](byte_view v) {
    out.append(reinterpret_cast<const char*>(v.data()), v.size());
  });
  return out;
}

}  // namespace cloudsync
