// content_ref: an immutable byte sequence represented as a rope of shared
// chunk handles.
//
// Copying a content_ref copies two shared_ptrs — never bytes. substr/patched/
// appended build a new segment list that structurally shares every untouched
// chunk with the source, so version histories, shadows, and duplicate files
// cost O(changed bytes), not O(file size). Positioning is a binary search
// over cumulative segment offsets (O(log segments)); sequential access walks
// segments in place.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "store/content_store.hpp"
#include "util/bytes.hpp"

namespace cloudsync {

/// One run of a rope: `length` bytes starting at `offset` inside `chunk`.
struct rope_segment {
  chunk_handle chunk;
  std::size_t offset = 0;
  std::size_t length = 0;
};

class content_ref {
 public:
  /// Empty sequence.
  content_ref() = default;

  /// Intern `data` in kInternChunkBytes pieces. Equal inputs alias the same
  /// chunks.
  static content_ref from_bytes(byte_view data);
  /// Same, then releases the buffer.
  static content_ref from_buffer(byte_buffer&& data);
  /// `data` as one private chunk that takes ownership of the buffer: no
  /// interning, no copy (content_store::adopt).
  static content_ref adopt(byte_buffer&& data);
  /// A `size`-byte sequence materialized by `fill` on first read (one private
  /// chunk).
  static content_ref lazy(std::size_t size, std::function<byte_buffer()> fill);

  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  /// Byte at `off` (bounds-checked; materializes the covering chunk).
  std::uint8_t at(std::size_t off) const;

  /// Shared sub-sequence [off, off+len). Never copies bytes.
  content_ref substr(std::size_t off, std::size_t len) const;

  /// Copy-on-write overwrite of [off, off+data.size()): shares every chunk
  /// outside the patched range. Throws std::out_of_range past the end.
  content_ref patched(std::size_t off, byte_view data) const;

  /// Copy-on-write append.
  content_ref appended(byte_view data) const;

  /// Contiguous copy of the whole sequence.
  byte_buffer flatten() const;

  /// Visit the bytes of [off, off+len) as zero-copy views, in order.
  void walk_range(std::size_t off, std::size_t len,
                  const std::function<void(byte_view)>& fn) const;
  void walk(const std::function<void(byte_view)>& fn) const {
    walk_range(0, size_, fn);
  }

  /// Exactly content_hash64(flatten()) / of the sub-range, computed by
  /// streaming over segments without flattening.
  std::uint64_t hash64() const { return hash64_range(0, size_); }
  std::uint64_t hash64_range(std::size_t off, std::size_t len) const;

  /// Byte equality (fast paths: shared root, aligned shared chunks).
  bool equal(const content_ref& other) const;
  bool equal(byte_view other) const;

  /// Lengths of the longest common prefix and suffix of this sequence and
  /// `other`. The suffix is counted only past the prefix, so prefix + suffix
  /// is at most either size. A run that both ropes take from the same chunk
  /// at the same chunk offset is skipped unread, so a patched version costs
  /// O(segments) plus the bytes around the patch.
  struct affixes {
    std::size_t prefix = 0;
    std::size_t suffix = 0;
  };
  affixes common_affixes(const content_ref& other) const;

  std::size_t segment_count() const { return segs_ ? segs_->size() : 0; }

  /// Incremental rope assembly: append whole refs, sub-ranges of refs, or
  /// fresh literal bytes; adjacent runs of the same chunk are merged. Used by
  /// delta application to build a new version that shares the old one's
  /// chunks.
  class builder {
   public:
    void append(const content_ref& ref) {
      append(ref, 0, ref.size());
    }
    void append(const content_ref& ref, std::size_t off, std::size_t len);
    void append_bytes(byte_view data);
    std::size_t size() const { return size_; }
    content_ref build();

   private:
    void push(const rope_segment& seg);
    std::vector<rope_segment> segs_;
    std::size_t size_ = 0;
  };

 private:
  using segment_list = std::vector<rope_segment>;
  content_ref(std::shared_ptr<const segment_list> segs, std::size_t size);
  static content_ref from_segments(segment_list segs);

  /// Index of the segment containing `off` (binary search over starts_).
  std::size_t locate(std::size_t off) const;

  std::shared_ptr<const segment_list> segs_;
  /// starts_[i] = logical offset of segment i; same length as *segs_.
  std::shared_ptr<const std::vector<std::size_t>> starts_;
  std::size_t size_ = 0;
};

inline bool operator==(const content_ref& a, const content_ref& b) {
  return a.equal(b);
}
inline bool operator==(const content_ref& a, byte_view b) {
  return a.equal(b);
}
inline bool operator==(byte_view a, const content_ref& b) {
  return b.equal(a);
}

/// Copy a ref's bytes into a std::string (test assertions).
std::string to_string(const content_ref& r);

}  // namespace cloudsync
