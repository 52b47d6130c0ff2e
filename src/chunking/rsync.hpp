// The rsync algorithm (Tridgell & Mackerras), implemented from scratch:
// per-block signatures (rolling Adler-32 weak + MD5 strong), rolling-window
// delta computation against a remote signature, and delta application.
//
// This is the paper's "incremental data sync" (IDS) mechanism (§4.3): the
// client holds the new file, the cloud holds the old one; only blocks that
// cannot be matched are shipped as literals.
//
// Two API layers share one implementation:
//   - whole-buffer entry points (compute_signature / compute_delta /
//     apply_delta) for callers that already hold flat bytes, and
//   - resumable incremental jobs (sig_job / delta_job / patch_job) with a
//     feed(window)/finish() pump, so multi-GB files can be signed, diffed,
//     and patched over fixed-size buffers walked off a content_ref rope —
//     working memory stays O(feed window + 16 × block_size), never O(file).
// The whole-buffer functions are thin pumps over the jobs, so both layers
// produce bit-identical signatures, deltas, and wire bytes by construction.
#pragma once

#include <cstdint>
#include <functional>
#include <stdexcept>
#include <unordered_map>
#include <vector>

#include "store/content_ref.hpp"
#include "util/adler32.hpp"
#include "util/bytes.hpp"
#include "util/digest.hpp"
#include "util/md5.hpp"

namespace cloudsync {

/// Thrown for a zero block size. This used to be an assert, which vanished
/// under NDEBUG and left compute_signature's `off += block_size` loop — and
/// every release build calling it — spinning forever.
struct invalid_block_size : std::invalid_argument {
  invalid_block_size()
      : std::invalid_argument("rsync: block_size must be > 0") {}
};

struct block_signature {
  std::uint32_t weak = 0;   ///< rolling checksum of the block
  md5_digest strong;        ///< MD5 of the block
};

/// Signature of a whole (old) file: what the receiver sends to the sender.
struct file_signature {
  std::size_t block_size = 0;
  std::uint64_t file_size = 0;
  std::vector<block_signature> blocks;  ///< last block may be short

  /// Bytes this signature occupies on the wire (weak 4 B + strong 16 B per
  /// block, plus a small header) — charged as sync metadata traffic.
  std::size_t wire_size() const { return 16 + blocks.size() * 20; }
};

/// Incremental signature computation: feed the file's bytes in order, in
/// windows of any size, then finish(). The weak and strong per-block sums
/// both stream, so the result is independent of how the input is windowed
/// and equals compute_signature of the concatenation. Where a window holds
/// two or more whole blocks, their strong sums are computed kMd5MaxLanes at
/// a time straight from the window; a block that straddles windows streams.
class sig_job {
 public:
  /// Throws invalid_block_size when block_size == 0.
  explicit sig_job(std::size_t block_size, std::uint64_t size_hint = 0);

  void feed(byte_view window);
  file_signature finish();

 private:
  std::size_t sign_whole_blocks(byte_view window);

  file_signature sig_;
  std::uint32_t a_ = 0, b_ = 0;  ///< weak sums of the open block
  md5_hasher strong_;            ///< strong hash of the open block
  std::size_t fill_ = 0;         ///< bytes accumulated in the open block
  bool finished_ = false;
};

/// Throws invalid_block_size when block_size == 0.
file_signature compute_signature(byte_view data, std::size_t block_size);

/// Same signature, computed by walking a rope's segments — no flatten.
file_signature compute_signature_ref(const content_ref& data,
                                     std::size_t block_size);

/// One instruction of a delta: either copy a run of consecutive blocks from
/// the old file, or insert literal bytes. Literal payloads come in two
/// equivalent representations: owned bytes (`bytes`, the legacy/parse form)
/// or a shared range of the new file's rope (`ref`, the streaming form —
/// zero-copy, pinning the underlying chunks). When `ref` is non-empty it is
/// the payload and `bytes` is ignored; serialization and application treat
/// both forms identically, so the wire format cannot tell them apart.
struct delta_op {
  enum class kind : std::uint8_t { copy, literal };
  kind op = kind::literal;
  // copy: first block index and number of consecutive blocks.
  std::uint64_t block_index = 0;
  std::uint64_t block_count = 0;
  // literal: bytes to insert.
  byte_buffer bytes;
  content_ref ref;

  std::uint64_t literal_size() const {
    if (op != kind::literal) return 0;
    return ref.empty() ? bytes.size() : ref.size();
  }
  /// Visit the literal payload (either form) as zero-copy views, in order.
  void walk_literal(const std::function<void(byte_view)>& fn) const;
};

/// A copy op's blocks lie within an old file of `old_blocks` blocks. Written
/// so that no sum can wrap, because a parsed delta carries any 64-bit index
/// and count; every delta applier checks its copy ops with it.
bool copy_in_range(const delta_op& op, std::uint64_t old_blocks);

struct file_delta {
  std::size_t block_size = 0;
  std::uint64_t new_file_size = 0;
  std::vector<delta_op> ops;

  std::uint64_t literal_bytes() const;
  std::uint64_t copied_bytes(std::uint64_t old_file_size) const;
};

/// Incremental delta computation: feed the NEW file's bytes in order, then
/// finish(). Emits copy/literal runs as events — literal runs are [offset,
/// length) ranges of the new file, so the job never owns payload bytes; the
/// driver decides whether to materialize them (compute_delta) or reference
/// them out of a rope (compute_delta_ref).
///
/// A weak hit at position p hashes, in one md5_many() call, the window at p
/// and the block-aligned windows p + bs, p + 2bs, ... whose weak sums also
/// hit, up to kMd5MaxLanes of them; the scan consumes those digests in order
/// as its matches reach them and drops the rest at the first window that
/// does not match. Every digest covers exactly the bytes the scan compares
/// and candidates are compared in the same order, so the events equal a
/// one-window-at-a-time scan's. So that the look-ahead can see its windows,
/// the scan stays kMd5MaxLanes × block_size behind the fed bytes until
/// finish(): the internal buffer is bounded by the largest fed window plus
/// kMd5MaxLanes × block_size on every host (signatures with fewer than two
/// full blocks hash one window at a time and need only one block_size).
/// The signature must outlive the job.
class delta_job {
 public:
  struct event {
    bool copy = false;
    std::uint64_t block_index = 0;  ///< copy: first old block of the run
    std::uint64_t block_count = 0;  ///< copy: blocks in the run
    std::uint64_t offset = 0;       ///< literal: start offset in the new file
    std::uint64_t length = 0;       ///< literal: run length
  };

  explicit delta_job(const file_signature& sig);

  void feed(byte_view window);
  const std::vector<event>& finish();
  std::uint64_t fed() const { return fed_; }

 private:
  void drain(bool final_window);
  bool may_be_indexed(std::uint32_t weak) const;
  md5_digest strong_at_pos();
  byte_view buffered(std::uint64_t pos, std::size_t len) const;
  void compact();
  void emit_copy(std::uint64_t block);
  void emit_literal(std::uint64_t offset, std::uint64_t length);

  const file_signature& sig_;
  const std::size_t bs_;
  /// No full-block matching possible (zero block size or blockless
  /// signature): the whole new file resolves at finish().
  const bool degenerate_;
  std::uint64_t full_blocks_ = 0;
  std::unordered_multimap<std::uint32_t, std::uint64_t> weak_index_;
  /// Prefilter in front of weak_index_: one bit per hash of a full block's
  /// weak sum. A clear bit proves there is no candidate, so the rolling scan
  /// skips the map probe. Empty when the signature has no full block.
  std::vector<std::uint64_t> weak_filter_;
  unsigned filter_shift_ = 0;

  /// Windows one look-ahead hashes at most: kMd5MaxLanes with two or more
  /// full blocks, else 1.
  std::size_t lanes_ = 1;
  /// The look-ahead's digests of the windows at p, p + bs, ...: entry
  /// ahead_next_ is the window at pos_, and ahead_weak_[k] is window k's
  /// packed weak sum (k >= 1).
  md5_digest ahead_strong_[kMd5MaxLanes];
  std::uint32_t ahead_weak_[kMd5MaxLanes] = {};
  std::size_t ahead_next_ = 0;
  std::size_t ahead_count_ = 0;

  rolling_checksum rc_;
  bool window_valid_ = false;
  std::uint64_t pos_ = 0;   ///< scan position in the new file
  std::uint64_t fed_ = 0;   ///< total bytes fed so far
  byte_buffer buf_;         ///< holds new-file bytes [base_, fed_)
  std::uint64_t base_ = 0;
  md5_hasher whole_md5_;    ///< degenerate mode: strong sum of the whole file
  std::vector<event> events_;
  bool finished_ = false;
};

/// Compute the delta that transforms the signed old file into `new_data`.
file_delta compute_delta(const file_signature& sig, byte_view new_data);

/// Streaming form: diff a rope against the signature by feeding fixed-size
/// windows (window_bytes) to a delta_job; literal ops reference sub-ranges
/// of `new_data` instead of copying them. Identical ops modulo payload
/// representation — and identical wire bytes — to compute_delta on the
/// flattened rope.
file_delta compute_delta_ref(const file_signature& sig,
                             const content_ref& new_data,
                             std::size_t window_bytes = 256 * 1024);

/// The raw event stream of that diff: pure indices and offsets, no payload
/// bytes and no rope pins — safe to cache process-wide (a memoized delta
/// holding rope refs would pin content store chunks forever).
std::vector<delta_job::event> compute_delta_events(
    const file_signature& sig, const content_ref& new_data,
    std::size_t window_bytes = 256 * 1024);

/// Materialize a file_delta from an event stream against the new content it
/// was computed from: literal events become zero-copy sub-ranges of the
/// rope. compute_delta_ref == delta_from_events over compute_delta_events.
file_delta delta_from_events(std::size_t block_size,
                             const content_ref& new_data,
                             const std::vector<delta_job::event>& events);

/// Incremental patch: feed delta ops in order; copy runs splice shared
/// ranges of the old rope (no bytes move), literals intern fresh content.
/// finish() validates the reconstructed size. The rope form of the
/// rsync receiver's output loop.
class patch_job {
 public:
  patch_job(content_ref old_data, std::size_t block_size,
            std::uint64_t new_file_size);

  void feed(const delta_op& op);
  content_ref finish();

 private:
  content_ref old_;
  std::size_t bs_;
  std::uint64_t new_file_size_;
  std::uint64_t old_blocks_;
  content_ref::builder out_;
};

/// Reconstruct the new file from the old file content and a delta.
/// Throws std::runtime_error if the delta references blocks out of range.
byte_buffer apply_delta(byte_view old_data, const file_delta& delta);

/// Rope-sharing reconstruction: copy ops become sub-ranges of the old rope
/// (no bytes move), only literal ops intern fresh content — so a version
/// chain built by deltas costs O(changed bytes), not O(file size).
content_ref apply_delta_ref(const content_ref& old_data,
                            const file_delta& delta);

/// Wire format (what the client actually uploads): varint-framed ops with a
/// CRC-32 trailer.
byte_buffer serialize_delta(const file_delta& delta);
file_delta parse_delta(byte_view wire);

/// Exact size of serialize_delta(delta) without building the buffer.
std::uint64_t delta_wire_size(const file_delta& delta);

/// Stream the exact bytes of serialize_delta(delta) — header, ops, literal
/// payloads (from either representation), CRC-32 trailer — as bounded views,
/// without materializing the wire buffer.
void walk_delta_wire(const file_delta& delta,
                     const std::function<void(byte_view)>& fn);

}  // namespace cloudsync
