// Deduplication engine: decides, for an upload, which bytes are already in
// the cloud and need not be transferred (paper §5.2, Table 9).
//
// Granularities mirror the paper's taxonomy, plus the "best possible manner"
// it cites but deliberately does not use:
//   none            — every byte uploaded (Google Drive, OneDrive, Box,
//                     SugarSync)
//   full_file       — whole-file fingerprint match   (Ubuntu One)
//   fixed_block     — head-anchored fixed blocks     (Dropbox, 4 MB)
//   content_defined — gear-CDC variable blocks (EndRE / Meyer-Bolosky style;
//                     robust to insertions, more CPU) — extension, exercised
//                     by the ablation bench
// Scope is per-user or cross-user (Ubuntu One is the only cross-user case).
#pragma once

#include <cstdint>
#include <vector>

#include "chunking/cdc.hpp"
#include "dedup/dedup_index.hpp"
#include "store/content_ref.hpp"
#include "util/content_cache.hpp"

namespace cloudsync {

/// Process-wide SHA-256 fingerprint memo: the engine hashes the same bytes
/// on analyze and again on commit, and seeded experiments reproduce the same
/// contents across bench cells — memoizing by fast content hash removes the
/// repeated cryptographic work (see docs/PERFORMANCE.md).
using fingerprint_memo = content_memo<sha256_digest>;
fingerprint_memo& global_fingerprint_cache();

enum class dedup_granularity : std::uint8_t {
  none,
  full_file,
  fixed_block,
  content_defined
};

struct dedup_policy {
  dedup_granularity granularity = dedup_granularity::none;
  std::size_t block_size = 4 * 1024 * 1024;  ///< for fixed_block
  bool cross_user = false;
  cdc_params cdc{};  ///< for content_defined

  static dedup_policy disabled() { return {}; }
};

/// What an upload must actually transfer after dedup.
struct dedup_result {
  std::uint64_t duplicate_bytes = 0;  ///< matched in the index; not sent
  std::uint64_t new_bytes = 0;        ///< must be transferred
  std::vector<chunk_ref> new_chunks;  ///< the chunks to send (whole file when
                                      ///< granularity == none)
  std::size_t fingerprints_sent = 0;  ///< client→cloud fingerprint count
                                      ///< (charged as metadata traffic)
  bool whole_file_duplicate = false;
};

/// How many fingerprints analyze() would send for `size` bytes under
/// `policy`, without walking any content: the cost model's metadata term.
/// Exact for none/full_file/fixed_block; for content_defined it assumes the
/// expected gear-CDC chunk length (min + avg mask-geometric mean, capped at
/// max), which calibration refines.
std::uint64_t expected_fingerprint_count(const dedup_policy& policy,
                                         std::uint64_t size);

class dedup_engine {
 public:
  explicit dedup_engine(dedup_policy policy) : policy_(policy) {}

  const dedup_policy& policy() const { return policy_; }

  /// Compare `data` against the index without modifying it. The chunk
  /// layout and the fingerprints come from walking the rope's segments in
  /// place (no flatten); every fingerprint goes through
  /// global_fingerprint_cache().
  dedup_result analyze(user_id user, const content_ref& data) const;
  /// The same on flat bytes, interned into a rope first. perfbench wraps
  /// this signature; it hits the same memo entries as the rope overload.
  dedup_result analyze(user_id user, byte_view data) const;

  /// Register `data`'s fingerprints as stored (after a successful upload).
  void commit(user_id user, const content_ref& data);

  /// Un-register (cloud-side garbage collection after a real deletion).
  void retract(user_id user, const content_ref& data);

 private:
  /// The fingerprinted chunks under the active granularity: none for
  /// `none` or empty content, the whole file for `full_file`, else the
  /// fixed or content-defined blocks.
  std::vector<chunk_ref> chunk_layout(const content_ref& data) const;

  /// Memoized SHA-256 of a rope sub-range, keyed by its content hash.
  fingerprint fp_range(const content_ref& data, std::size_t off,
                       std::size_t len) const;

  user_id scope_for(user_id user) const {
    return policy_.cross_user ? 0 : user + 1;  // 0 is the global namespace
  }

  dedup_policy policy_;
  dedup_index index_;
};

}  // namespace cloudsync
