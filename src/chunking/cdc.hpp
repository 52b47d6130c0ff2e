// Content-defined chunking (gear hash), the "better but more computation
// intensive" way of dividing files into blocks that the paper cites (EndRE,
// Meyer & Bolosky) and deliberately does not use for its main results.
// Provided as an extension and exercised by the ablation bench.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "chunking/fixed_chunker.hpp"
#include "store/content_ref.hpp"
#include "util/bytes.hpp"

namespace cloudsync {

struct cdc_params {
  std::size_t min_size = 2 * 1024;
  std::size_t avg_size = 8 * 1024;  ///< must be a power of two
  std::size_t max_size = 64 * 1024;
};

/// Split data at content-defined boundaries (gear rolling hash). Identical
/// content yields identical chunks regardless of its offset in the file,
/// which is what makes CDC robust to insertions.
std::vector<chunk_ref> content_defined_chunks(byte_view data,
                                              cdc_params params = {});

/// The same boundaries over a rope, walking its segments in place (no
/// flatten): both overloads run one streaming cutter, so how the bytes are
/// split into segments never moves a boundary.
std::vector<chunk_ref> content_defined_chunks(const content_ref& data,
                                              cdc_params params = {});

/// The 256-entry gear table (deterministic, process-wide). Exposed for the
/// scalar reference chunker that bench/kernel_report checks these
/// boundaries against.
const std::uint64_t* gear_table();

}  // namespace cloudsync
