// Synthetic trace generator calibrated to the paper's published statistics.
//
// The real 153-user / 222,632-file trace (greenorbs.org link) is no longer
// retrievable, so we synthesise a dataset matching every marginal the paper
// reports (see DESIGN.md "Substitutions"):
//   - per-service user/file counts             (Table 2, scaled)
//   - size distribution: median 7.5 KB, mean ≈ 962 KB, max 2 GB,
//     77 % of files < 100 KB                   (Fig 2, §4.1)
//   - 52 % effectively compressible, overall compression ratio ≈ 1.31
//     compressed median 3.2 KB                 (§5.1, Fig 2)
//   - 84 % of files modified at least once     (§4.3)
//   - ≈ 2/3 of small files created in batches  (§4.1)
//   - full-file duplicate ratio ≈ 18.8 %, block-level dedup only slightly
//     better, improving at smaller block sizes (§5.2, Fig 5)
#pragma once

#include <cstdint>

#include "trace/trace_record.hpp"

namespace cloudsync {

struct trace_params {
  std::uint64_t seed = 42;

  /// Fraction of the original 222,632 files to generate (1.0 = full scale).
  double scale = 0.10;

  // -- size distribution (lognormal, clamped to [1 B, 2 GiB]) -------------
  double size_mu = 8.80;     ///< ln(median bytes); duplicates skew the
                             ///< realised median up toward the paper's 7.5 KB
  double size_sigma = 3.11;  ///< yields mean ≈ 962 KB, P(<100 KB) ≈ 0.78

  /// Upper clamp on generated sizes; 0 = the paper's natural 2 GiB maximum.
  /// Clamping at generation, not at replay, keeps every downstream identity
  /// (full_md5, block_ids, duplicate-byte accounting) consistent with the
  /// bytes actually replayed.
  std::uint64_t max_file_bytes = 0;

  // -- compressibility -----------------------------------------------------
  double p_compressible_small = 0.55;  ///< files < 100 KB
  double p_compressible_large = 0.45;  ///< files 100 KB - 8 MB
  double ratio_mu_small = 0.92;        ///< lognormal ln-ratio for small files
  double ratio_mu_large = 0.30;        ///< ln-ratio for > 8 MB (≈ e^0.30 = 1.35,
                                       ///< stable: these dominate the bytes)
  double ratio_sigma = 0.35;

  // -- modifications ---------------------------------------------------------
  double p_modified = 0.84;
  double modify_geometric_p = 0.45;  ///< extra modifications ~ geometric

  // -- duplication -----------------------------------------------------------
  /// Target fraction of *bytes* belonging to exact duplicates of earlier
  /// files (the paper's full-file duplication ratio, 18.8 %). Enforced with a
  /// feedback controller during generation because sizes are heavy-tailed.
  double p_full_duplicate = 0.188;
  double p_partial_duplicate = 0.08;  ///< shares a prefix with an earlier file

  // -- creation batching ------------------------------------------------------
  double p_singleton_session = 0.76;  ///< sessions creating exactly one file
  std::uint32_t max_burst = 30;       ///< cap on files per creation burst
  double mean_session_gap_sec = 6 * 3600.0;
};

/// Generate the dataset. Deterministic for a given params value.
trace_dataset generate_trace(const trace_params& params = {});

}  // namespace cloudsync
