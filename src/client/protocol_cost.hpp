// Analytical per-update protocol cost model + adaptive selector.
//
// For each registered sync protocol the model predicts the app-level wire
// bytes (up and down) and the round trips one update would cost, from the
// file size, from the two features the byte_pipeline computes in a single
// pass over the new content:
//   - chunk-level similarity vs the shadow signature (per-block weak sums)
//   - an entropy-based compressibility estimate
// and from the selector's dedup-index hit probability (synced-hash set +
// observed hit EWMA), plus the tcp cost model's RTT/bandwidth for the
// latency term. The adaptive selector scores every eligible protocol and
// picks the predicted-cheapest; a calibration loop compares each prediction
// against the metered actuals of the plan that actually shipped and feeds
// the observed error back as a per-protocol multiplicative correction
// factor.
//
// Determinism: feature extraction and prediction are pure CPU — no RNG, no
// clock, no meter. In service_default / forced modes the selector does not
// even extract features, so those modes are byte- and cycle-identical to the
// pre-registry engine.
#pragma once

#include <array>
#include <cstdint>
#include <unordered_set>
#include <vector>

#include "client/sync_protocol.hpp"
#include "net/link.hpp"

namespace cloudsync {

/// How the client chooses a protocol per update.
enum class protocol_mode : std::uint8_t {
  service_default,  ///< the service's historical branching (byte-identical)
  forced,           ///< always protocol_options::forced when eligible
  adaptive,         ///< cost-model argmin over eligible protocols
};

const char* to_string(protocol_mode m);

struct protocol_options {
  protocol_mode mode = protocol_mode::service_default;
  /// The pinned protocol in forced mode. When it is ineligible for an update
  /// (e.g. rsync without a shadow) the service-default order takes over, so
  /// a forced run is always able to ship.
  protocol_id forced = protocol_id::full_file;
  /// Geometric EWMA gain of the per-protocol correction factor
  /// (c ← c · (actual/predicted)^gain). 0 disables calibration.
  double calibration_gain = 0.5;
  /// Weight of the latency term when scoring: predicted round trips are
  /// charged as round_trips · RTT · uplink-bandwidth byte-equivalents.
  double rtt_cost_weight = 1.0;
};

/// What one byte_pipeline pass over the update's content yields for the
/// cost model.
struct update_features {
  std::uint64_t size = 0;
  bool has_shadow = false;
  std::uint64_t shadow_size = 0;
  std::size_t block_size = 0;      ///< signature block size (similarity grid)
  double similarity = 0.0;         ///< fraction of fixed blocks whose weak
                                   ///< sum matches a shadow signature block
  double entropy_bits_per_byte = 8.0;
  bool whole_file_duplicate = false;  ///< content hash seen synced before
  double dedup_hit_prob = 0.0;     ///< expected duplicate chunk fraction
  std::uint64_t content_hash = 0;
};

/// Predicted cost of shipping one update through one protocol.
struct cost_prediction {
  double app_up = 0.0;     ///< payload + metadata bytes, client → cloud
  double app_down = 0.0;   ///< metadata bytes, cloud → client
  double round_trips = 1.0;
  bool feasible = false;   ///< protocol eligible for this update

  /// Scalar score: bytes plus latency charged in byte-equivalents.
  double score(const link_config& link, double rtt_weight) const {
    return app_up + app_down +
           rtt_weight * round_trips * link.rtt.sec() * link.up_bytes_per_sec;
  }
};

/// Exact wire size of the delta frame the model expects: `lit_runs`
/// single-run literal regions of `literal_bytes` total, interleaved with
/// coalesced copy runs, framed exactly like delta_wire_size (varint op
/// headers + CRC trailer). Exposed so differential tests can assert
/// prediction == delta_wire_size on constructed cases.
std::uint64_t predicted_delta_frame_bytes(std::uint64_t file_size,
                                          std::size_t block_size,
                                          double similarity);

/// Predicted compressed size of `bytes` whose content has the given
/// order-0 entropy, mirroring wire_payload_size's incompressibility probe
/// fast path (level <= 0 → raw; predicted ratio < 1.05 on >= 4 KiB → raw).
double predicted_compressed_bytes(double bytes, double entropy_bits_per_byte,
                                  int level);

/// One-pass feature extraction (byte_pipeline: entropy + per-block weak
/// sums at the shadow signature's block size). `synced` is the selector's
/// knowledge of previously synced whole-file hashes; `dedup_hit_ewma` its
/// running chunk-hit estimate.
update_features extract_update_features(
    const planning_env& env, const protocol_update& up,
    const std::unordered_set<std::uint64_t>& synced_hashes,
    double dedup_hit_ewma);

/// Predict the cost of `id` for an update with `f`, before correction.
cost_prediction predict_protocol_cost(protocol_id id,
                                      const update_features& f,
                                      const planning_env& env);

/// Selector observability: pick counts, calibration state, and the
/// predicted-vs-actual relative-error distribution.
struct protocol_selector_stats {
  std::array<std::uint64_t, kMaxProtocols> picks{};       ///< by protocol id
  std::array<double, kMaxProtocols> correction{};         ///< init 1.0
  /// |predicted − actual| / actual buckets:
  /// <5%, <10%, <15%, <25%, <50%, <100%, ≥100%.
  static constexpr std::size_t kErrorBuckets = 7;
  std::array<std::uint64_t, kErrorBuckets> error_hist{};
  std::uint64_t observations = 0;
  double abs_rel_error_sum = 0.0;
  /// Raw per-observation |predicted − actual| / actual samples (bounded).
  std::vector<double> abs_rel_errors;

  protocol_selector_stats() { correction.fill(1.0); }

  double mean_abs_rel_error() const {
    return observations == 0 ? 0.0
                             : abs_rel_error_sum /
                                   static_cast<double>(observations);
  }
  /// Median of the recorded samples (0 when none).
  double median_abs_rel_error() const;

  bool operator==(const protocol_selector_stats&) const = default;
};

struct selector_pick {
  protocol_id id = protocol_id::full_file;
  bool predicted = false;       ///< adaptive mode made a prediction
  double predicted_app_up = 0;  ///< corrected payload+metadata up bytes
};

/// Per-client protocol chooser. One instance per sync_client incarnation;
/// its calibration state is in-memory client knowledge (like the dirty set)
/// and dies with the incarnation.
class protocol_selector {
 public:
  protocol_selector(protocol_options opts, link_config link);

  /// Choose the protocol for one update. Counts the pick; in adaptive mode
  /// extracts features, scores every eligible protocol (corrected), and
  /// returns the argmin — ties break to the lowest protocol id via the
  /// registry's registration order.
  const sync_protocol& choose(const planning_env& env,
                              const protocol_update& up,
                              selector_pick* pick = nullptr);

  /// Calibration feedback once a plan's exchange succeeded: `actual` is the
  /// plan's metered app bytes up (payload + metadata categories). Updates
  /// the correction factor, the error histogram, the synced-hash set, and —
  /// when the plan observed a dedup fraction — the hit-rate EWMA.
  void observe(const upload_plan& plan, std::uint64_t content_hash,
               std::uint64_t actual_app_up);

  const protocol_selector_stats& stats() const { return stats_; }
  const protocol_options& options() const { return opts_; }
  double dedup_hit_ewma() const { return dedup_hit_ewma_; }

 private:
  protocol_options opts_;
  link_config link_;
  protocol_selector_stats stats_;
  std::unordered_set<std::uint64_t> synced_hashes_;
  double dedup_hit_ewma_ = 0.0;
  bool have_dedup_obs_ = false;  ///< first observation seeds the EWMA
};

}  // namespace cloudsync
