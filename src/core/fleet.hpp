// Macro-level analysis (paper §3.1): replay the calibrated trace through
// full sync stacks, per service, and report fleet-level traffic efficiency —
// the "further macro-level analysis" the trace was collected to enable.
//
// Each trace record becomes a real file in a simulated user's sync folder:
// created at its (time-compressed) creation instant with content matching
// its recorded size, compressibility, and duplicate identity, then modified
// `modify_count` times. Everything then flows through the service's actual
// pipeline — BDS, IDS, dedup, compression, deferment — and the meters tell
// us what the fleet would have paid.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/cost_model.hpp"
#include "core/experiment.hpp"
#include "trace/generator.hpp"

namespace cloudsync {

struct fleet_config {
  trace_params trace{};  ///< generator knobs (scale is overridden below)
  access_method method = access_method::pc_client;
  link_config link = link_config::minnesota();
  hardware_profile hardware = hardware_profile::m1();

  /// Cap on files replayed per service (runtime guard; the trace's relative
  /// service proportions are preserved up to this cap). Files beyond the cap
  /// are dropped and counted in fleet_service_report::dropped_files. With
  /// the CoW content store keeping memory O(unique bytes), the default is
  /// the whole trace; benches that want the historical scope set it lower.
  std::size_t max_files_per_service = SIZE_MAX;

  /// Trace timestamps are divided by this factor so months of user activity
  /// replay in a bounded number of simulated hours.
  double time_compression = 2000.0;

  pricing price = pricing::s3_2014();

  /// Worker threads for the per-service replays (each replay owns its whole
  /// simulation world, so they run in parallel). 0 = auto-detect; 1 = serial.
  /// Reports are index-ordered, so results are identical at any setting.
  unsigned replay_threads = 0;

  /// Give every replayed station a client block-cache tier (see
  /// experiment_config::cache_tier) — limited-disk fleet replays. Off by
  /// default; each station owns its cache, so thread-count identity holds.
  bool cache_tier = false;
  cache_config cache{};
};

struct fleet_service_report {
  std::string service;
  std::size_t files = 0;
  /// Trace records for this service beyond max_files_per_service — silently
  /// dropping them hid how much of the trace a capped replay covered.
  std::size_t dropped_files = 0;
  std::size_t users = 0;
  std::uint64_t update_bytes = 0;  ///< created + modified payload
  std::uint64_t sync_traffic = 0;
  std::uint64_t commits = 0;
  /// Backend gauges at the end of the replay (backend_op_stats): bytes the
  /// store retains including version history, and bytes in live objects.
  std::uint64_t backend_retained_bytes = 0;
  std::uint64_t backend_live_bytes = 0;
  double mean_staleness_sec = 0;
  traffic_bill bill;  ///< provider-side cost of this replay

  double tue() const {
    return update_bytes == 0 ? 0.0
                             : static_cast<double>(sync_traffic) /
                                   static_cast<double>(update_bytes);
  }
};

/// Replay the trace against every mainstream service profile. Reports come
/// back in the paper's service order.
std::vector<fleet_service_report> replay_trace_fleet(
    const fleet_config& cfg = {});

}  // namespace cloudsync
