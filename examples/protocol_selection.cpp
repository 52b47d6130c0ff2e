// Protocol selection: run the same workload with each sync protocol pinned,
// then let the adaptive selector pick per update from the analytical cost
// model (DESIGN.md, "Protocol selection & cost model"). The adaptive run
// should match or beat every pinned protocol — it full-files fresh creates
// where a pinned delta/dedup protocol would pay fingerprint rounds for
// nothing, and deltas the edits where full-file would reship the file.
//
//   $ ./protocol_selection
#include <cstdio>

#include "cloudsync.hpp"

using namespace cloudsync;

namespace {

// Every mechanism eligible so each protocol is a real contender: incremental
// sync on, content-defined dedup, 4 KiB delta blocks.
service_profile lab_profile() {
  service_profile s = dropbox();
  s.name = "lab";
  s.delta_chunk_size = 4 * KiB;
  s.dedup = {dedup_granularity::content_defined, 4 * MiB,
             /*cross_user=*/false, cdc_params{}};
  return s;
}

experiment_result run(protocol_mode mode, protocol_id forced) {
  experiment_config cfg{lab_profile()};
  cfg.method = access_method::pc_client;
  cfg.protocol.mode = mode;
  cfg.protocol.forced = forced;
  return run_protocol_experiment(cfg, protocol_workload::small_edits,
                                 /*files=*/6, /*file_bytes=*/64 * KiB);
}

}  // namespace

int main() {
  // 1. Pin each protocol in turn on a create-then-edit workload: 6 text
  //    files of 64 KiB, each modified twice after the initial sync.
  std::printf("small_edits workload, 6 files x 64 KiB, 2 edit rounds\n\n");
  const protocol_id pins[] = {protocol_id::full_file, protocol_id::rsync,
                              protocol_id::cdc_dedup};
  std::uint64_t best_pinned = ~0ull;
  for (const protocol_id id : pins) {
    const experiment_result r = run(protocol_mode::forced, id);
    std::printf("  forced %-10s %10s total  (TUE %.3f)\n", to_string(id),
                format_bytes(static_cast<double>(r.total_traffic())).c_str(),
                r.tue());
    if (r.total_traffic() < best_pinned) best_pinned = r.total_traffic();
  }

  // 2. Adaptive: the selector predicts each protocol's wire cost from a
  //    one-pass scan of the update and picks the cheapest, then calibrates
  //    its model against the bytes actually metered.
  const experiment_result ad = run(protocol_mode::adaptive, {});
  std::printf("  adaptive          %10s total  (TUE %.3f)\n\n",
              format_bytes(static_cast<double>(ad.total_traffic())).c_str(),
              ad.tue());

  std::printf("adaptive picks:\n");
  for (std::size_t p = 0; p < protocol_registry::instance().size(); ++p) {
    std::printf("  %-10s %llu updates\n",
                to_string(static_cast<protocol_id>(p)),
                static_cast<unsigned long long>(ad.selector.picks[p]));
  }
  std::printf(
      "\ncalibration: %llu observations, median prediction error %.1f%%\n",
      static_cast<unsigned long long>(ad.selector.observations),
      100.0 * ad.selector.median_abs_rel_error());
  std::printf("adaptive vs best pinned: %s vs %s\n",
              format_bytes(static_cast<double>(ad.total_traffic())).c_str(),
              format_bytes(static_cast<double>(best_pinned)).c_str());

  // A pinned protocol should never beat the selector here.
  return ad.total_traffic() <= best_pinned ? 0 : 1;
}
