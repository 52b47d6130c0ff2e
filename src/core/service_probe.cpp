#include "core/service_probe.hpp"

#include <algorithm>

#include "util/text_table.hpp"
#include "util/units.hpp"

namespace cloudsync {

namespace {

/// Does an "append 1 KB every `period`" stream collapse into one commit?
/// Fixed debounce defers absorb the whole stream (commit count 1); mere
/// engine throttling still commits repeatedly.
bool stream_fully_batched(const experiment_config& cfg, double period_sec) {
  experiment_env env(cfg);
  station& st = env.primary();
  st.fs.create("probe/defer.dat", byte_buffer{}, env.clock().now());
  env.settle();
  const std::uint64_t before = st.client->counters().commits;
  for (int i = 1; i <= 16; ++i) {
    env.clock().schedule_at(
        sim_time::from_sec(10.0 + period_sec * i), [&env, &st] {
          append_random(st.fs, "probe/defer.dat", env.random(), 1024,
                        env.clock().now());
        });
  }
  env.settle();
  return st.client->counters().commits - before <= 1;
}

}  // namespace

probed_characteristics probe_service(const experiment_config& cfg,
                                     const probe_options& options) {
  probed_characteristics out;

  // Experiment 1: per-event overhead from a 1 B creation.
  out.per_event_overhead = measure_creation_traffic(cfg, 1);

  // Experiment 3: modify one byte of a 1 MB incompressible file. Full-file
  // sync re-ships ~the megabyte; IDS ships a chunk plus overhead.
  {
    const std::uint64_t mod = measure_modification_traffic(cfg, 1 * MiB);
    const std::uint64_t full = measure_creation_traffic(cfg, 1 * MiB);
    out.incremental_sync = mod * 2 < full;
    if (out.incremental_sync) {
      out.est_delta_chunk =
          mod > out.per_event_overhead ? mod - out.per_event_overhead : 0;
    }
  }

  // Experiment 4: compare compressible vs incompressible transfers.
  {
    const std::uint64_t text_up = measure_text_upload_traffic(cfg, 2 * MiB);
    const std::uint64_t raw_up = measure_creation_traffic(cfg, 2 * MiB);
    out.est_upload_ratio = static_cast<double>(raw_up) /
                           static_cast<double>(std::max<std::uint64_t>(
                               1, text_up));
    out.compresses_upload = out.est_upload_ratio > 1.15;

    const std::uint64_t text_dn = measure_text_download_traffic(cfg, 2 * MiB);
    // Download the incompressible file for the baseline.
    experiment_env env(cfg);
    station& st = env.primary();
    st.fs.create("probe/raw.bin", make_compressed_file(env.random(), 2 * MiB),
                 env.clock().now());
    env.settle();
    const auto snap = st.client->meter().snap();
    st.client->download("probe/raw.bin");
    env.settle();
    const std::uint64_t raw_dn = experiment_env::traffic_since(st, snap);
    out.est_download_ratio = static_cast<double>(raw_dn) /
                             static_cast<double>(std::max<std::uint64_t>(
                                 1, text_dn));
    out.compresses_download = out.est_download_ratio > 1.15;
  }

  // Experiment 1': 50 x 1 KB batch.
  {
    const std::uint64_t traffic =
        measure_batch_creation_traffic(cfg, 50, 1 * KiB);
    out.batch_tue = tue(traffic, 50 * KiB);
    out.batched_sync = out.batch_tue < 3.0;
  }

  // Experiment 6: find the largest inter-update period the service still
  // fully absorbs, then refine — the paper's integer-scan + float-refine.
  {
    double lo = 0.0;  // fully batched at this period
    double hi = 0.0;  // first period seen NOT fully batched
    for (double x = 1.0; x <= options.max_defer_scan_sec; x += 1.0) {
      if (stream_fully_batched(cfg, x)) {
        lo = x;
      } else {
        hi = x;
        break;
      }
    }
    if (lo > 0.0 && hi > lo) {
      while (hi - lo > options.defer_resolution_sec) {
        const double mid = (lo + hi) / 2.0;
        (stream_fully_batched(cfg, mid) ? lo : hi) = mid;
      }
      out.has_fixed_defer = true;
      out.est_defer_sec = (lo + hi) / 2.0;
    } else if (lo > 0.0) {
      // Batched across the whole scan range: deferment >= the range.
      out.has_fixed_defer = true;
      out.est_defer_sec = lo;
    }
  }

  // Experiment 5: Algorithm 1, both scopes.
  if (options.probe_dedup) {
    out.dedup_same_user = probe_dedup_granularity(cfg, false);
    out.dedup_cross_user = probe_dedup_granularity(cfg, true);
  }

  return out;
}

std::string probed_characteristics::summary() const {
  text_table t;
  t.header({"Design choice", "Inferred"});
  t.row({"per-event overhead",
         format_bytes(static_cast<double>(per_event_overhead))});
  t.row({"sync granularity",
         incremental_sync
             ? strfmt("incremental (chunk ~%s)",
                      format_bytes(static_cast<double>(est_delta_chunk))
                          .c_str())
             : "full-file"});
  t.row({"upload compression",
         compresses_upload ? strfmt("yes (ratio ~%.2f)", est_upload_ratio)
                           : "no"});
  t.row({"download compression",
         compresses_download ? strfmt("yes (ratio ~%.2f)", est_download_ratio)
                             : "no"});
  t.row({"batched data sync (BDS)",
         batched_sync ? strfmt("yes (batch TUE %.1f)", batch_tue)
                      : strfmt("no (batch TUE %.1f)", batch_tue)});
  t.row({"sync deferment",
         has_fixed_defer ? strfmt("~%.2f s", est_defer_sec) : "none found"});
  t.row({"dedup (same user)", dedup_same_user.granularity_string()});
  t.row({"dedup (cross user)", dedup_cross_user.granularity_string()});
  return t.str();
}

}  // namespace cloudsync
