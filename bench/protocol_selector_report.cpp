// Protocol-selection sweep: is the adaptive cost-model selector at least as
// network-efficient as every pinned protocol, on every workload, in every
// network environment — and does it actually win where the regimes mix?
//
// For each cell of {trace workload} x {network environment} the same
// deterministic trace (run_protocol_experiment) is replayed under:
//   - service_default        (the historical branching — the baseline)
//   - forced full_file / rsync / cdc_dedup (the three pinned protocols)
//   - adaptive               (argmin over the calibrated cost model)
// plus two variant-profile service_default runs that reproduce the pinned
// protocols through the legacy branching alone — the identity references
// that prove forcing a protocol goes through exactly the engine paths that
// already existed.
//
// Self-checks (nonzero exit on violation):
//   - every cell is byte-identical per (direction, traffic category)
//     between a serial and a parallel grid evaluation (CLOUDSYNC_THREADS
//     equivalent: 1 vs N workers);
//   - forced runs are byte-identical per meter category to the legacy
//     engine: forced(rsync) == service_default on the canonical profile,
//     forced(full_file) == service_default with {incremental off, dedup
//     off}, forced(cdc_dedup) == service_default with {incremental off,
//     dedup on};
//   - adaptive total traffic <= each pinned protocol within kAdaptiveSlack
//     in every cell, and strictly beats at least one pinned protocol in at
//     least one cell of every workload (regime mixing must pay);
//   - after calibration the selector's median |predicted - actual| /
//     actual over all adaptive observations is below kMedianErrorBudget.
//
// Machine-readable output: BENCH_protocol.json (or argv[1]). `--small`
// shrinks the grid to one network environment (sanitizer CI leg).
#include <cstdio>
#include <cstring>
#include <fstream>
#include <vector>

#include "bench_util.hpp"

using namespace cloudsync;
using namespace cloudsync::bench;

namespace {

constexpr std::uint64_t kFileBytes = 64 * KiB;
constexpr double kAdaptiveSlack = 1.02;     // gate (a): per-cell tolerance
constexpr double kMedianErrorBudget = 0.15; // gate (c)

const protocol_workload kWorkloads[] = {
    protocol_workload::small_edits,
    protocol_workload::fresh_rewrites,
    protocol_workload::duplicate_copy,
};

struct net_env {
  const char* name;
  link_config link;
};

/// The canonical lab profile: every protocol eligible (incremental sync on,
/// content-defined dedup on), small delta blocks so 64 KiB files have a
/// meaningful signature grid.
service_profile lab_profile() {
  service_profile s = dropbox();
  s.name = "lab";
  s.delta_chunk_size = 4 * KiB;
  s.dedup = {dedup_granularity::content_defined, 4 * MiB,
             /*cross_user=*/false, cdc_params{}};
  return s;
}

/// Legacy branching lands on full_file: incremental sync and dedup both off.
service_profile lab_full_only() {
  service_profile s = lab_profile();
  s.name = "lab-full";
  s.method(access_method::pc_client).incremental_sync = false;
  s.method(access_method::pc_client).dedup_enabled = false;
  s.dedup = dedup_policy::disabled();
  return s;
}

/// Legacy branching lands on cdc_dedup: incremental sync off, dedup on.
service_profile lab_cdc_only() {
  service_profile s = lab_profile();
  s.name = "lab-cdc";
  s.method(access_method::pc_client).incremental_sync = false;
  return s;
}

enum profile_kind : std::size_t { canonical = 0, full_only = 1, cdc_only = 2 };

/// One selection configuration of the sweep. `identity_of` points at the
/// forced run this variant-profile run must match byte-for-byte (-1: none).
struct run_config {
  const char* name;
  profile_kind profile;
  protocol_mode mode;
  protocol_id forced;
  int identity_of;
};
const run_config kRuns[] = {
    {"legacy", canonical, protocol_mode::service_default,
     protocol_id::full_file, 2},  // canonical branching picks rsync
    {"forced-full", canonical, protocol_mode::forced, protocol_id::full_file,
     -1},
    {"forced-rsync", canonical, protocol_mode::forced, protocol_id::rsync,
     -1},
    {"forced-cdc", canonical, protocol_mode::forced, protocol_id::cdc_dedup,
     -1},
    {"adaptive", canonical, protocol_mode::adaptive, protocol_id::full_file,
     -1},
    {"legacy-full", full_only, protocol_mode::service_default,
     protocol_id::full_file, 1},
    {"legacy-cdc", cdc_only, protocol_mode::service_default,
     protocol_id::full_file, 3},
};
constexpr std::size_t kNumRuns = std::size(kRuns);
constexpr std::size_t kForcedRuns[] = {1, 2, 3};  // gate (a) comparands
constexpr std::size_t kAdaptiveRun = 4;

experiment_config cfg_for(const run_config& rc, const link_config& link) {
  static const service_profile profiles[] = {lab_profile(), lab_full_only(),
                                             lab_cdc_only()};
  experiment_config cfg =
      make_config(profiles[rc.profile], access_method::pc_client);
  cfg.link = link;
  cfg.protocol.mode = rc.mode;
  cfg.protocol.forced = rc.forced;
  return cfg;
}

double median_of(std::vector<double> v) {
  if (v.empty()) return 0.0;
  const std::size_t mid = v.size() / 2;
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(mid),
                   v.end());
  return v[mid];
}

std::string picks_str(const protocol_selector_stats& s) {
  return strfmt("%llu/%llu/%llu", (unsigned long long)s.picks[0],
                (unsigned long long)s.picks[1],
                (unsigned long long)s.picks[2]);
}

}  // namespace

int main(int argc, char** argv) {
  bool small = false;
  const char* out_path = nullptr;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--small") == 0) {
      small = true;
    } else {
      out_path = argv[i];
    }
  }
  if (out_path == nullptr) out_path = "BENCH_protocol.json";
  print_section(small ? "Protocol selection (small grid)"
                      : "Protocol selection: adaptive vs pinned protocols");

  const std::size_t files = small ? 3 : 6;
  const std::vector<net_env> envs =
      small ? std::vector<net_env>{{"minnesota", link_config::minnesota()}}
            : std::vector<net_env>{{"minnesota", link_config::minnesota()},
                                   {"beijing", link_config::beijing()}};
  const std::size_t num_workloads = std::size(kWorkloads);
  const std::size_t num_envs = envs.size();

  // Grid layout: [workload][env][run].
  std::vector<experiment_job> jobs;
  for (const protocol_workload wl : kWorkloads) {
    for (const net_env& ne : envs) {
      for (const run_config& rc : kRuns) {
        jobs.push_back([cfg = cfg_for(rc, ne.link), wl, files] {
          return run_protocol_experiment(cfg, wl, files, kFileBytes);
        });
      }
    }
  }

  const unsigned threads = parallel_runner::default_thread_count();
  const std::vector<experiment_result> serial = evaluate(jobs, 1);
  const bool deterministic = serial == evaluate(jobs, threads);

  auto cell_at = [&](std::size_t wl, std::size_t env,
                     std::size_t run) -> const experiment_result& {
    return serial[(wl * num_envs + env) * kNumRuns + run];
  };

  // Gate (b): every forced run is byte-identical per meter category to the
  // legacy engine branching that produces the same protocol.
  bool forced_identity = true;
  for (std::size_t w = 0; w < num_workloads; ++w) {
    for (std::size_t e = 0; e < num_envs; ++e) {
      for (std::size_t r = 0; r < kNumRuns; ++r) {
        if (kRuns[r].identity_of < 0) continue;
        const auto f = static_cast<std::size_t>(kRuns[r].identity_of);
        if (cell_at(w, e, r).meter != cell_at(w, e, f).meter) {
          forced_identity = false;
          std::fprintf(stderr,
                       "identity violation: %s/%s %s vs %s meters differ\n",
                       to_string(kWorkloads[w]), envs[e].name, kRuns[r].name,
                       kRuns[f].name);
        }
      }
    }
  }

  // Gate (a): adaptive never loses to a pinned protocol by more than the
  // slack, and strictly beats at least one pinned protocol somewhere in
  // every workload.
  bool adaptive_bounded = true;
  std::vector<bool> strict_win(num_workloads, false);
  for (std::size_t w = 0; w < num_workloads; ++w) {
    for (std::size_t e = 0; e < num_envs; ++e) {
      const std::uint64_t ad = cell_at(w, e, kAdaptiveRun).total_traffic();
      for (const std::size_t f : kForcedRuns) {
        const std::uint64_t fx = cell_at(w, e, f).total_traffic();
        if (static_cast<double>(ad) > static_cast<double>(fx) * kAdaptiveSlack) {
          adaptive_bounded = false;
          std::fprintf(stderr,
                       "adaptive over budget: %s/%s adaptive=%llu %s=%llu\n",
                       to_string(kWorkloads[w]), envs[e].name,
                       (unsigned long long)ad, kRuns[f].name,
                       (unsigned long long)fx);
        }
        if (ad < fx) strict_win[w] = true;
      }
    }
  }
  bool adaptive_wins = true;
  for (std::size_t w = 0; w < num_workloads; ++w) {
    adaptive_wins = adaptive_wins && strict_win[w];
  }

  // Gate (c): pooled median calibrated prediction error.
  std::vector<double> pooled_errors;
  std::uint64_t pooled_obs = 0;
  for (std::size_t w = 0; w < num_workloads; ++w) {
    for (std::size_t e = 0; e < num_envs; ++e) {
      const protocol_selector_stats& s = cell_at(w, e, kAdaptiveRun).selector;
      pooled_errors.insert(pooled_errors.end(), s.abs_rel_errors.begin(),
                           s.abs_rel_errors.end());
      pooled_obs += s.observations;
    }
  }
  const double median_err = median_of(pooled_errors);
  const bool calibrated = pooled_obs > 0 && median_err < kMedianErrorBudget;

  for (std::size_t w = 0; w < num_workloads; ++w) {
    for (std::size_t e = 0; e < num_envs; ++e) {
      text_table t;
      t.header({"run", "total", "TUE", "payload up", "metadata up",
                "picks f/r/c", "median err"});
      for (std::size_t r = 0; r < kNumRuns; ++r) {
        const experiment_result& res = cell_at(w, e, r);
        const protocol_selector_stats& s = res.selector;
        t.row({kRuns[r].name, human(res.total_traffic()),
               strfmt("%.3f", res.tue()),
               human(res.meter.get(direction::up, traffic_category::payload)),
               human(res.meter.get(direction::up, traffic_category::metadata)),
               picks_str(s),
               s.observations == 0
                   ? std::string("-")
                   : strfmt("%.3f",
                            median_of(std::vector<double>(
                                s.abs_rel_errors)))});
      }
      std::printf("--- %s @ %s (%zu files x %s) ---\n%s\n",
                  to_string(kWorkloads[w]), envs[e].name, files,
                  human(kFileBytes).c_str(), t.str().c_str());
    }
  }

  std::printf(
      "checks: deterministic(1 vs %u threads)=%s, forced identity=%s, "
      "adaptive within %.0f%%=%s, strict win per workload=%s, "
      "median prediction error=%.3f (< %.2f)=%s\n",
      threads, deterministic ? "yes" : "NO", forced_identity ? "yes" : "NO",
      (kAdaptiveSlack - 1.0) * 100.0, adaptive_bounded ? "yes" : "NO",
      adaptive_wins ? "yes" : "NO", median_err, kMedianErrorBudget,
      calibrated ? "yes" : "NO");

  std::ofstream out(out_path);
  out << "{\n"
      << "  \"bench\": \"protocol_selector\",\n"
      << "  \"small\": " << (small ? "true" : "false") << ",\n"
      << "  \"files\": " << files << ",\n"
      << "  \"file_bytes\": " << kFileBytes << ",\n"
      << "  \"adaptive_slack\": " << kAdaptiveSlack << ",\n"
      << "  \"median_error_budget\": " << kMedianErrorBudget << ",\n"
      << "  \"deterministic\": " << (deterministic ? "true" : "false")
      << ",\n"
      << "  \"forced_identity\": " << (forced_identity ? "true" : "false")
      << ",\n"
      << "  \"adaptive_bounded\": " << (adaptive_bounded ? "true" : "false")
      << ",\n"
      << "  \"adaptive_wins\": " << (adaptive_wins ? "true" : "false")
      << ",\n"
      << "  \"median_prediction_error\": " << median_err << ",\n"
      << "  \"observations\": " << pooled_obs << ",\n"
      << "  \"cells\": [";
  bool first_cell = true;
  for (std::size_t w = 0; w < num_workloads; ++w) {
    for (std::size_t e = 0; e < num_envs; ++e) {
      out << (first_cell ? "\n" : ",\n")
          << "    {\"workload\": \"" << to_string(kWorkloads[w])
          << "\", \"env\": \"" << envs[e].name << "\", \"runs\": {";
      first_cell = false;
      for (std::size_t r = 0; r < kNumRuns; ++r) {
        const experiment_result& res = cell_at(w, e, r);
        out << (r == 0 ? "\n" : ",\n") << "      \"" << kRuns[r].name
            << "\": {\"total\": " << res.total_traffic()
            << ", \"tue\": " << res.tue() << ", \"payload_up\": "
            << res.meter.get(direction::up, traffic_category::payload)
            << ", \"metadata_up\": "
            << res.meter.get(direction::up, traffic_category::metadata)
            << ", \"commits\": " << res.counters.commits << ", \"picks\": ["
            << res.selector.picks[0] << ", " << res.selector.picks[1] << ", "
            << res.selector.picks[2] << "], \"observations\": "
            << res.selector.observations << ", \"median_err\": "
            << median_of(std::vector<double>(res.selector.abs_rel_errors))
            << "}";
      }
      out << "\n    }}";
    }
  }
  out << "\n  ]\n}\n";
  out.flush();
  if (!out) {
    std::fprintf(stderr, "error: could not write %s\n", out_path);
    return 1;
  }
  std::printf("wrote %s\n", out_path);

  return deterministic && forced_identity && adaptive_bounded &&
                 adaptive_wins && calibrated
             ? 0
             : 1;
}
