// protocol_stats: replay one protocol-selection trace workload under a
// chosen selection mode and dump what the selector actually did — per-
// protocol pick counts, the calibrated correction factors, the predicted-
// vs-actual relative-error histogram, and the traffic split. The
// observability companion to bench/protocol_selector_report (DESIGN.md,
// "Protocol selection & cost model"). Exits nonzero if the replay commits
// nothing or an adaptive run records no calibration observations.
//
// Usage: protocol_stats [--workload W] [--mode M] [--forced P] [--files N]
//                       [--size BYTES] [--env E] [--json]
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "cli_numbers.hpp"
#include "core/experiment.hpp"

using namespace cloudsync;

namespace {

int usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s [--workload W] [--mode M] [--forced P] [--files N]\n"
      "          [--size BYTES] [--env E] [--json]\n"
      "  --workload W  small_edits | fresh_rewrites | duplicate_copy\n"
      "                (default small_edits)\n"
      "  --mode M      service_default | forced | adaptive (default "
      "adaptive)\n"
      "  --forced P    full_file | rsync | cdc_dedup (with --mode forced)\n"
      "  --env E       minnesota | beijing (default minnesota)\n",
      argv0);
  return 2;
}

const char* kErrorBucketLabels[protocol_selector_stats::kErrorBuckets] = {
    "<5%", "<10%", "<15%", "<25%", "<50%", "<100%", ">=100%"};

/// The same every-protocol-eligible lab profile the bench sweeps.
service_profile lab_profile() {
  service_profile s = dropbox();
  s.name = "lab";
  s.delta_chunk_size = 4 * KiB;
  s.dedup = {dedup_granularity::content_defined, 4 * MiB,
             /*cross_user=*/false, cdc_params{}};
  return s;
}

void print_json(protocol_workload wl, const experiment_config& cfg,
                std::size_t files, std::uint64_t file_bytes,
                const experiment_result& r) {
  const protocol_selector_stats& s = r.selector;
  std::printf("{\n");
  std::printf("  \"workload\": \"%s\",\n", to_string(wl));
  std::printf("  \"mode\": \"%s\",\n", to_string(cfg.protocol.mode));
  std::printf("  \"files\": %zu,\n", files);
  std::printf("  \"file_bytes\": %llu,\n",
              static_cast<unsigned long long>(file_bytes));
  std::printf("  \"commits\": %llu,\n",
              static_cast<unsigned long long>(r.counters.commits));
  std::printf("  \"total_traffic\": %llu,\n",
              static_cast<unsigned long long>(r.total_traffic()));
  std::printf("  \"tue\": %g,\n", r.tue());
  std::printf("  \"picks\": {");
  for (std::size_t p = 0; p < protocol_registry::instance().size(); ++p) {
    std::printf("%s\"%s\": %llu", p ? ", " : "",
                to_string(static_cast<protocol_id>(p)),
                static_cast<unsigned long long>(s.picks[p]));
  }
  std::printf("},\n");
  std::printf("  \"correction\": {");
  for (std::size_t p = 0; p < protocol_registry::instance().size(); ++p) {
    std::printf("%s\"%s\": %g", p ? ", " : "",
                to_string(static_cast<protocol_id>(p)), s.correction[p]);
  }
  std::printf("},\n");
  std::printf("  \"observations\": %llu,\n",
              static_cast<unsigned long long>(s.observations));
  std::printf("  \"mean_abs_rel_error\": %g,\n", s.mean_abs_rel_error());
  std::printf("  \"median_abs_rel_error\": %g,\n", s.median_abs_rel_error());
  std::printf("  \"error_hist\": [");
  for (std::size_t b = 0; b < protocol_selector_stats::kErrorBuckets; ++b) {
    std::printf("%s%llu", b ? ", " : "",
                static_cast<unsigned long long>(s.error_hist[b]));
  }
  std::printf("]\n}\n");
}

}  // namespace

int main(int argc, char** argv) {
  protocol_workload wl = protocol_workload::small_edits;
  protocol_mode mode = protocol_mode::adaptive;
  protocol_id forced = protocol_id::full_file;
  std::size_t files = 6;
  std::uint64_t file_bytes = 64 * KiB;
  link_config link = link_config::minnesota();
  bool json = false;
  const cli::strict_numbers num([&] { usage(argv[0]); });

  for (int i = 1; i < argc; ++i) {
    const char* a = argv[i];
    auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    if (std::strcmp(a, "--workload") == 0) {
      const char* v = next();
      if (!v) return usage(argv[0]);
      if (std::strcmp(v, "small_edits") == 0) {
        wl = protocol_workload::small_edits;
      } else if (std::strcmp(v, "fresh_rewrites") == 0) {
        wl = protocol_workload::fresh_rewrites;
      } else if (std::strcmp(v, "duplicate_copy") == 0) {
        wl = protocol_workload::duplicate_copy;
      } else {
        return usage(argv[0]);
      }
    } else if (std::strcmp(a, "--mode") == 0) {
      const char* v = next();
      if (!v) return usage(argv[0]);
      if (std::strcmp(v, "service_default") == 0) {
        mode = protocol_mode::service_default;
      } else if (std::strcmp(v, "forced") == 0) {
        mode = protocol_mode::forced;
      } else if (std::strcmp(v, "adaptive") == 0) {
        mode = protocol_mode::adaptive;
      } else {
        return usage(argv[0]);
      }
    } else if (std::strcmp(a, "--forced") == 0) {
      const char* v = next();
      if (!v) return usage(argv[0]);
      if (std::strcmp(v, "full_file") == 0) {
        forced = protocol_id::full_file;
      } else if (std::strcmp(v, "rsync") == 0) {
        forced = protocol_id::rsync;
      } else if (std::strcmp(v, "cdc_dedup") == 0) {
        forced = protocol_id::cdc_dedup;
      } else {
        return usage(argv[0]);
      }
    } else if (std::strcmp(a, "--files") == 0) {
      files = num.count(next());
    } else if (std::strcmp(a, "--size") == 0) {
      file_bytes = num.size(next());
    } else if (std::strcmp(a, "--env") == 0) {
      const char* v = next();
      if (!v) return usage(argv[0]);
      if (std::strcmp(v, "minnesota") == 0) {
        link = link_config::minnesota();
      } else if (std::strcmp(v, "beijing") == 0) {
        link = link_config::beijing();
      } else {
        return usage(argv[0]);
      }
    } else if (std::strcmp(a, "--json") == 0) {
      json = true;
    } else {
      return usage(argv[0]);
    }
  }
  if (files == 0 || file_bytes == 0) return usage(argv[0]);

  experiment_config cfg{lab_profile()};
  cfg.method = access_method::pc_client;
  cfg.link = link;
  cfg.protocol.mode = mode;
  cfg.protocol.forced = forced;

  const experiment_result r =
      run_protocol_experiment(cfg, wl, files, file_bytes);
  const protocol_selector_stats& s = r.selector;

  if (json) {
    print_json(wl, cfg, files, file_bytes, r);
  } else {
    std::printf("protocol_stats: %s, mode %s%s%s, %zu files x %llu B\n\n",
                to_string(wl), to_string(mode),
                mode == protocol_mode::forced ? " " : "",
                mode == protocol_mode::forced ? to_string(forced) : "",
                files, static_cast<unsigned long long>(file_bytes));
    std::printf("traffic: %llu B total (TUE %.3f), %llu commits\n",
                static_cast<unsigned long long>(r.total_traffic()), r.tue(),
                static_cast<unsigned long long>(r.counters.commits));
    std::printf("picks / correction:\n");
    for (std::size_t p = 0; p < protocol_registry::instance().size(); ++p) {
      std::printf("  %-10s %6llu  x%.3f\n",
                  to_string(static_cast<protocol_id>(p)),
                  static_cast<unsigned long long>(s.picks[p]),
                  s.correction[p]);
    }
    std::printf("calibration: %llu observations, mean |err| %.3f, "
                "median |err| %.3f\n",
                static_cast<unsigned long long>(s.observations),
                s.mean_abs_rel_error(), s.median_abs_rel_error());
    std::printf("error histogram:\n");
    for (std::size_t b = 0; b < protocol_selector_stats::kErrorBuckets; ++b) {
      std::printf("  %-7s %llu\n", kErrorBucketLabels[b],
                  static_cast<unsigned long long>(s.error_hist[b]));
    }
  }

  // Smoke-test teeth: the replay must commit, and an adaptive run that never
  // calibrated means the feedback loop is disconnected.
  if (r.counters.commits == 0) return 1;
  if (mode == protocol_mode::adaptive && s.observations == 0) return 1;
  return 0;
}
