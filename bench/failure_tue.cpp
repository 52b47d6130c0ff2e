// Robustness sweep: how does network-level efficiency degrade when the
// network and the service misbehave? For each service, runs the
// create-then-modify workload (distinct creations + one-byte modifications,
// journal-less) under increasingly hostile deterministic fault plans — link
// outages, connection resets, mid-transfer aborts, transient server errors
// and throttles — and reports TUE plus sync-completion time per intensity.
//
// Self-checks (nonzero exit on violation):
//   - zero intensity is byte-identical to a run with no fault plan at all
//     (the fault layer must be a strict no-op when disabled);
//   - every cell is byte-identical between a serial and a parallel grid
//     evaluation (seeded injection composes with the parallel runner);
//   - averaged TUE is monotonically non-decreasing in fault intensity
//     (faults can only waste traffic, never save it).
//
// Machine-readable output: BENCH_failure.json (or argv[1]).
#include <cstdio>
#include <fstream>
#include <vector>

#include "bench_util.hpp"

using namespace cloudsync;
using namespace cloudsync::bench;

namespace {

constexpr std::size_t kFiles = 8;
constexpr std::uint64_t kFileBytes = 256 * KiB;
const double kIntensities[] = {0.0, 0.25, 0.5, 1.0};
const std::uint64_t kSeeds[] = {1234, 4711, 9001};

experiment_config cfg_for(const service_profile& s, double intensity,
                          std::uint64_t seed) {
  experiment_config cfg = make_config(s, access_method::pc_client);
  cfg.link = link_config::beijing();  // the paper's lossy vantage point
  cfg.seed = seed;
  cfg.faults = fault_plan::degraded(intensity);
  return cfg;
}

/// Seed-averaged view of one (service, intensity) cell.
struct cell_avg {
  double tue = 0;
  double completion_sec = 0;
  double retry_traffic = 0;
  std::uint64_t retries = 0;
  std::uint64_t requeues = 0;
  std::uint64_t fallbacks = 0;
  std::uint64_t faults_injected = 0;
};

cell_avg average(const experiment_result* runs, std::size_t n) {
  cell_avg avg;
  for (std::size_t i = 0; i < n; ++i) {
    avg.tue += runs[i].tue();
    avg.completion_sec += runs[i].completion_sec;
    avg.retry_traffic += static_cast<double>(
        runs[i].meter.by_category(traffic_category::retry));
    avg.retries += runs[i].counters.retries;
    avg.requeues += runs[i].counters.requeues;
    avg.fallbacks += runs[i].counters.fallbacks;
    avg.faults_injected += runs[i].faults_injected;
  }
  avg.tue /= static_cast<double>(n);
  avg.completion_sec /= static_cast<double>(n);
  avg.retry_traffic /= static_cast<double>(n);
  return avg;
}

}  // namespace

int main(int argc, char** argv) {
  print_section("Failure sweep: TUE and completion time vs fault intensity");

  const std::vector<service_profile> services = {dropbox(), box(), onedrive()};
  constexpr std::size_t kNumIntensities = std::size(kIntensities);
  constexpr std::size_t kNumSeeds = std::size(kSeeds);

  // Grid layout: [service][intensity][seed], plus one trailing block of
  // explicit no-plan baselines [service][seed] that intensity 0 must match.
  std::vector<experiment_job> jobs;
  for (const service_profile& s : services) {
    for (const double intensity : kIntensities) {
      for (const std::uint64_t seed : kSeeds) {
        jobs.push_back([cfg = cfg_for(s, intensity, seed)] {
          return run_create_modify_experiment(cfg, kFiles, kFileBytes);
        });
      }
    }
  }
  for (const service_profile& s : services) {
    for (const std::uint64_t seed : kSeeds) {
      experiment_config cfg = cfg_for(s, 0.0, seed);
      cfg.faults = fault_plan::none();
      jobs.push_back([cfg] {
        return run_create_modify_experiment(cfg, kFiles, kFileBytes);
      });
    }
  }

  const unsigned threads = parallel_runner::default_thread_count();
  const std::vector<experiment_result> serial = evaluate(jobs, 1);
  const bool deterministic = serial == evaluate(jobs, threads);

  auto cell_at = [&](std::size_t svc, std::size_t inten, std::size_t seed) {
    return serial[(svc * kNumIntensities + inten) * kNumSeeds + seed];
  };
  const std::size_t baseline_off =
      services.size() * kNumIntensities * kNumSeeds;

  bool zero_matches_baseline = true;
  for (std::size_t svc = 0; svc < services.size(); ++svc) {
    for (std::size_t seed = 0; seed < kNumSeeds; ++seed) {
      zero_matches_baseline =
          zero_matches_baseline &&
          cell_at(svc, 0, seed) ==
              serial[baseline_off + svc * kNumSeeds + seed];
    }
  }

  bool tue_monotone = true;
  std::vector<std::vector<cell_avg>> table_cells(services.size());
  for (std::size_t svc = 0; svc < services.size(); ++svc) {
    for (std::size_t inten = 0; inten < kNumIntensities; ++inten) {
      experiment_result runs[kNumSeeds];
      for (std::size_t seed = 0; seed < kNumSeeds; ++seed) {
        runs[seed] = cell_at(svc, inten, seed);
      }
      table_cells[svc].push_back(average(runs, kNumSeeds));
      if (inten > 0) {
        tue_monotone = tue_monotone && table_cells[svc][inten].tue >=
                                           table_cells[svc][inten - 1].tue;
      }
    }
  }

  for (std::size_t svc = 0; svc < services.size(); ++svc) {
    text_table table;
    table.header({"intensity", "TUE", "completion s", "retry traffic",
                  "retries", "fallbacks", "faults"});
    for (std::size_t inten = 0; inten < kNumIntensities; ++inten) {
      const cell_avg& c = table_cells[svc][inten];
      table.row({strfmt("%.2f", kIntensities[inten]), strfmt("%.3f", c.tue),
                 strfmt("%.1f", c.completion_sec), human(c.retry_traffic),
                 strfmt("%llu", (unsigned long long)c.retries),
                 strfmt("%llu", (unsigned long long)c.fallbacks),
                 strfmt("%llu", (unsigned long long)c.faults_injected)});
    }
    std::printf("--- %s (PC client, Beijing link, %zu seeds) ---\n%s\n",
                services[svc].name.c_str(), kNumSeeds, table.str().c_str());
  }

  std::printf("checks: deterministic(1 vs %u threads)=%s, "
              "zero-intensity==no-plan=%s, TUE monotone=%s\n",
              threads, deterministic ? "yes" : "NO",
              zero_matches_baseline ? "yes" : "NO",
              tue_monotone ? "yes" : "NO");

  const char* out_path = argc > 1 ? argv[1] : "BENCH_failure.json";
  std::ofstream out(out_path);
  out << "{\n"
      << "  \"bench\": \"failure\",\n"
      << "  \"files\": " << kFiles << ",\n"
      << "  \"file_bytes\": " << kFileBytes << ",\n"
      << "  \"seeds\": " << kNumSeeds << ",\n"
      << "  \"deterministic\": " << (deterministic ? "true" : "false") << ",\n"
      << "  \"zero_matches_baseline\": "
      << (zero_matches_baseline ? "true" : "false") << ",\n"
      << "  \"tue_monotone\": " << (tue_monotone ? "true" : "false") << ",\n"
      << "  \"services\": {";
  for (std::size_t svc = 0; svc < services.size(); ++svc) {
    out << (svc == 0 ? "\n" : ",\n") << "    \"" << services[svc].name
        << "\": [";
    for (std::size_t inten = 0; inten < kNumIntensities; ++inten) {
      const cell_avg& c = table_cells[svc][inten];
      out << (inten == 0 ? "\n" : ",\n") << "      {\"intensity\": "
          << kIntensities[inten] << ", \"tue\": " << c.tue
          << ", \"completion_sec\": " << c.completion_sec
          << ", \"retry_traffic\": " << c.retry_traffic
          << ", \"retries\": " << c.retries << ", \"requeues\": " << c.requeues
          << ", \"fallbacks\": " << c.fallbacks
          << ", \"faults_injected\": " << c.faults_injected << "}";
    }
    out << "\n    ]";
  }
  out << "\n  }\n}\n";
  out.flush();
  if (!out) {
    std::fprintf(stderr, "error: could not write %s\n", out_path);
    return 1;
  }
  std::printf("wrote %s\n", out_path);

  return deterministic && zero_matches_baseline && tue_monotone ? 0 : 1;
}
