// Crash-recovery sweep: what does a crashing client cost at the network
// level, and how much of that cost do resumable transfers claw back? For
// each service, runs the create-then-modify workload (distinct creations +
// one-byte modifications, journaled, through resumable upload sessions) under
// increasingly frequent seeded client crashes, once with session resume on
// and once restarting every interrupted transfer from scratch — the paper's
// §5 observation (Box and Ubuntu One re-send the whole file after a
// disruption) against the engineered alternative.
//
// Self-checks (nonzero exit on violation):
//   - every cell is byte-identical between a serial and a parallel grid
//     evaluation (CLOUDSYNC_THREADS=1 vs N — crash schedules, restarts, and
//     recovery compose with the parallel runner);
//   - the full invariant suite (convergence, journal/session quiescence, no
//     lost or duplicated commits, per-incarnation byte conservation) holds
//     in every cell;
//   - at zero crash rate, resume-on and resume-off are byte-identical (the
//     recovery disposition must not matter when nobody crashes);
//   - every nonzero-rate cell actually crashed, and its resume-on variant
//     resumed at least one transfer mid-flight (otherwise the comparison
//     is vacuous — tune seeds/rates rather than accept it);
//   - averaged resume-on TUE is strictly below restart-from-scratch TUE at
//     every nonzero crash rate.
//
// Machine-readable output: BENCH_crash.json (or argv[1]).
#include <cstdio>
#include <fstream>
#include <vector>

#include "bench_util.hpp"

using namespace cloudsync;
using namespace cloudsync::bench;

namespace {

constexpr std::size_t kFiles = 6;
constexpr std::uint64_t kFileBytes = 256 * KiB;
const double kCrashRates[] = {0.0, 0.1, 0.2, 0.4};
const std::uint64_t kSeeds[] = {1234, 4711, 9001};

experiment_config cfg_for(const service_profile& s, double crash_rate,
                          bool resume, std::uint64_t seed) {
  experiment_config cfg = make_config(s, access_method::pc_client);
  cfg.seed = seed;
  cfg.journal = true;
  cfg.recovery.resume = resume;
  cfg.faults = fault_plan::crashes(crash_rate, /*seed=*/seed ^ 0x5bd1);
  return cfg;
}

/// Seed-averaged view of one (service, rate, resume) cell.
struct cell_avg {
  double tue = 0;
  double completion_sec = 0;
  double resume_traffic = 0;
  std::uint64_t crashes = 0;
  std::uint64_t resumes = 0;
  std::uint64_t recovery_restarts = 0;
};

cell_avg average(const experiment_result* runs, std::size_t n) {
  cell_avg avg;
  for (std::size_t i = 0; i < n; ++i) {
    avg.tue += runs[i].tue();
    avg.completion_sec += runs[i].completion_sec;
    avg.resume_traffic += static_cast<double>(
        runs[i].meter.by_category(traffic_category::resume));
    avg.crashes += runs[i].crashes;
    avg.resumes += runs[i].counters.resumes;
    avg.recovery_restarts += runs[i].counters.recovery_restarts;
  }
  avg.tue /= static_cast<double>(n);
  avg.completion_sec /= static_cast<double>(n);
  avg.resume_traffic /= static_cast<double>(n);
  return avg;
}

}  // namespace

int main(int argc, char** argv) {
  print_section("Crash sweep: TUE with resumable transfers vs restart");

  const std::vector<service_profile> services = {dropbox(), box(), onedrive()};
  constexpr std::size_t kNumRates = std::size(kCrashRates);
  constexpr std::size_t kNumSeeds = std::size(kSeeds);

  // Grid layout: [service][rate][resume? 0=on 1=off][seed].
  std::vector<experiment_job> jobs;
  for (const service_profile& s : services) {
    for (const double rate : kCrashRates) {
      for (const bool resume : {true, false}) {
        for (const std::uint64_t seed : kSeeds) {
          jobs.push_back([cfg = cfg_for(s, rate, resume, seed)] {
            return run_create_modify_experiment(cfg, kFiles, kFileBytes);
          });
        }
      }
    }
  }

  const unsigned threads = parallel_runner::default_thread_count();
  const std::vector<experiment_result> serial = evaluate(jobs, 1);
  const bool deterministic = serial == evaluate(jobs, threads);

  bool invariants_ok = true;
  for (const experiment_result& r : serial) {
    if (!r.invariants.ok()) {
      invariants_ok = false;
      std::fprintf(stderr, "invariant violation:\n%s\n",
                   r.invariants.summary().c_str());
    }
  }

  auto cell_at = [&](std::size_t svc, std::size_t rate, bool resume,
                     std::size_t seed) -> const experiment_result& {
    return serial[((svc * kNumRates + rate) * 2 + (resume ? 0 : 1)) *
                      kNumSeeds +
                  seed];
  };

  // Zero crashes → the recovery disposition is dead code, byte for byte.
  bool zero_rate_identical = true;
  for (std::size_t svc = 0; svc < services.size(); ++svc) {
    for (std::size_t seed = 0; seed < kNumSeeds; ++seed) {
      zero_rate_identical =
          zero_rate_identical &&
          cell_at(svc, 0, true, seed) == cell_at(svc, 0, false, seed);
    }
  }

  bool cells_crashed = true;
  bool resume_wins = true;
  // table_cells[svc][rate][resume? 0=on 1=off]
  std::vector<std::vector<std::vector<cell_avg>>> table_cells(services.size());
  for (std::size_t svc = 0; svc < services.size(); ++svc) {
    table_cells[svc].resize(kNumRates);
    for (std::size_t rate = 0; rate < kNumRates; ++rate) {
      for (const bool resume : {true, false}) {
        experiment_result runs[kNumSeeds];
        for (std::size_t seed = 0; seed < kNumSeeds; ++seed) {
          runs[seed] = cell_at(svc, rate, resume, seed);
        }
        table_cells[svc][rate].push_back(average(runs, kNumSeeds));
      }
      const cell_avg& on = table_cells[svc][rate][0];
      const cell_avg& off = table_cells[svc][rate][1];
      if (rate > 0) {
        // The comparison is only meaningful if the schedule actually killed
        // clients and the resume variant continued a transfer mid-flight.
        cells_crashed = cells_crashed && on.crashes > 0 && off.crashes > 0 &&
                        on.resumes > 0;
        resume_wins = resume_wins && on.tue < off.tue;
      }
    }
  }

  for (std::size_t svc = 0; svc < services.size(); ++svc) {
    text_table table;
    table.header({"crash rate", "TUE resume", "TUE restart", "crashes",
                  "resumes", "re-sent", "resume traffic", "completion s"});
    for (std::size_t rate = 0; rate < kNumRates; ++rate) {
      const cell_avg& on = table_cells[svc][rate][0];
      const cell_avg& off = table_cells[svc][rate][1];
      table.row({strfmt("%.2f", kCrashRates[rate]), strfmt("%.3f", on.tue),
                 strfmt("%.3f", off.tue),
                 strfmt("%llu", (unsigned long long)(on.crashes + off.crashes)),
                 strfmt("%llu", (unsigned long long)on.resumes),
                 strfmt("%llu", (unsigned long long)off.recovery_restarts),
                 human(on.resume_traffic),
                 strfmt("%.1f", on.completion_sec)});
    }
    std::printf("--- %s (PC client, journaled sessions, %zu seeds) ---\n%s\n",
                services[svc].name.c_str(), kNumSeeds, table.str().c_str());
  }

  std::printf(
      "checks: deterministic(1 vs %u threads)=%s, invariants=%s, "
      "zero-rate resume==restart=%s, nonzero cells crashed+resumed=%s, "
      "resume TUE < restart TUE=%s\n",
      threads, deterministic ? "yes" : "NO", invariants_ok ? "yes" : "NO",
      zero_rate_identical ? "yes" : "NO", cells_crashed ? "yes" : "NO",
      resume_wins ? "yes" : "NO");

  const char* out_path = argc > 1 ? argv[1] : "BENCH_crash.json";
  std::ofstream out(out_path);
  out << "{\n"
      << "  \"bench\": \"crash_recovery\",\n"
      << "  \"files\": " << kFiles << ",\n"
      << "  \"file_bytes\": " << kFileBytes << ",\n"
      << "  \"seeds\": " << kNumSeeds << ",\n"
      << "  \"deterministic\": " << (deterministic ? "true" : "false") << ",\n"
      << "  \"invariants_ok\": " << (invariants_ok ? "true" : "false") << ",\n"
      << "  \"zero_rate_identical\": "
      << (zero_rate_identical ? "true" : "false") << ",\n"
      << "  \"cells_crashed\": " << (cells_crashed ? "true" : "false") << ",\n"
      << "  \"resume_wins\": " << (resume_wins ? "true" : "false") << ",\n"
      << "  \"services\": {";
  for (std::size_t svc = 0; svc < services.size(); ++svc) {
    out << (svc == 0 ? "\n" : ",\n") << "    \"" << services[svc].name
        << "\": [";
    for (std::size_t rate = 0; rate < kNumRates; ++rate) {
      const cell_avg& on = table_cells[svc][rate][0];
      const cell_avg& off = table_cells[svc][rate][1];
      out << (rate == 0 ? "\n" : ",\n") << "      {\"crash_rate\": "
          << kCrashRates[rate] << ", \"tue_resume\": " << on.tue
          << ", \"tue_restart\": " << off.tue
          << ", \"crashes_resume\": " << on.crashes
          << ", \"crashes_restart\": " << off.crashes
          << ", \"resumes\": " << on.resumes
          << ", \"recovery_restarts\": " << off.recovery_restarts
          << ", \"resume_traffic\": " << on.resume_traffic
          << ", \"completion_resume_sec\": " << on.completion_sec
          << ", \"completion_restart_sec\": " << off.completion_sec << "}";
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

  return deterministic && invariants_ok && zero_rate_identical &&
                 cells_crashed && resume_wins
             ? 0
             : 1;
}
