// Transfer-frontier sweep: what does proactive redundancy (FEC striping
// across parallel connections + hedged duplicates) buy at the delay tail,
// and what does it cost at the network level? For each fault intensity of
// the PR 2 failure sweep, runs the serialized create+rewrite workload
// (run_transfer_experiment: every transaction settles alone, its event →
// all-idle latency is one delay sample) once per scheduler configuration —
// single-connection baseline, the adaptive controller, and pinned (K,R)
// lattice points — and plots the delay CDF against the TUE overhead the
// redundancy bytes add: TOFEC's throughput–delay frontier, network-level.
//
// Self-checks (nonzero exit on violation):
//   - every cell is byte-identical between a serial and a parallel grid
//     evaluation (CLOUDSYNC_THREADS=1 vs N);
//   - on the fault-free link, the adaptive scheduler is byte-invisible:
//     every meter category, every delay sample, and every counter matches
//     the scheduler-off baseline exactly (the controller must never
//     escalate without observed faults);
//   - the single-connection baseline meters zero redundancy bytes
//     everywhere, and the adaptive config meters zero at intensity 0;
//   - at every nonzero intensity some scheduler config beats the baseline's
//     p99 delay strictly, while its overhead ratio — (redundancy + retry)
//     bytes per data-update byte — stays within kOverheadBudget of the
//     baseline's (redundancy must buy its tail latency, not blow the TUE
//     budget the paper is about).
//
// Machine-readable output: BENCH_transfer.json (or argv[1]). `--small` runs
// the reduced identity grid only (sanitizer CI leg).
#include <cstdio>
#include <cstring>
#include <fstream>
#include <tuple>
#include <vector>

#include "bench_util.hpp"

using namespace cloudsync;
using namespace cloudsync::bench;

namespace {

constexpr std::uint64_t kFileBytes = 96 * KiB;
constexpr std::size_t kChunkBytes = 8 * KiB;  // 12 chunks per upload
constexpr double kOverheadBudget = 0.35;      // extra (redundancy+retry)/MB
const double kIntensities[] = {0.0, 0.25, 0.5, 1.0};
const std::uint64_t kSeeds[] = {1234, 4711, 9001};

/// One scheduler configuration of the sweep. `pinned` rows bypass the
/// controller (the decision is forced), mapping the lattice itself.
struct sched_config {
  const char* name;
  bool enabled;
  bool pinned;
  int k;
  int r;
};
const sched_config kConfigs[] = {
    {"single", false, false, 1, 0},  // scheduler off: today's serial loop
    {"adaptive", true, false, 0, 0},
    {"k2r1", true, true, 2, 1},
    {"k3r1", true, true, 3, 1},
    {"k4r2", true, true, 4, 2},
};

experiment_config cfg_for(double intensity, const sched_config& sc,
                          std::uint64_t seed) {
  experiment_config cfg = make_config(dropbox(), access_method::pc_client);
  cfg.link = link_config::beijing();  // the paper's lossy vantage point
  cfg.seed = seed;
  cfg.faults = fault_plan::degraded(intensity);
  cfg.recovery.chunk_bytes = kChunkBytes;
  cfg.transfer.enabled = sc.enabled;
  if (sc.pinned) {
    cfg.transfer.pinned = true;
    cfg.transfer.pin = {sc.k, sc.r, sim_time::from_sec(2)};
  }
  return cfg;
}

/// What the scheduler spent on the wire. The clean-link leg compares it on
/// top of the identity part: an adaptive scheduler that never escalated
/// spent exactly what the scheduler-off baseline did (nothing), while its
/// observation counters legitimately differ.
auto spending(const transfer_stats& s) {
  return std::tie(s.stripes, s.hedges_fired, s.hedges_won, s.reconstructions,
                  s.recovery_rounds);
}

/// Seed-pooled view of one (intensity, config) cell: the delay distribution
/// over every seed's transactions, plus averaged traffic shares.
struct cell_view {
  std::vector<double> delays;
  double p50 = 0, p95 = 0, p99 = 0, mean = 0;
  double tue = 0;
  double overhead_ratio = 0;  ///< (redundancy+retry) / data_update_bytes
  double redundancy_traffic = 0;
  double retry_traffic = 0;
  std::uint64_t requeues = 0;
  std::uint64_t stripes = 0;
  std::uint64_t hedges_fired = 0;
  std::uint64_t hedges_won = 0;
  std::uint64_t reconstructions = 0;
  std::uint64_t recovery_rounds = 0;
};

cell_view pool(const experiment_result* runs, std::size_t n) {
  cell_view v;
  for (std::size_t i = 0; i < n; ++i) {
    const experiment_result& r = runs[i];
    const std::uint64_t redundancy =
        r.meter.by_category(traffic_category::redundancy);
    const std::uint64_t retry = r.meter.by_category(traffic_category::retry);
    v.delays.insert(v.delays.end(), r.delay_samples_sec.begin(),
                    r.delay_samples_sec.end());
    v.tue += r.tue();
    v.overhead_ratio += static_cast<double>(redundancy + retry) /
                        static_cast<double>(r.data_update_bytes);
    v.redundancy_traffic += static_cast<double>(redundancy);
    v.retry_traffic += static_cast<double>(retry);
    v.requeues += r.counters.requeues;
    v.stripes += r.sched.stripes;
    v.hedges_fired += r.sched.hedges_fired;
    v.hedges_won += r.sched.hedges_won;
    v.reconstructions += r.sched.reconstructions;
    v.recovery_rounds += r.sched.recovery_rounds;
  }
  v.tue /= static_cast<double>(n);
  v.overhead_ratio /= static_cast<double>(n);
  v.redundancy_traffic /= static_cast<double>(n);
  v.retry_traffic /= static_cast<double>(n);
  const empirical_cdf cdf(std::vector<double>(v.delays));
  v.p50 = cdf.quantile(0.50);
  v.p95 = cdf.quantile(0.95);
  v.p99 = cdf.quantile(0.99);
  for (const double d : v.delays) v.mean += d;
  v.mean /= static_cast<double>(v.delays.empty() ? 1 : v.delays.size());
  return v;
}

void json_cdf(std::ofstream& out, const std::vector<double>& samples) {
  const empirical_cdf cdf{std::vector<double>(samples)};
  const auto pts = cdf.points(24);
  out << "[";
  for (std::size_t i = 0; i < pts.size(); ++i) {
    out << (i ? ", " : "") << "[" << pts[i].first << ", " << pts[i].second
        << "]";
  }
  out << "]";
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
  if (out_path == nullptr) out_path = "BENCH_transfer.json";
  print_section(small
                    ? "Transfer frontier (small identity grid)"
                    : "Transfer frontier: tail delay vs redundancy overhead");

  // --small keeps the legs the sanitizer CI needs: the fault-free identity
  // pair plus one faulted striped cell, single seed.
  const std::size_t files = small ? 4 : 10;
  const std::vector<double> intensities =
      small ? std::vector<double>{0.0, 1.0}
            : std::vector<double>(std::begin(kIntensities),
                                  std::end(kIntensities));
  const std::vector<std::uint64_t> seeds =
      small ? std::vector<std::uint64_t>{kSeeds[0]}
            : std::vector<std::uint64_t>(std::begin(kSeeds),
                                         std::end(kSeeds));
  const std::vector<sched_config> configs =
      small ? std::vector<sched_config>{kConfigs[0], kConfigs[1],
                                        kConfigs[4]}
            : std::vector<sched_config>(std::begin(kConfigs),
                                        std::end(kConfigs));
  const std::size_t num_seeds = seeds.size();
  const std::size_t num_configs = configs.size();

  // Grid layout: [intensity][config][seed].
  std::vector<experiment_job> jobs;
  for (const double intensity : intensities) {
    for (const sched_config& sc : configs) {
      for (const std::uint64_t seed : seeds) {
        jobs.push_back([cfg = cfg_for(intensity, sc, seed), files] {
          return run_transfer_experiment(cfg, files, kFileBytes);
        });
      }
    }
  }

  const unsigned threads = parallel_runner::default_thread_count();
  const std::vector<experiment_result> serial = evaluate(jobs, 1);
  const bool deterministic = serial == evaluate(jobs, threads);

  auto cell_at = [&](std::size_t intensity, std::size_t config,
                     std::size_t seed) -> const experiment_result& {
    return serial[(intensity * num_configs + config) * num_seeds + seed];
  };

  // Fault-free link: the adaptive scheduler must be byte-invisible. (Pinned
  // rows legitimately differ — they force striping — and map the pure cost
  // of redundancy nobody needed.)
  bool clean_identity = true;
  for (std::size_t seed = 0; seed < num_seeds; ++seed) {
    const experiment_result& off = cell_at(0, 0, seed);
    const experiment_result& on = cell_at(0, 1, seed);
    clean_identity = clean_identity && off.identity() == on.identity() &&
                     spending(off.sched) == spending(on.sched);
  }

  // Redundancy bytes only ever appear when the scheduler stripes: never for
  // the baseline, and never for the unprovoked adaptive controller.
  bool redundancy_gated = true;
  for (std::size_t in = 0; in < intensities.size(); ++in) {
    for (std::size_t seed = 0; seed < num_seeds; ++seed) {
      const auto redundancy = [&](std::size_t config) {
        return cell_at(in, config, seed).meter.by_category(
            traffic_category::redundancy);
      };
      redundancy_gated = redundancy_gated && redundancy(0) == 0;
      if (intensities[in] == 0.0) {
        redundancy_gated = redundancy_gated && redundancy(1) == 0;
      }
    }
  }

  // Pool each cell across seeds and evaluate the frontier: at every nonzero
  // intensity some scheduler config must beat the baseline's p99 strictly
  // while staying within the overhead budget.
  std::vector<std::vector<cell_view>> table(intensities.size());
  bool frontier_ok = true;
  std::vector<int> winner(intensities.size(), -1);
  for (std::size_t in = 0; in < intensities.size(); ++in) {
    for (std::size_t c = 0; c < num_configs; ++c) {
      std::vector<experiment_result> runs(num_seeds);
      for (std::size_t s = 0; s < num_seeds; ++s) runs[s] = cell_at(in, c, s);
      table[in].push_back(pool(runs.data(), num_seeds));
    }
    if (intensities[in] == 0.0) continue;
    const cell_view& base = table[in][0];
    for (std::size_t c = 1; c < num_configs; ++c) {
      const cell_view& v = table[in][c];
      if (v.p99 < base.p99 &&
          v.overhead_ratio <= base.overhead_ratio + kOverheadBudget) {
        if (winner[in] < 0 ||
            v.p99 < table[in][static_cast<std::size_t>(winner[in])].p99) {
          winner[in] = static_cast<int>(c);
        }
      }
    }
    frontier_ok = frontier_ok && winner[in] > 0;
  }

  for (std::size_t in = 0; in < intensities.size(); ++in) {
    text_table t;
    t.header({"config", "p50 s", "p95 s", "p99 s", "mean s", "TUE",
              "overhead", "redundancy", "stripes", "hedges", "reconstr",
              "gave up"});
    for (std::size_t c = 0; c < num_configs; ++c) {
      const cell_view& v = table[in][c];
      t.row({configs[c].name, strfmt("%.1f", v.p50), strfmt("%.1f", v.p95),
             strfmt("%.1f", v.p99), strfmt("%.1f", v.mean),
             strfmt("%.3f", v.tue), strfmt("%.3f", v.overhead_ratio),
             human(v.redundancy_traffic),
             strfmt("%llu", (unsigned long long)v.stripes),
             strfmt("%llu/%llu", (unsigned long long)v.hedges_fired,
                    (unsigned long long)v.hedges_won),
             strfmt("%llu", (unsigned long long)v.reconstructions),
             strfmt("%llu", (unsigned long long)v.requeues)});
    }
    std::printf("--- intensity %.2f (%zu files x %s, %zu seeds%s) ---\n%s\n",
                intensities[in], files, human(kFileBytes).c_str(), num_seeds,
                winner[in] > 0
                    ? strfmt(", frontier winner: %s",
                             configs[static_cast<std::size_t>(winner[in])]
                                 .name)
                          .c_str()
                    : "",
                t.str().c_str());
  }

  std::printf(
      "checks: deterministic(1 vs %u threads)=%s, clean-link identity=%s, "
      "redundancy gated=%s, frontier (p99 win within +%.2f overhead)=%s\n",
      threads, deterministic ? "yes" : "NO", clean_identity ? "yes" : "NO",
      redundancy_gated ? "yes" : "NO", kOverheadBudget,
      small ? "skipped (--small)" : (frontier_ok ? "yes" : "NO"));

  std::ofstream out(out_path);
  out << "{\n"
      << "  \"bench\": \"transfer_frontier\",\n"
      << "  \"small\": " << (small ? "true" : "false") << ",\n"
      << "  \"files\": " << files << ",\n"
      << "  \"file_bytes\": " << kFileBytes << ",\n"
      << "  \"chunk_bytes\": " << kChunkBytes << ",\n"
      << "  \"seeds\": " << num_seeds << ",\n"
      << "  \"overhead_budget\": " << kOverheadBudget << ",\n"
      << "  \"deterministic\": " << (deterministic ? "true" : "false")
      << ",\n"
      << "  \"clean_identity\": " << (clean_identity ? "true" : "false")
      << ",\n"
      << "  \"redundancy_gated\": " << (redundancy_gated ? "true" : "false")
      << ",\n"
      << "  \"frontier_ok\": "
      << (small ? "null" : (frontier_ok ? "true" : "false")) << ",\n"
      << "  \"intensities\": [";
  for (std::size_t in = 0; in < intensities.size(); ++in) {
    out << (in == 0 ? "\n" : ",\n") << "    {\"intensity\": "
        << intensities[in] << ", \"winner\": "
        << (winner[in] > 0 ? std::string("\"") +
                                 configs[static_cast<std::size_t>(winner[in])]
                                     .name +
                                 "\""
                           : std::string("null"))
        << ", \"configs\": {";
    for (std::size_t c = 0; c < num_configs; ++c) {
      const cell_view& v = table[in][c];
      out << (c == 0 ? "\n" : ",\n") << "      \"" << configs[c].name
          << "\": {\"p50\": " << v.p50 << ", \"p95\": " << v.p95
          << ", \"p99\": " << v.p99 << ", \"mean\": " << v.mean
          << ", \"tue\": " << v.tue
          << ", \"overhead_ratio\": " << v.overhead_ratio
          << ", \"redundancy_traffic\": " << v.redundancy_traffic
          << ", \"retry_traffic\": " << v.retry_traffic
          << ", \"stripes\": " << v.stripes
          << ", \"hedges_fired\": " << v.hedges_fired
          << ", \"hedges_won\": " << v.hedges_won
          << ", \"reconstructions\": " << v.reconstructions
          << ", \"recovery_rounds\": " << v.recovery_rounds
          << ", \"gave_up\": " << v.requeues << ", \"delay_cdf\": ";
      json_cdf(out, v.delays);
      out << "}";
    }
    out << "\n    }}";
  }
  out << "\n  ]\n}\n";
  out.flush();
  if (!out) {
    std::fprintf(stderr, "error: could not write %s\n", out_path);
    return 1;
  }
  std::printf("wrote %s\n", out_path);

  return deterministic && clean_identity && redundancy_gated &&
                 (small || frontier_ok)
             ? 0
             : 1;
}
