// Shared helpers for the reproduction bench binaries. Each binary prints the
// paper-style table/series it regenerates, plus the paper's published values
// where useful for side-by-side comparison.
#pragma once

#include <cstdio>
#include <functional>
#include <string>
#include <vector>

#include "cloudsync.hpp"

namespace cloudsync::bench {

inline void print_section(const std::string& title) {
  std::printf("\n=== %s ===\n\n", title.c_str());
}

inline std::string human(double bytes) { return format_bytes(bytes); }

/// Experiment config for (service, method) at the default MN vantage point.
inline experiment_config make_config(const service_profile& s,
                                     access_method m) {
  experiment_config cfg{s};
  cfg.method = m;
  return cfg;
}

/// The pool shared by a bench binary's independent experiment evaluations.
/// Thread count follows the hardware (override with CLOUDSYNC_THREADS=1 for
/// a serial run; results are identical either way).
inline parallel_runner& bench_pool() {
  static parallel_runner pool;
  return pool;
}

/// Evaluate a grid of independent experiment jobs across cores and return
/// the results in job order — the deterministic building block for the
/// table/figure binaries: build every cell's job first, evaluate in
/// parallel, then print from the ordered results.
template <typename R>
std::vector<R> run_grid(const std::vector<std::function<R()>>& jobs) {
  return parallel_map_n<R>(bench_pool(), jobs.size(),
                           [&](std::size_t i) { return jobs[i](); });
}

/// One cell of a gated report's grid: a packaged experiment run.
using experiment_job = std::function<experiment_result()>;

/// Evaluate a report's grid on its own pool of `threads` workers, results
/// in job order. The gated reports evaluate every grid at 1 and N threads
/// and compare the two runs' whole results cell by cell.
template <typename R>
std::vector<R> evaluate(const std::vector<std::function<R()>>& jobs,
                        unsigned threads) {
  std::vector<R> out(jobs.size());
  parallel_runner pool(threads);
  pool.run_indexed(jobs.size(), [&](std::size_t i) { out[i] = jobs[i](); });
  return out;
}

}  // namespace cloudsync::bench
