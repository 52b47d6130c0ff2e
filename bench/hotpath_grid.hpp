// The memo grid: a slice of the paper's grids that revisits content, so
// every process-wide memo sees hits. bench/hotpath_report reads the memo
// counters after evaluating it; the memo_grid golden digest pins its
// traffic values, cold and warm.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "bench_util.hpp"

namespace cloudsync::bench {

/// Creation, modification and text upload cells on all six services (PC
/// client), then the modification cells of the IDS-capable services again:
/// re-planning the same edit against the same shadow is the workload the
/// signature and delta memos exist for, and without a repeated cell the
/// grid never revisits their keys. Each job returns its cell's traffic.
inline std::vector<std::function<std::uint64_t()>> hotpath_grid() {
  std::vector<std::function<std::uint64_t()>> jobs;
  for (const std::uint64_t z : {64 * KiB, 256 * KiB, 1 * MiB, 4 * MiB}) {
    for (const service_profile& s : all_services()) {
      jobs.push_back([cfg = experiment_config{s}, z] {
        return measure_creation_traffic(cfg, z);
      });
    }
  }
  for (const std::uint64_t z : {256 * KiB, 1 * MiB}) {
    for (const service_profile& s : all_services()) {
      jobs.push_back([cfg = experiment_config{s}, z] {
        return measure_modification_traffic(cfg, z);
      });
    }
  }
  for (const service_profile& s : all_services()) {
    jobs.push_back([cfg = experiment_config{s}] {
      return measure_text_upload_traffic(cfg, 1 * MiB);
    });
  }
  for (const std::uint64_t z : {256 * KiB, 1 * MiB}) {
    for (const service_profile& s : all_services()) {
      if (!s.method(access_method::pc_client).incremental_sync) continue;
      jobs.push_back([cfg = experiment_config{s}, z] {
        return measure_modification_traffic(cfg, z);
      });
    }
  }
  return jobs;
}

/// Empty every process-wide memo, so the next evaluation starts cold.
inline void clear_memos() {
  content_cache::global().clear();
  global_fingerprint_cache().clear();
  clear_incremental_sync_memos();
  clear_generation_memo();
}

}  // namespace cloudsync::bench
