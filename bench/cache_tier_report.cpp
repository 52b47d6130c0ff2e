// Client cache-tier sweep: does the limited-disk block cache pay for its
// complexity — and does it stay invisible when it has room to?
//
// Four legs, each a grid of run_cache_experiment cells:
//   identity — the uncapped write-through cache (LRU and ARC) must be
//     byte-identical per (direction, traffic category) to the cacheless
//     engine on the looping-scan and frequent-modification workloads. The
//     tier never changes what the wire carries until capacity forces it to
//     (and rehydrate must read exactly 0 in these runs).
//   scan — hit-ratio grid over capacity x {LRU, ARC} on the looping-scan
//     workload (hot set re-read between full scans). Gates: ARC >= LRU at
//     every capacity (the frequency list must protect the hot set from
//     scan churn), and the LRU hit ratio is monotone non-decreasing in
//     capacity (LRU is a stack algorithm; the inclusion property makes
//     this exact, so any violation is a cache bug, not noise). ARC does
//     not have the inclusion property, so its monotonicity is reported
//     but not gated.
//   write-mode — TUE grid over {write-through, write-back x coalescing
//     window} on the frequent-modification workload, under a defer-free
//     profile (a fixed-defer profile would batch the edits for
//     write-through too and mask the comparison). Gate: write-back TUE is
//     strictly below write-through TUE at every tested window.
//   determinism — the whole grid evaluated serially and with N worker
//     threads must match cell-for-cell (meters, counters, gauges).
//
// Machine-readable output: BENCH_cache.json (or argv[1]). `--small`
// shrinks the grids for the sanitizer CI leg. Exit code is the verdict.
#include <cstdio>
#include <cstring>
#include <fstream>
#include <vector>

#include "bench_util.hpp"

using namespace cloudsync;
using namespace cloudsync::bench;

namespace {

constexpr std::uint64_t kFileBytes = 64 * KiB;
constexpr std::size_t kBlockBytes = 8 * KiB;

/// Windows for the write-back leg. The frequent_mods workload edits each
/// file 3x at 2 s spacing, so even the shortest window coalesces a burst.
const double kWindowsSec[] = {2.0, 5.0, 15.0};

experiment_config cache_cfg(std::uint64_t capacity, cache_eviction policy,
                            cache_write_mode mode, double window_sec,
                            bool defer_free) {
  service_profile s = dropbox();
  if (defer_free) s = with_defer(s, defer_config::none());
  experiment_config cfg = make_config(s, access_method::pc_client);
  cfg.cache_tier = true;
  cfg.cache.capacity_bytes = capacity;
  cfg.cache.block_bytes = kBlockBytes;
  cfg.cache.policy = policy;
  cfg.cache.write_mode = mode;
  cfg.cache.coalesce_window = sim_time::from_sec(window_sec);
  return cfg;
}

experiment_config cacheless_cfg(bool defer_free) {
  service_profile s = dropbox();
  if (defer_free) s = with_defer(s, defer_config::none());
  return make_config(s, access_method::pc_client);
}

std::uint64_t rehydrate_traffic(const experiment_result& r) {
  return r.meter.by_category(traffic_category::rehydrate);
}

void meter_diff(const char* label, const traffic_meter& a,
                const traffic_meter& b) {
  for (int d = 0; d < 2; ++d) {
    for (std::size_t c = 0;
         c < static_cast<std::size_t>(traffic_category::kCount); ++c) {
      const auto dir = static_cast<direction>(d);
      const auto cat = static_cast<traffic_category>(c);
      if (a.get(dir, cat) != b.get(dir, cat)) {
        std::fprintf(stderr, "  %s %s/%s: %llu vs %llu\n", label,
                     d == 0 ? "up" : "down", to_string(cat),
                     (unsigned long long)a.get(dir, cat),
                     (unsigned long long)b.get(dir, cat));
      }
    }
  }
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
  if (out_path == nullptr) out_path = "BENCH_cache.json";
  print_section(small ? "Client cache tier (small grid)"
                      : "Client cache tier: hit ratio and TUE sweep");

  const std::size_t files = small ? 8 : 16;
  const std::uint64_t total_bytes = files * kFileBytes;
  const std::vector<double> fractions =
      small ? std::vector<double>{0.5, 1.0}
            : std::vector<double>{0.3, 0.5, 0.75, 1.0};
  std::vector<std::uint64_t> capacities;
  for (const double f : fractions) {
    capacities.push_back(
        static_cast<std::uint64_t>(f * static_cast<double>(total_bytes)));
  }
  const std::size_t num_windows = small ? 2 : std::size(kWindowsSec);

  // Grid layout (one flat job vector so the determinism leg covers every
  // cell):
  //   [0]                        cacheless, looping_scan
  //   [1]                        cacheless, frequent_mods (defer-free)
  //   [2 .. 3]                   uncapped {lru, arc}, looping_scan
  //   [4 .. 5]                   uncapped {lru, arc}, frequent_mods (df)
  //   [6 .. 6+2C)                capped scan: [cap][lru, arc]
  //   [6+2C]                     write-through, frequent_mods (defer-free)
  //   [6+2C+1 .. +num_windows]   write-back per window, frequent_mods (df)
  std::vector<experiment_job> jobs;
  auto push = [&](experiment_config cfg, cache_workload wl,
                  std::size_t pin = 0) {
    jobs.push_back([cfg = std::move(cfg), wl, files, pin] {
      return run_cache_experiment(cfg, wl, files, kFileBytes, pin);
    });
  };
  push(cacheless_cfg(false), cache_workload::looping_scan);
  push(cacheless_cfg(true), cache_workload::frequent_mods);
  for (const cache_eviction p : {cache_eviction::lru, cache_eviction::arc}) {
    push(cache_cfg(0, p, cache_write_mode::write_through, 8.0, false),
         cache_workload::looping_scan);
  }
  for (const cache_eviction p : {cache_eviction::lru, cache_eviction::arc}) {
    push(cache_cfg(0, p, cache_write_mode::write_through, 8.0, true),
         cache_workload::frequent_mods);
  }
  const std::size_t scan_base = jobs.size();
  for (const std::uint64_t cap : capacities) {
    for (const cache_eviction p :
         {cache_eviction::lru, cache_eviction::arc}) {
      push(cache_cfg(cap, p, cache_write_mode::write_through, 8.0, false),
           cache_workload::looping_scan);
    }
  }
  const std::size_t wt_run = jobs.size();
  push(cache_cfg(0, cache_eviction::lru, cache_write_mode::write_through,
                 8.0, true),
       cache_workload::frequent_mods);
  const std::size_t wb_base = jobs.size();
  for (std::size_t w = 0; w < num_windows; ++w) {
    push(cache_cfg(0, cache_eviction::lru, cache_write_mode::write_back,
                   kWindowsSec[w], true),
         cache_workload::frequent_mods);
  }

  const unsigned threads = parallel_runner::default_thread_count();
  const std::vector<experiment_result> serial = evaluate(jobs, 1);
  const std::vector<experiment_result> parallel = evaluate(jobs, threads);

  bool deterministic = true;
  for (std::size_t i = 0; i < serial.size(); ++i) {
    if (serial[i] != parallel[i]) {
      deterministic = false;
      std::fprintf(stderr, "determinism violation: job %zu differs\n", i);
    }
  }

  // Gate: uncapped cache is invisible on the wire — per-category identity
  // with the cacheless engine, and its rehydrate counter is exactly zero.
  bool identity = true;
  const struct {
    const char* name;
    std::size_t baseline, cached;
  } kIdentityPairs[] = {
      {"scan/lru", 0, 2},  {"scan/arc", 0, 3},
      {"mods/lru", 1, 4},  {"mods/arc", 1, 5},
  };
  for (const auto& pr : kIdentityPairs) {
    const experiment_result& base = serial[pr.baseline];
    const experiment_result& cached = serial[pr.cached];
    if (base.meter != cached.meter || rehydrate_traffic(cached) != 0) {
      identity = false;
      std::fprintf(stderr, "identity violation: %s\n", pr.name);
      meter_diff(pr.name, base.meter, cached.meter);
    }
  }

  // Gates: ARC beats (or ties) LRU at every scan capacity; LRU hit ratio
  // is monotone non-decreasing in capacity. ARC monotonicity is recorded
  // in the JSON but not gated (no inclusion property).
  bool arc_ge_lru = true;
  bool lru_monotone = true;
  bool arc_monotone = true;
  double prev_lru = -1.0, prev_arc = -1.0;
  for (std::size_t c = 0; c < capacities.size(); ++c) {
    const experiment_result& lru = serial[scan_base + 2 * c];
    const experiment_result& arc = serial[scan_base + 2 * c + 1];
    if (arc.cache.hit_ratio() + 1e-12 < lru.cache.hit_ratio()) {
      arc_ge_lru = false;
      std::fprintf(stderr, "ARC < LRU at capacity %llu: %.4f vs %.4f\n",
                   (unsigned long long)capacities[c], arc.cache.hit_ratio(),
                   lru.cache.hit_ratio());
    }
    if (lru.cache.hit_ratio() + 1e-12 < prev_lru) {
      lru_monotone = false;
      std::fprintf(stderr, "LRU hit ratio regressed at capacity %llu\n",
                   (unsigned long long)capacities[c]);
    }
    if (arc.cache.hit_ratio() + 1e-12 < prev_arc) arc_monotone = false;
    prev_lru = lru.cache.hit_ratio();
    prev_arc = arc.cache.hit_ratio();
  }

  // Gate: write-back strictly beats write-through TUE at every window.
  bool wb_wins = true;
  const double wt_tue = serial[wt_run].tue();
  for (std::size_t w = 0; w < num_windows; ++w) {
    const double wb_tue = serial[wb_base + w].tue();
    if (!(wb_tue < wt_tue)) {
      wb_wins = false;
      std::fprintf(stderr,
                   "write-back does not beat write-through at %.0fs window: "
                   "%.3f vs %.3f\n",
                   kWindowsSec[w], wb_tue, wt_tue);
    }
  }

  {
    text_table t;
    t.header({"capacity", "policy", "hit ratio", "rehydrate", "evictions",
              "TUE"});
    for (std::size_t c = 0; c < capacities.size(); ++c) {
      for (std::size_t p = 0; p < 2; ++p) {
        const experiment_result& r = serial[scan_base + 2 * c + p];
        t.row({human(static_cast<double>(capacities[c])),
               p == 0 ? "lru" : "arc", strfmt("%.4f", r.cache.hit_ratio()),
               human(static_cast<double>(rehydrate_traffic(r))),
               strfmt("%llu", (unsigned long long)r.cache.evictions),
               strfmt("%.3f", r.tue())});
      }
    }
    std::printf("--- looping scan: capacity x policy (%zu files x %s) ---\n%s\n",
                files, human(kFileBytes).c_str(), t.str().c_str());
  }
  {
    text_table t;
    t.header({"mode", "window", "TUE", "commits", "coalesced", "total"});
    const experiment_result& wt = serial[wt_run];
    t.row({"write-through", "-", strfmt("%.3f", wt.tue()),
           strfmt("%llu", (unsigned long long)wt.counters.commits), "-",
           human(static_cast<double>(wt.total_traffic()))});
    for (std::size_t w = 0; w < num_windows; ++w) {
      const experiment_result& wb = serial[wb_base + w];
      t.row({"write-back", strfmt("%.0fs", kWindowsSec[w]),
             strfmt("%.3f", wb.tue()),
             strfmt("%llu", (unsigned long long)wb.counters.commits),
             strfmt("%llu", (unsigned long long)wb.cache.dirty_coalesced),
             human(static_cast<double>(wb.total_traffic()))});
    }
    std::printf("--- frequent mods: write mode x window (defer-free) ---\n%s\n",
                t.str().c_str());
  }

  std::printf(
      "checks: deterministic(1 vs %u threads)=%s, uncapped identity=%s, "
      "ARC>=LRU=%s, LRU monotone=%s (ARC monotone=%s, unGated), "
      "write-back wins=%s\n",
      threads, deterministic ? "yes" : "NO", identity ? "yes" : "NO",
      arc_ge_lru ? "yes" : "NO", lru_monotone ? "yes" : "NO",
      arc_monotone ? "yes" : "no", wb_wins ? "yes" : "NO");

  std::ofstream out(out_path);
  out << "{\n"
      << "  \"bench\": \"cache_tier\",\n"
      << "  \"small\": " << (small ? "true" : "false") << ",\n"
      << "  \"files\": " << files << ",\n"
      << "  \"file_bytes\": " << kFileBytes << ",\n"
      << "  \"block_bytes\": " << kBlockBytes << ",\n"
      << "  \"deterministic\": " << (deterministic ? "true" : "false")
      << ",\n"
      << "  \"uncapped_identity\": " << (identity ? "true" : "false") << ",\n"
      << "  \"arc_ge_lru\": " << (arc_ge_lru ? "true" : "false") << ",\n"
      << "  \"lru_monotone\": " << (lru_monotone ? "true" : "false") << ",\n"
      << "  \"arc_monotone\": " << (arc_monotone ? "true" : "false") << ",\n"
      << "  \"write_back_wins\": " << (wb_wins ? "true" : "false") << ",\n"
      << "  \"scan\": [";
  for (std::size_t c = 0; c < capacities.size(); ++c) {
    for (std::size_t p = 0; p < 2; ++p) {
      const experiment_result& r = serial[scan_base + 2 * c + p];
      out << (c == 0 && p == 0 ? "\n" : ",\n") << "    {\"capacity\": "
          << capacities[c] << ", \"policy\": \""
          << (p == 0 ? "lru" : "arc")
          << "\", \"hit_ratio\": " << r.cache.hit_ratio()
          << ", \"hits\": " << r.cache.hits
          << ", \"misses\": " << r.cache.misses
          << ", \"evictions\": " << r.cache.evictions
          << ", \"rehydrate\": " << rehydrate_traffic(r)
          << ", \"tue\": " << r.tue() << "}";
    }
  }
  out << "\n  ],\n  \"write_mode\": [";
  {
    const experiment_result& wt = serial[wt_run];
    out << "\n    {\"mode\": \"write_through\", \"window_sec\": 0"
        << ", \"tue\": " << wt.tue()
        << ", \"commits\": " << wt.counters.commits
        << ", \"total\": " << wt.total_traffic() << ", \"coalesced\": 0}";
    for (std::size_t w = 0; w < num_windows; ++w) {
      const experiment_result& wb = serial[wb_base + w];
      out << ",\n    {\"mode\": \"write_back\", \"window_sec\": "
          << kWindowsSec[w] << ", \"tue\": " << wb.tue()
          << ", \"commits\": " << wb.counters.commits
          << ", \"total\": " << wb.total_traffic()
          << ", \"coalesced\": " << wb.cache.dirty_coalesced << "}";
    }
  }
  out << "\n  ]\n}\n";
  out.flush();
  if (!out) {
    std::fprintf(stderr, "error: could not write %s\n", out_path);
    return 1;
  }
  std::printf("wrote %s\n", out_path);

  return deterministic && identity && arc_ge_lru && lru_monotone && wb_wins
             ? 0
             : 1;
}
