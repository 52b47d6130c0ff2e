// cache_stats: run one cache-tier workload through a station with a client
// block cache and dump what the cache actually did — hit/miss/eviction
// counters, pin and dirty-queue depths, rehydration traffic, and the
// end-of-run residency gauges. The observability companion to
// bench/cache_tier_report (DESIGN.md §11, "Client cache tier"). Exits
// nonzero if the replay commits nothing, or a cold-start run rehydrates
// nothing (the purge-then-read path would be disconnected).
//
// Usage: cache_stats [--workload W] [--capacity BYTES] [--policy P]
//                    [--mode M] [--window SEC] [--files N] [--size BYTES]
//                    [--pin K] [--json]
#include <cstdio>
#include <cstring>

#include "cli_numbers.hpp"
#include "core/experiment.hpp"

using namespace cloudsync;

namespace {

int usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s [--workload W] [--capacity BYTES] [--policy P] [--mode M]\n"
      "          [--window SEC] [--files N] [--size BYTES] [--pin K]\n"
      "          [--json]\n"
      "  --workload W  scan | mods | cold (default scan)\n"
      "  --capacity B  resident-byte budget, 0 = unbounded (default 0)\n"
      "  --policy P    lru | arc (default lru)\n"
      "  --mode M      wt | wb (write-through | write-back, default wt)\n"
      "  --window SEC  write-back coalescing window (default 8)\n"
      "  --pin K       pin the first K paths after creation (default 0)\n",
      argv0);
  return 2;
}

void print_json(cache_workload wl, const cache_config& cc, std::size_t files,
                std::uint64_t file_bytes, std::size_t pin,
                const experiment_result& r) {
  const block_cache_stats& s = r.cache;
  std::printf("{\n");
  std::printf("  \"workload\": \"%s\",\n", to_string(wl));
  std::printf("  \"capacity_bytes\": %llu,\n",
              static_cast<unsigned long long>(cc.capacity_bytes));
  std::printf("  \"block_bytes\": %zu,\n", cc.block_bytes);
  std::printf("  \"policy\": \"%s\",\n", to_string(cc.policy));
  std::printf("  \"write_mode\": \"%s\",\n", to_string(cc.write_mode));
  std::printf("  \"coalesce_window_sec\": %g,\n", cc.coalesce_window.sec());
  std::printf("  \"files\": %zu,\n", files);
  std::printf("  \"file_bytes\": %llu,\n",
              static_cast<unsigned long long>(file_bytes));
  std::printf("  \"pinned\": %zu,\n", pin);
  std::printf("  \"commits\": %llu,\n",
              static_cast<unsigned long long>(r.counters.commits));
  std::printf("  \"total_traffic\": %llu,\n",
              static_cast<unsigned long long>(r.total_traffic()));
  std::printf("  \"rehydrate_traffic\": %llu,\n",
              static_cast<unsigned long long>(
                  r.meter.by_category(traffic_category::rehydrate)));
  std::printf("  \"tue\": %g,\n", r.tue());
  std::printf("  \"hit_ratio\": %g,\n", s.hit_ratio());
  std::printf("  \"hits\": %llu,\n", static_cast<unsigned long long>(s.hits));
  std::printf("  \"misses\": %llu,\n",
              static_cast<unsigned long long>(s.misses));
  std::printf("  \"insertions\": %llu,\n",
              static_cast<unsigned long long>(s.insertions));
  std::printf("  \"evictions\": %llu,\n",
              static_cast<unsigned long long>(s.evictions));
  std::printf("  \"eviction_stalls\": %llu,\n",
              static_cast<unsigned long long>(s.eviction_stalls));
  std::printf("  \"rehydrated_blocks\": %llu,\n",
              static_cast<unsigned long long>(s.rehydrated_blocks));
  std::printf("  \"rehydrated_bytes\": %llu,\n",
              static_cast<unsigned long long>(s.rehydrated_bytes));
  std::printf("  \"dirty_marked\": %llu,\n",
              static_cast<unsigned long long>(s.dirty_marked));
  std::printf("  \"dirty_coalesced\": %llu,\n",
              static_cast<unsigned long long>(s.dirty_coalesced));
  std::printf("  \"flushes\": %llu,\n",
              static_cast<unsigned long long>(s.flushes));
  std::printf("  \"plan_fallbacks\": %llu,\n",
              static_cast<unsigned long long>(s.plan_fallbacks));
  std::printf("  \"resident_blocks\": %llu,\n",
              static_cast<unsigned long long>(r.resident_blocks));
  std::printf("  \"resident_bytes\": %llu,\n",
              static_cast<unsigned long long>(r.resident_bytes));
  std::printf("  \"pinned_paths\": %llu,\n",
              static_cast<unsigned long long>(r.pinned_paths));
  std::printf("  \"tracked_paths\": %llu\n",
              static_cast<unsigned long long>(r.tracked_paths));
  std::printf("}\n");
}

}  // namespace

int main(int argc, char** argv) {
  cache_workload wl = cache_workload::looping_scan;
  cache_config cc;
  cc.block_bytes = 8 * KiB;
  std::size_t files = 8;
  std::uint64_t file_bytes = 64 * KiB;
  std::size_t pin = 0;
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
      if (std::strcmp(v, "scan") == 0) {
        wl = cache_workload::looping_scan;
      } else if (std::strcmp(v, "mods") == 0) {
        wl = cache_workload::frequent_mods;
      } else if (std::strcmp(v, "cold") == 0) {
        wl = cache_workload::cold_start;
      } else {
        return usage(argv[0]);
      }
    } else if (std::strcmp(a, "--capacity") == 0) {
      cc.capacity_bytes = num.size(next());
    } else if (std::strcmp(a, "--policy") == 0) {
      const char* v = next();
      if (!v) return usage(argv[0]);
      if (std::strcmp(v, "lru") == 0) {
        cc.policy = cache_eviction::lru;
      } else if (std::strcmp(v, "arc") == 0) {
        cc.policy = cache_eviction::arc;
      } else {
        return usage(argv[0]);
      }
    } else if (std::strcmp(a, "--mode") == 0) {
      const char* v = next();
      if (!v) return usage(argv[0]);
      if (std::strcmp(v, "wt") == 0) {
        cc.write_mode = cache_write_mode::write_through;
      } else if (std::strcmp(v, "wb") == 0) {
        cc.write_mode = cache_write_mode::write_back;
      } else {
        return usage(argv[0]);
      }
    } else if (std::strcmp(a, "--window") == 0) {
      cc.coalesce_window = sim_time::from_sec(num.real(next()));
    } else if (std::strcmp(a, "--files") == 0) {
      files = num.count(next());
    } else if (std::strcmp(a, "--size") == 0) {
      file_bytes = num.size(next());
    } else if (std::strcmp(a, "--pin") == 0) {
      pin = num.count(next());
    } else if (std::strcmp(a, "--json") == 0) {
      json = true;
    } else {
      return usage(argv[0]);
    }
  }
  if (files == 0 || file_bytes == 0 || pin > files) return usage(argv[0]);

  experiment_config cfg{dropbox()};
  cfg.method = access_method::pc_client;
  cfg.cache_tier = true;
  cfg.cache = cc;

  const experiment_result r =
      run_cache_experiment(cfg, wl, files, file_bytes, pin);
  const block_cache_stats& s = r.cache;

  if (json) {
    print_json(wl, cc, files, file_bytes, pin, r);
  } else {
    std::printf("cache_stats: %s, %s/%s, capacity %llu B, %zu files x %llu "
                "B, %zu pinned\n\n",
                to_string(wl), to_string(cc.policy),
                to_string(cc.write_mode),
                static_cast<unsigned long long>(cc.capacity_bytes), files,
                static_cast<unsigned long long>(file_bytes), pin);
    std::printf("traffic: %llu B total (TUE %.3f), %llu B rehydrate, "
                "%llu commits\n",
                static_cast<unsigned long long>(r.total_traffic()), r.tue(),
                static_cast<unsigned long long>(
                    r.meter.by_category(traffic_category::rehydrate)),
                static_cast<unsigned long long>(r.counters.commits));
    std::printf("blocks: %llu hits / %llu misses (hit ratio %.4f), "
                "%llu inserted, %llu evicted, %llu stalls\n",
                static_cast<unsigned long long>(s.hits),
                static_cast<unsigned long long>(s.misses), s.hit_ratio(),
                static_cast<unsigned long long>(s.insertions),
                static_cast<unsigned long long>(s.evictions),
                static_cast<unsigned long long>(s.eviction_stalls));
    std::printf("rehydration: %llu blocks, %llu B\n",
                static_cast<unsigned long long>(s.rehydrated_blocks),
                static_cast<unsigned long long>(s.rehydrated_bytes));
    std::printf("dirty queue: %llu marked, %llu coalesced, %llu flushes, "
                "%llu plan fallbacks\n",
                static_cast<unsigned long long>(s.dirty_marked),
                static_cast<unsigned long long>(s.dirty_coalesced),
                static_cast<unsigned long long>(s.flushes),
                static_cast<unsigned long long>(s.plan_fallbacks));
    std::printf("gauges: %llu resident blocks (%llu B), %llu pinned paths, "
                "%llu tracked paths\n",
                static_cast<unsigned long long>(r.resident_blocks),
                static_cast<unsigned long long>(r.resident_bytes),
                static_cast<unsigned long long>(r.pinned_paths),
                static_cast<unsigned long long>(r.tracked_paths));
  }

  // Smoke-test teeth: the replay must commit, and a cold-start run that
  // never rehydrated means the miss-driven fetch path is disconnected.
  if (r.counters.commits == 0) return 1;
  if (wl == cache_workload::cold_start && s.rehydrated_blocks == 0) return 1;
  return 0;
}
