// Memo report: evaluates the memo grid (hotpath_grid.hpp) serially with
// every process-wide memo cold and records each memo's hit and miss
// counters, then evaluates the grid again on all cores, cold again, and
// checks that every cell's traffic is the same. A serial pass makes the
// counters reproducible: on several threads, two concurrent misses on one
// key both count. Wall time is perfbench's to measure.
//
// Writes BENCH_hotpath.json (or argv[1]); the file carries no host or
// timing field, so tools/report_identity.sh compares it byte for byte.
// Exits non-zero if the two passes differ, if the signature or delta memo
// never hits, or if the file cannot be written. See docs/PERFORMANCE.md.
#include <cstdio>
#include <fstream>

#include "hotpath_grid.hpp"

using namespace cloudsync;
using namespace cloudsync::bench;

int main(int argc, char** argv) {
  print_section("Memo report: hit rates over the memo grid");

  const auto jobs = hotpath_grid();
  clear_memos();
  const std::vector<std::uint64_t> serial = evaluate(jobs, 1);

  struct named_stats {
    const char* name;
    content_cache_stats s;
  };
  const named_stats caches[] = {
      {"shipped_size", content_cache::global().stats()},
      {"fingerprint", global_fingerprint_cache().stats()},
      {"signature", signature_memo_stats()},
      {"delta", delta_memo_stats()},
      {"generation", generation_memo_stats()},
  };

  const unsigned threads = parallel_runner::default_thread_count();
  clear_memos();
  const bool identical = evaluate(jobs, threads) == serial;

  std::printf("%zu cells; serial and %u-thread passes identical: %s\n",
              serial.size(), threads, identical ? "yes" : "NO");
  for (const named_stats& c : caches) {
    std::printf("  memo %-12s %5.1f%% hit rate (%llu hits / %llu misses)\n",
                c.name, 100.0 * c.s.hit_rate(), (unsigned long long)c.s.hits,
                (unsigned long long)c.s.misses);
  }

  const char* out_path = argc > 1 ? argv[1] : "BENCH_hotpath.json";
  std::ofstream out(out_path);
  out << "{\n"
      << "  \"bench\": \"hotpath\",\n"
      << "  \"cells\": " << serial.size() << ",\n"
      << "  \"identical_outputs\": " << (identical ? "true" : "false") << ",\n"
      << "  \"caches\": {";
  bool first = true;
  for (const named_stats& c : caches) {
    out << (first ? "\n" : ",\n") << "    \"" << c.name
        << "\": {\"hits\": " << c.s.hits << ", \"misses\": " << c.s.misses
        << ", \"evictions\": " << c.s.evictions
        << ", \"hit_rate\": " << c.s.hit_rate() << "}";
    first = false;
  }
  out << "\n  }\n}\n";
  out.flush();
  if (!out) {
    std::fprintf(stderr, "error: could not write %s\n", out_path);
    return 1;
  }
  std::printf("wrote %s\n", out_path);

  // Thread count changing any output is a correctness failure.
  if (!identical) return 1;

  // The grid repeats the IDS modification cells precisely so these two memo
  // tiers get revisited; a zero hit count means a dead cache tier.
  const content_cache_stats& sig = caches[2].s;
  const content_cache_stats& del = caches[3].s;
  if (sig.hits == 0 || del.hits == 0) {
    std::fprintf(stderr,
                 "error: dead memo tier (signature hits=%llu, delta "
                 "hits=%llu); the repeated IDS cells should produce hits\n",
                 (unsigned long long)sig.hits, (unsigned long long)del.hits);
    return 1;
  }
  return 0;
}
