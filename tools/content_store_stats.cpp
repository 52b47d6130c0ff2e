// content_store_stats: drive a small dedup-heavy sync scenario and dump the
// process-wide content store — chunk count, refcount histogram, and bytes
// shared vs. unique.
//
// The point of the tool is observability: "is sharing actually happening?"
// becomes a table instead of a heap profile. A duplicate file, a shadow
// copy, and a retained version history should all show up as refcounts > 1
// on the same chunks.
//
// Usage: content_store_stats [--files N] [--size BYTES]
//
// N is a whole count and BYTES a size with an optional K, M or G suffix
// (tools/cli_numbers.hpp); anything else prints the usage and exits 2.
#include <cstdio>
#include <cstring>
#include <string>

#include "cli_numbers.hpp"
#include "core/experiment.hpp"
#include "fs/file_ops.hpp"
#include "store/content_store.hpp"
#include "util/text_table.hpp"
#include "util/units.hpp"

using namespace cloudsync;

namespace {

void dump_store(const char* heading) {
  const content_store::stats_snapshot st = content_store::global().stats();
  const content_store::table_profile prof =
      content_store::global().profile_table();

  std::printf("\n-- %s --\n", heading);
  std::printf("chunks: %llu (%llu interned), live bytes %s (peak %s)\n",
              (unsigned long long)st.chunks,
              (unsigned long long)st.interned_chunks,
              format_bytes(static_cast<double>(st.live_bytes)).c_str(),
              format_bytes(static_cast<double>(st.peak_live_bytes)).c_str());
  std::printf("intern hits/misses: %llu / %llu\n",
              (unsigned long long)st.intern_hits,
              (unsigned long long)st.intern_misses);
  std::printf("interned table: unique %s backing logical %s (sharing saves "
              "%s)\n",
              format_bytes(static_cast<double>(prof.unique_bytes)).c_str(),
              format_bytes(static_cast<double>(prof.logical_bytes)).c_str(),
              format_bytes(static_cast<double>(
                  prof.logical_bytes - prof.unique_bytes)).c_str());

  text_table table;
  table.header({"refcount", "chunks"});
  for (const auto& [refs, count] : prof.refcount_histogram) {
    table.row({std::to_string(refs), std::to_string(count)});
  }
  std::printf("%s", table.str().c_str());
}

int usage() {
  std::fprintf(stderr,
               "usage: content_store_stats [--files N] [--size BYTES]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::size_t files = 20;
  std::size_t size = 256 * 1024;
  const cli::strict_numbers num([] { usage(); });
  for (int i = 1; i < argc; ++i) {
    const auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    if (std::strcmp(argv[i], "--files") == 0) {
      files = static_cast<std::size_t>(num.count(next()));
    } else if (std::strcmp(argv[i], "--size") == 0) {
      size = static_cast<std::size_t>(num.size(next()));
    } else {
      return usage();
    }
  }

  std::printf("workload: %zu files x %s, half exact duplicates, one edit "
              "each\n",
              files, format_bytes(static_cast<double>(size)).c_str());

  {
    experiment_config cfg{dropbox()};
    experiment_env env(cfg);
    station& st = env.primary();
    rng content_rng(42);
    const byte_buffer original = random_bytes(content_rng, size);
    for (std::size_t i = 0; i < files; ++i) {
      // Odd indices re-create the same bytes: whole-file duplicates that
      // CoW interning should collapse onto the same chunks.
      const byte_buffer content =
          i % 2 == 0 ? random_bytes(content_rng, size) : original;
      st.fs.create("f" + std::to_string(i), content, env.clock().now());
    }
    env.settle();
    for (std::size_t i = 0; i < files; ++i) {
      env.clock().advance_to(env.clock().now() + sim_time::from_sec(30));
      modify_random_byte(st.fs, "f" + std::to_string(i), env.random(),
                         env.clock().now());
    }
    env.settle();

    dump_store("after replay (filesystem + shadows + cloud history live)");
  }
  dump_store("after teardown (every layer destroyed)");
  if (!content_store::global().empty()) {
    // The generation memo in file_ops may legitimately pin buffers, but this
    // tool generates content directly — anything left is a leaked handle.
    std::printf("WARNING: store not empty after teardown\n");
    return 1;
  }
  std::printf("\nstore empty after teardown: refcounting is exact.\n");
  return 0;
}
