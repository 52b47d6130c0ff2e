// server_stats: run a synthetic session wave against the sharded sync server
// and dump the per-shard gauges the bench aggregates away — occupancy, queue
// depths, lock contention, and the session-state histogram. The
// observability companion to bench/server_scale_report (DESIGN.md, "Sharded
// server & session lifecycle").
//
// Usage: server_stats [--shards N] [--sessions N] [--threads N]
//                     [--admission N] [--chunk-store] [--json]
//
// Every N is a whole count of at least 1 (tools/cli_numbers.hpp); --threads
// is at most kMaxThreads. Anything else prints the usage and exits 2.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "cli_numbers.hpp"
#include "core/parallel_runner.hpp"
#include "server/session.hpp"
#include "server/sync_server.hpp"

using namespace cloudsync;

namespace {

/// The most driver threads --threads may ask for.
constexpr std::uint64_t kMaxThreads = 256;

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--shards N] [--sessions N] [--threads N]\n"
               "          [--admission N] [--chunk-store] [--json]\n"
               "       every N >= 1; --threads at most %llu\n",
               argv0, static_cast<unsigned long long>(kMaxThreads));
  return 2;
}

void print_histogram(const char* label,
                     const std::array<std::uint64_t, kSessionStateCount>& h) {
  std::printf("  %s:", label);
  for (std::size_t i = 0; i < kSessionStateCount; ++i) {
    std::printf(" %s=%llu", to_string(static_cast<session_state>(i)),
                static_cast<unsigned long long>(h[i]));
  }
  std::printf("\n");
}

void json_histogram(const char* key,
                    const std::array<std::uint64_t, kSessionStateCount>& h,
                    bool last) {
  std::printf("      \"%s\": {", key);
  for (std::size_t i = 0; i < kSessionStateCount; ++i) {
    std::printf("\"%s\": %llu%s", to_string(static_cast<session_state>(i)),
                static_cast<unsigned long long>(h[i]),
                i + 1 < kSessionStateCount ? ", " : "");
  }
  std::printf("}%s\n", last ? "" : ",");
}

void dump_shard_json(std::uint32_t idx, const shard_stats& s, bool last) {
  std::printf("    {\n      \"shard\": %u,\n", idx);
  std::printf("      \"users\": %llu,\n",
              static_cast<unsigned long long>(s.users));
  std::printf("      \"objects\": %llu,\n",
              static_cast<unsigned long long>(s.objects));
  std::printf("      \"manifests\": %llu,\n",
              static_cast<unsigned long long>(s.manifests));
  std::printf("      \"live_bytes\": %llu,\n",
              static_cast<unsigned long long>(s.live_bytes));
  std::printf("      \"sessions_admitted\": %llu,\n",
              static_cast<unsigned long long>(s.sessions_admitted));
  std::printf("      \"admission_waits\": %llu,\n",
              static_cast<unsigned long long>(s.admission_waits));
  std::printf("      \"queue_depth_peak\": %u,\n", s.queue_depth_peak);
  std::printf("      \"in_flight_peak\": %u,\n", s.in_flight_peak);
  std::printf("      \"lock_acquisitions\": %llu,\n",
              static_cast<unsigned long long>(s.lock_acquisitions));
  std::printf("      \"lock_contentions\": %llu,\n",
              static_cast<unsigned long long>(s.lock_contentions));
  std::printf("      \"busy_ns\": %llu,\n",
              static_cast<unsigned long long>(s.busy_ns));
  std::printf("      \"dedup_probes\": %llu,\n",
              static_cast<unsigned long long>(s.dedup_probes));
  std::printf("      \"dedup_hits\": %llu,\n",
              static_cast<unsigned long long>(s.dedup_hits));
  std::printf("      \"uploads\": %llu,\n",
              static_cast<unsigned long long>(s.uploads));
  std::printf("      \"upload_bytes\": %llu,\n",
              static_cast<unsigned long long>(s.upload_bytes));
  std::printf("      \"commits\": %llu,\n",
              static_cast<unsigned long long>(s.commits));
  json_histogram("state_entered", s.state_entered, false);
  json_histogram("state_live", s.state_live, true);
  std::printf("    }%s\n", last ? "" : ",");
}

}  // namespace

int main(int argc, char** argv) {
  std::uint32_t shards = 4;
  std::uint32_t sessions = 400;
  unsigned threads = 2;
  std::uint32_t admission = 8;
  bool chunk_store = false;
  bool json = false;

  const cli::strict_numbers num([&] { usage(argv[0]); });
  for (int i = 1; i < argc; ++i) {
    // The value after the flag: a whole count in [1, max].
    const auto positive = [&](std::uint64_t max) {
      const std::uint64_t v =
          num.count(i + 1 < argc ? argv[++i] : nullptr, max);
      if (v == 0) std::exit(usage(argv[0]));
      return static_cast<std::uint32_t>(v);
    };
    constexpr std::uint64_t kU32 = std::numeric_limits<std::uint32_t>::max();
    if (std::strcmp(argv[i], "--shards") == 0) {
      shards = positive(kU32);
    } else if (std::strcmp(argv[i], "--sessions") == 0) {
      sessions = positive(kU32);
    } else if (std::strcmp(argv[i], "--threads") == 0) {
      threads = positive(kMaxThreads);
    } else if (std::strcmp(argv[i], "--admission") == 0) {
      admission = positive(kU32);
    } else if (std::strcmp(argv[i], "--chunk-store") == 0) {
      chunk_store = true;
    } else if (std::strcmp(argv[i], "--json") == 0) {
      json = true;
    } else {
      return usage(argv[0]);
    }
  }

  workload_params wp;
  wp.seed = 42;
  wp.user_population = sessions * 10;
  wp.sessions = sessions;
  wp.files_per_session = 4;
  wp.mean_file_bytes = 2048;
  wp.identity_pool = 64;
  const auto work = make_session_workloads(wp);

  server_config cfg;
  cfg.shards = shards;
  cfg.admission_limit = admission;
  cfg.use_chunk_store = chunk_store;
  cfg.chunk_store_chunk_size = 1024;
  sync_server srv(cfg);

  parallel_runner pool(threads);
  const auto results = parallel_map_n<session_result>(
      pool, work.size(),
      [&](std::size_t i) { return run_session(srv, work[i]); });

  std::size_t failed = 0;
  for (const auto& r : results) failed += r.failed ? 1 : 0;

  const server_stats st = srv.stats();
  if (json) {
    std::printf("{\n  \"shards\": [\n");
    for (std::uint32_t i = 0; i < st.shards.size(); ++i) {
      dump_shard_json(i, st.shards[i], i + 1 == st.shards.size());
    }
    std::printf("  ],\n  \"failed_sessions\": %zu\n}\n", failed);
  } else {
    std::printf("sharded sync server: %u shards, %zu sessions, %u threads\n",
                srv.shard_count(), results.size(), pool.thread_count());
    for (std::uint32_t i = 0; i < st.shards.size(); ++i) {
      const shard_stats& s = st.shards[i];
      std::printf(
          "shard %u: users=%llu objects=%llu live=%llu B  admitted=%llu "
          "waits=%llu depth_peak=%u inflight_peak=%u  locks=%llu "
          "contested=%llu  dedup=%llu/%llu  uploads=%llu (%llu B)\n",
          i, static_cast<unsigned long long>(s.users),
          static_cast<unsigned long long>(s.objects),
          static_cast<unsigned long long>(s.live_bytes),
          static_cast<unsigned long long>(s.sessions_admitted),
          static_cast<unsigned long long>(s.admission_waits),
          s.queue_depth_peak, s.in_flight_peak,
          static_cast<unsigned long long>(s.lock_acquisitions),
          static_cast<unsigned long long>(s.lock_contentions),
          static_cast<unsigned long long>(s.dedup_hits),
          static_cast<unsigned long long>(s.dedup_probes),
          static_cast<unsigned long long>(s.uploads),
          static_cast<unsigned long long>(s.upload_bytes));
      print_histogram("entered", s.state_entered);
      print_histogram("live   ", s.state_live);
    }
    const shard_stats agg = st.aggregate();
    std::printf(
        "total: users=%llu sessions=%llu dedup_hits=%llu uploads=%llu "
        "failed=%zu\n",
        static_cast<unsigned long long>(agg.users),
        static_cast<unsigned long long>(agg.sessions_admitted),
        static_cast<unsigned long long>(agg.dedup_hits),
        static_cast<unsigned long long>(agg.uploads), failed);
  }

  // Self-check: the wave must drain (nothing live, everything admitted).
  const shard_stats agg = st.aggregate();
  bool ok = failed == 0 && agg.sessions_admitted == results.size();
  for (std::size_t i = 0; i < kSessionStateCount; ++i) {
    if (agg.state_live[i] != 0) ok = false;
  }
  return ok ? 0 : 1;
}
