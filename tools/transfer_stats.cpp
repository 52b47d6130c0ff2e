// transfer_stats: run the serialized create+rewrite transfer workload under
// a chosen fault intensity and scheduler configuration, then dump what the
// fault-adaptive parallel transfer scheduler actually did — per-connection
// RTT/loss estimates, the chosen (K, R, hedge timeout), hedge fire/win
// counts, and FEC reconstruction events. The observability companion to
// bench/transfer_frontier_report (DESIGN.md, "Parallel transfer &
// redundancy"). Exits nonzero if any transaction failed to complete.
//
// Usage: transfer_stats [--intensity F] [--files N] [--size BYTES]
//                       [--chunk BYTES] [--pin KxR] [--seed N] [--json]
#include <cstdio>
#include <cstring>
#include <string>

#include "cli_numbers.hpp"
#include "core/experiment.hpp"

using namespace cloudsync;

namespace {

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--intensity F] [--files N] [--size BYTES]\n"
               "          [--chunk BYTES] [--pin KxR] [--seed N] [--json]\n"
               "  --intensity F   fault_plan::degraded intensity (default 0.5)\n"
               "  --pin KxR       pin the lattice point, e.g. --pin 4x2\n"
               "                  (default: adaptive controller)\n",
               argv0);
  return 2;
}

void print_connections(const std::vector<connection_stats>& conns) {
  for (std::size_t i = 0; i < conns.size(); ++i) {
    const connection_stats& cs = conns[i];
    std::printf("  c%zu: dispatches=%llu faults=%llu loss=%.3f rtt=%s\n", i,
                static_cast<unsigned long long>(cs.dispatches),
                static_cast<unsigned long long>(cs.faults),
                cs.loss_estimate(), cs.rtt_estimate().str().c_str());
  }
}

void print_json(const experiment_config& cfg, std::size_t files,
                std::uint64_t file_bytes, const experiment_result& r) {
  std::printf("{\n");
  std::printf("  \"intensity\": %g,\n",
              cfg.faults.outages_per_hour /
                  fault_plan::degraded(1.0).outages_per_hour);
  std::printf("  \"files\": %zu,\n", files);
  std::printf("  \"file_bytes\": %llu,\n",
              static_cast<unsigned long long>(file_bytes));
  std::printf("  \"chunk_bytes\": %zu,\n", cfg.recovery.chunk_bytes);
  std::printf("  \"pinned\": %s,\n", cfg.transfer.pinned ? "true" : "false");
  std::printf("  \"decision\": {\"connections\": %d, \"parity\": %d, "
              "\"hedge_timeout_sec\": %g},\n",
              r.sched.last_connections, r.sched.last_parity,
              r.sched.last_hedge_timeout.sec());
  std::printf("  \"stripes\": %llu,\n",
              static_cast<unsigned long long>(r.sched.stripes));
  std::printf("  \"data_shards\": %llu,\n",
              static_cast<unsigned long long>(r.sched.data_shards));
  std::printf("  \"parity_shards\": %llu,\n",
              static_cast<unsigned long long>(r.sched.parity_shards));
  std::printf("  \"shard_faults\": %llu,\n",
              static_cast<unsigned long long>(r.sched.shard_faults));
  std::printf("  \"hedges_fired\": %llu,\n",
              static_cast<unsigned long long>(r.sched.hedges_fired));
  std::printf("  \"hedges_won\": %llu,\n",
              static_cast<unsigned long long>(r.sched.hedges_won));
  std::printf("  \"hedges_cancelled\": %llu,\n",
              static_cast<unsigned long long>(r.sched.hedges_cancelled));
  std::printf("  \"reconstructions\": %llu,\n",
              static_cast<unsigned long long>(r.sched.reconstructions));
  std::printf("  \"recovery_rounds\": %llu,\n",
              static_cast<unsigned long long>(r.sched.recovery_rounds));
  std::printf("  \"payload_traffic\": %llu,\n",
              static_cast<unsigned long long>(
                  r.meter.by_category(traffic_category::payload)));
  std::printf("  \"redundancy_traffic\": %llu,\n",
              static_cast<unsigned long long>(
                  r.meter.by_category(traffic_category::redundancy)));
  std::printf("  \"retry_traffic\": %llu,\n",
              static_cast<unsigned long long>(
                  r.meter.by_category(traffic_category::retry)));
  std::printf("  \"tue\": %g,\n", r.tue());
  std::printf("  \"gave_up\": %llu,\n",
              static_cast<unsigned long long>(r.counters.requeues));
  std::printf("  \"connections\": [");
  for (std::size_t i = 0; i < r.per_connection.size(); ++i) {
    const connection_stats& cs = r.per_connection[i];
    std::printf("%s\n    {\"conn\": %zu, \"dispatches\": %llu, "
                "\"faults\": %llu, \"loss\": %g, \"rtt_sec\": %g}",
                i ? "," : "", i,
                static_cast<unsigned long long>(cs.dispatches),
                static_cast<unsigned long long>(cs.faults),
                cs.loss_estimate(), cs.rtt_estimate().sec());
  }
  std::printf("\n  ]\n}\n");
}

}  // namespace

int main(int argc, char** argv) {
  double intensity = 0.5;
  std::size_t files = 6;
  std::uint64_t file_bytes = 96 * KiB;
  std::size_t chunk_bytes = 8 * KiB;
  std::uint64_t seed = 1234;
  int pin_k = 0, pin_r = 0;
  bool pinned = false;
  bool json = false;
  const cli::strict_numbers num([&] { usage(argv[0]); });

  for (int i = 1; i < argc; ++i) {
    const char* a = argv[i];
    auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    if (std::strcmp(a, "--intensity") == 0) {
      intensity = num.real(next());
    } else if (std::strcmp(a, "--files") == 0) {
      files = num.count(next());
    } else if (std::strcmp(a, "--size") == 0) {
      file_bytes = num.size(next());
    } else if (std::strcmp(a, "--chunk") == 0) {
      chunk_bytes = num.size(next());
    } else if (std::strcmp(a, "--seed") == 0) {
      seed = num.count(next());
    } else if (std::strcmp(a, "--pin") == 0) {
      const char* v = next();
      if (!v || std::sscanf(v, "%dx%d", &pin_k, &pin_r) != 2 || pin_k < 1 ||
          pin_r < 0) {
        return usage(argv[0]);
      }
      pinned = true;
    } else if (std::strcmp(a, "--json") == 0) {
      json = true;
    } else {
      return usage(argv[0]);
    }
  }
  if (files == 0 || file_bytes == 0 || chunk_bytes == 0) {
    return usage(argv[0]);
  }

  experiment_config cfg{dropbox()};
  cfg.method = access_method::pc_client;
  cfg.link = link_config::beijing();
  cfg.seed = seed;
  cfg.journal = true;
  cfg.recovery.chunk_bytes = chunk_bytes;
  if (intensity > 0) cfg.faults = fault_plan::degraded(intensity);
  cfg.transfer.enabled = true;
  if (pinned) {
    cfg.transfer.pinned = true;
    cfg.transfer.pin = {pin_k, pin_r, sim_time::from_sec(2)};
  }

  const experiment_result r = run_transfer_experiment(cfg, files, file_bytes);

  if (json) {
    print_json(cfg, files, file_bytes, r);
  } else {
    std::printf("transfer_stats: intensity %.2f, %zu files x %llu B, "
                "%zu B chunks, %s\n\n",
                intensity, files,
                static_cast<unsigned long long>(file_bytes), chunk_bytes,
                pinned ? "pinned" : "adaptive");
    std::printf("decision: K=%d R=%d hedge=%s\n", r.sched.last_connections,
                r.sched.last_parity, r.sched.last_hedge_timeout.str().c_str());
    std::printf("observed: %llu ok / %llu faulted, %llu decisions "
                "(%llu striped)\n",
                static_cast<unsigned long long>(r.sched.observed_success),
                static_cast<unsigned long long>(r.sched.observed_faults),
                static_cast<unsigned long long>(r.sched.decisions),
                static_cast<unsigned long long>(r.sched.escalations));
    std::printf("stripes: %llu (%llu data + %llu parity shards, %llu shard "
                "faults)\n",
                static_cast<unsigned long long>(r.sched.stripes),
                static_cast<unsigned long long>(r.sched.data_shards),
                static_cast<unsigned long long>(r.sched.parity_shards),
                static_cast<unsigned long long>(r.sched.shard_faults));
    std::printf("hedges: %llu fired, %llu won, %llu cancelled\n",
                static_cast<unsigned long long>(r.sched.hedges_fired),
                static_cast<unsigned long long>(r.sched.hedges_won),
                static_cast<unsigned long long>(r.sched.hedges_cancelled));
    std::printf("reconstructions: %llu, recovery rounds: %llu\n",
                static_cast<unsigned long long>(r.sched.reconstructions),
                static_cast<unsigned long long>(r.sched.recovery_rounds));
    std::printf("traffic: payload %llu B, redundancy %llu B, retry %llu B "
                "(TUE %.3f)\n",
                static_cast<unsigned long long>(
                    r.meter.by_category(traffic_category::payload)),
                static_cast<unsigned long long>(
                    r.meter.by_category(traffic_category::redundancy)),
                static_cast<unsigned long long>(
                    r.meter.by_category(traffic_category::retry)),
                r.tue());
    std::printf("per-connection estimates:\n");
    print_connections(r.per_connection);
  }

  // A transaction that exhausted every recovery avenue re-queued; report it
  // as failure so smoke tests catch regressions in convergence.
  return r.counters.requeues == 0 ? 0 : 1;
}
