// Reproduces Figure 8 (a) and (b): Dropbox TUE on the "1 KB/sec" appending
// experiment under the packet filter — (a) variable bandwidth at ~50 ms RTT,
// (b) variable latency at 20 Mbps.
// Paper: higher bandwidth or shorter latency => larger TUE.
#include "bench_util.hpp"

using namespace cloudsync;
using namespace cloudsync::bench;

int main() {
  print_section(
      "Figure 8(a): Dropbox TUE, '1 KB/sec' appends, bandwidth 1.6-20 Mbps "
      "(latency fixed ~50 ms)");

  {
    text_table table;
    table.header({"Bandwidth (Mbps)", "TUE", "commits"});
    // Our calibrated Dropbox commit is ~45 KB, so the serialisation-driven
    // batching threshold sits below the paper's 1.6 Mbps floor; the sweep
    // extends lower to expose the same rising shape (see EXPERIMENTS.md).
    for (const double mbps : {0.1, 0.2, 0.4, 0.8, 1.6, 5.0, 20.0}) {
      experiment_config cfg = make_config(dropbox(), access_method::pc_client);
      const packet_filter filter{mbps_to_bytes_per_sec(mbps), sim_time{}};
      cfg.link = filter.apply(link_config::minnesota());
      const auto res = run_append_experiment(cfg, 1.0, 1.0, 1 * MiB);
      table.row({strfmt("%.1f", mbps), strfmt("%.1f", res.tue()),
                 strfmt("%llu", (unsigned long long)res.counters.commits)});
    }
    std::printf("%s\n", table.str().c_str());
  }

  print_section(
      "Figure 8(b): Dropbox TUE, '1 KB/sec' appends, latency 40-1000 ms "
      "(bandwidth fixed 20 Mbps)");

  {
    text_table table;
    table.header({"RTT (ms)", "TUE", "commits"});
    for (const double ms : {40.0, 100.0, 200.0, 400.0, 700.0, 1000.0}) {
      experiment_config cfg = make_config(dropbox(), access_method::pc_client);
      cfg.link = link_config::minnesota();
      cfg.link.rtt = sim_time::from_msec(ms);
      const auto res = run_append_experiment(cfg, 1.0, 1.0, 1 * MiB);
      table.row({strfmt("%.0f", ms), strfmt("%.1f", res.tue()),
                 strfmt("%llu", (unsigned long long)res.counters.commits)});
    }
    std::printf("%s\n", table.str().c_str());
  }

  std::printf("Expected monotonicity: TUE rises with bandwidth and falls "
              "with latency (paper Fig 8a/8b).\n");
  return 0;
}
