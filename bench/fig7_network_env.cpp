// Reproduces Figure 7 (Experiment 7): TUE of OneDrive, Box, and Dropbox on
// the "X KB / X sec" appending experiment at the two vantage points:
// MN (20 Mbps, ~50 ms RTT) vs BJ (1.6 Mbps, ~300 ms RTT).
// Paper: the poor network leads to *smaller* TUE — transfers in flight
// naturally batch subsequent updates (§6.2 Condition 1).
#include "bench_util.hpp"

using namespace cloudsync;
using namespace cloudsync::bench;

int main() {
  print_section(
      "Figure 7: TUE @ MN vs @ BJ for the 'X KB / X sec' experiment "
      "[paper: BJ curves sit below MN curves, gap widest at small X]");

  const double xs[] = {1, 2, 3, 5, 8, 12, 16, 20};
  const service_profile services[] = {onedrive(), box(), dropbox()};

  for (const service_profile& s : services) {
    std::printf("-- %s --\n", s.name.c_str());
    text_table table;
    table.header({"X (KB & sec)", "TUE @ MN", "TUE @ BJ", "commits MN",
                  "commits BJ"});
    for (const double x : xs) {
      experiment_config mn = make_config(s, access_method::pc_client);
      mn.link = link_config::minnesota();
      experiment_config bj = mn;
      bj.link = link_config::beijing();
      const auto rm = run_append_experiment(mn, x, x, 1 * MiB);
      const auto rb = run_append_experiment(bj, x, x, 1 * MiB);
      table.row({strfmt("%.0f", x), strfmt("%.1f", rm.tue()),
                 strfmt("%.1f", rb.tue()),
                 strfmt("%llu", (unsigned long long)rm.counters.commits),
                 strfmt("%llu", (unsigned long long)rb.counters.commits)});
    }
    std::printf("%s\n", table.str().c_str());
  }
  std::printf(
      "Expected: '@ BJ' TUE <= '@ MN' TUE, with fewer commits — the slow "
      "link keeps transfers in flight, so updates batch naturally.\n");
  return 0;
}
