// Reproduces Figure 8 (c): Dropbox TUE on the "X KB / X sec" appending
// experiment across hardware classes M1 (typical), M2 (outdated), M3
// (advanced). Paper: slower hardware incurs less sync traffic (§6.2
// Condition 2 — metadata computation time batches updates).
#include "bench_util.hpp"

using namespace cloudsync;
using namespace cloudsync::bench;

int main() {
  print_section(
      "Figure 8(c): Dropbox TUE on 'X KB / X sec' appends with M1/M2/M3 "
      "[paper: M2 (outdated) lowest, M3 (advanced) highest]");

  const double xs[] = {0.2, 0.4, 0.6, 0.8, 1.0, 1.5, 2.0, 4.0};
  const hardware_profile hw[] = {hardware_profile::m1(), hardware_profile::m2(),
                                 hardware_profile::m3()};

  text_table table;
  table.header({"X (KB & sec)", "TUE M1 (typical)", "TUE M2 (outdated)",
                "TUE M3 (advanced)"});
  for (const double x : xs) {
    std::vector<std::string> row{strfmt("%.1f", x)};
    for (const hardware_profile& h : hw) {
      experiment_config cfg = make_config(dropbox(), access_method::pc_client);
      cfg.hardware = h;
      const auto res = run_append_experiment(cfg, x, x, 1 * MiB);
      row.push_back(strfmt("%.1f", res.tue()));
    }
    table.row(std::move(row));
  }
  std::printf("%s\n", table.str().c_str());
  std::printf("Expected ordering at small X: M2 < M1 <= M3 (slower hardware "
              "saves traffic by batching naturally).\n");
  return 0;
}
