// Reproduces Figure 6 (Experiment 6): TUE under the "X KB / X sec" appending
// workload (append X random KB every X seconds until 1 MB total), six
// services, PC client @ MN.
// Paper shapes: full-file + no defer (Box, Ubuntu One) -> TUE large and
// decreasing in X; fixed defer (Google Drive 4.2 s, OneDrive 10.5 s,
// SugarSync 6 s) -> TUE ~ 1 while X < T, spiking when X > T; IDS
// (Dropbox, SugarSync) -> moderate TUE.
#include "bench_util.hpp"

using namespace cloudsync;
using namespace cloudsync::bench;

int main() {
  print_section(
      "Figure 6: TUE vs X for the 'X KB / X sec' appending experiment "
      "(C = 1 MB, PC @ MN) [paper maxima: GD 260, OD 51, DB 32, Box 75, "
      "U1 144, SS 33]");

  const double xs[] = {1, 2, 3, 4, 5, 6, 8, 10, 12, 15, 20};

  text_table table;
  std::vector<std::string> header{"X (KB & sec)"};
  for (const service_profile& s : all_services()) header.push_back(s.name);
  table.header(std::move(header));

  for (const double x : xs) {
    std::vector<std::string> row{strfmt("%.0f", x)};
    for (const service_profile& s : all_services()) {
      const auto res = run_append_experiment(
          make_config(s, access_method::pc_client), x, x, 1 * MiB);
      row.push_back(strfmt("%.1f", res.tue()));
    }
    table.row(std::move(row));
  }
  std::printf("%s\n", table.str().c_str());
  std::printf(
      "Shapes to check: Google Drive ~1 for X<=4 then spikes (T~4.2 s); "
      "OneDrive ~1 for X<=10 (T~10.5 s); SugarSync ~1 for X<=6 (T~6 s); "
      "Box/Ubuntu One decrease smoothly; Dropbox stays lowest among "
      "non-deferring services (IDS).\n");
  return 0;
}
