// Collaborative-editing scenario (paper §6): a document receives a steady
// stream of small appends — the "frequent modifications" workload that causes
// the traffic overuse problem. Compares the six services, then shows what
// the paper's ASD proposal would change.
//
//   $ ./collab_editing
#include <cstdio>

#include "cloudsync.hpp"

using namespace cloudsync;

namespace {

void run(const service_profile& profile, const char* label) {
  experiment_config cfg{profile};
  // An editor writing ~2 KB every 5 seconds for ~40 minutes.
  const auto res = run_append_experiment(cfg, 2.0, 5.0, 1 * MiB);
  std::printf("  %-28s traffic %-10s TUE %-8.1f commits %llu\n", label,
              format_bytes(static_cast<double>(res.total_traffic())).c_str(),
              res.tue(),
              static_cast<unsigned long long>(res.counters.commits));
}

}  // namespace

int main() {
  std::printf("collaborative editing: 2 KB appended every 5 s until 1 MB\n\n");

  std::printf("as shipped:\n");
  for (const service_profile& s : all_services()) {
    run(s, s.name.c_str());
  }

  std::printf("\nwith the paper's adaptive sync defer (ASD) retrofitted:\n");
  for (const service_profile& s : all_services()) {
    const service_profile asd = with_defer(s, defer_config::asd());
    run(asd, (s.name + " + ASD").c_str());
  }

  std::printf(
      "\nReading: without deferment, every append pays the full per-sync "
      "overhead (and full-file services re-upload the whole growing "
      "document). ASD batches the stream for every service, pushing TUE "
      "toward 1.\n");
  return 0;
}
