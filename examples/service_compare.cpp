// Service comparison: runs a small mixed workload against all six profiles
// and prints a buying-guide style summary — the paper's stated goal of
// "helping users pick appropriate services".
//
//   $ ./service_compare
#include <cstdio>

#include "cloudsync.hpp"

using namespace cloudsync;

namespace {

struct scores {
  double create_tue;    // many small files
  double modify_tue;    // edit a large file
  double frequent_tue;  // steady small appends
  std::uint64_t text_upload;  // compressible content
};

scores evaluate(const service_profile& s) {
  scores sc{};
  experiment_config cfg{s};

  sc.create_tue = tue(measure_batch_creation_traffic(cfg, 50, 2 * KiB),
                      50 * 2 * KiB);
  sc.modify_tue =
      tue(measure_modification_traffic(cfg, 4 * MiB), 1);  // per byte
  sc.frequent_tue = run_append_experiment(cfg, 4.0, 4.0, 512 * KiB).tue();
  sc.text_upload = measure_text_upload_traffic(cfg, 4 * MiB);
  return sc;
}

}  // namespace

int main() {
  std::printf("service comparison on four workloads (PC client @ MN)\n\n");

  text_table table;
  table.header({"Service", "50 small creates (TUE)", "1-byte edit of 4 MB",
                "4 KB/4 s appends (TUE)", "4 MB text upload"});
  for (const service_profile& s : all_services()) {
    const scores sc = evaluate(s);
    table.row({s.name, strfmt("%.1f", sc.create_tue),
               format_bytes(sc.modify_tue),  // traffic per 1-byte update
               strfmt("%.1f", sc.frequent_tue),
               format_bytes(static_cast<double>(sc.text_upload))});
  }
  std::printf("%s\n", table.str().c_str());

  std::printf(
      "Guidance (mirrors the paper's findings):\n"
      "  - many small files      -> prefer a BDS service (Dropbox, Ubuntu One)\n"
      "  - frequently edited data -> prefer IDS (Dropbox, SugarSync PC)\n"
      "  - compressible data      -> prefer compressing uploads (Dropbox, "
      "Ubuntu One)\n"
      "  - media libraries        -> full-file services are fine; files are "
      "rarely modified\n");
  return 0;
}
