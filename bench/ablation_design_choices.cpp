// Ablation bench for the design choices DESIGN.md calls out: what would each
// individual mechanism buy a full-file/no-dedup/no-compression baseline?
// Sweeps: IDS chunk size, dedup block size, compression level, defer policy.
#include "bench_util.hpp"

using namespace cloudsync;
using namespace cloudsync::bench;

namespace {

service_profile baseline() {
  service_profile s = box();  // full-file, no compression, no dedup, no defer
  s.name = "Baseline";
  return s;
}

}  // namespace

int main() {
  print_section(
      "Ablation 1: IDS chunk size vs one-byte-modification traffic "
      "(1 MB file, PC client)");
  {
    text_table table;
    table.header({"Delta chunk", "mod traffic", "vs full-file"});
    const std::uint64_t full = measure_modification_traffic(
        make_config(baseline(), access_method::pc_client), 1 * MiB);
    for (const std::size_t chunk :
         {700ul, 4096ul, 10240ul, 65536ul, 262144ul}) {
      service_profile s = baseline();
      s.name = "Baseline+IDS";
      s.delta_chunk_size = chunk;
      s.method(access_method::pc_client).incremental_sync = true;
      const std::uint64_t t = measure_modification_traffic(
          make_config(s, access_method::pc_client), 1 * MiB);
      table.row({human(static_cast<double>(chunk)),
                 human(static_cast<double>(t)),
                 strfmt("%.1f%%", 100.0 * static_cast<double>(t) /
                                      static_cast<double>(full))});
    }
    table.row({"full-file", human(static_cast<double>(full)), "100%"});
    std::printf("%s\n", table.str().c_str());
  }

  print_section(
      "Ablation 2: dedup granularity vs re-upload traffic "
      "(4 MB file uploaded twice under different names)");
  {
    text_table table;
    table.header({"Dedup policy", "2nd upload traffic"});
    struct row {
      const char* label;
      dedup_policy policy;
    };
    dedup_policy cdc_policy;
    cdc_policy.granularity = dedup_granularity::content_defined;
    cdc_policy.cdc = {64 * KiB, 256 * KiB, 1 * MiB};
    const row rows[] = {
        {"none", dedup_policy::disabled()},
        {"full-file", {dedup_granularity::full_file, 4 * MiB, false, {}}},
        {"block 1 MB", {dedup_granularity::fixed_block, 1 * MiB, false, {}}},
        {"block 4 MB", {dedup_granularity::fixed_block, 4 * MiB, false, {}}},
        {"CDC ~256 KB", cdc_policy},
    };
    for (const row& r : rows) {
      service_profile s = baseline();
      s.dedup = r.policy;
      s.method(access_method::pc_client).dedup_enabled = true;
      experiment_env env(make_config(s, access_method::pc_client));
      station& st = env.primary();
      const byte_buffer data = make_compressed_file(env.random(), 4 * MiB);
      st.fs.create("first", data, env.clock().now());
      env.settle();
      const auto snap = st.client->meter().snap();
      st.fs.create("second", data, env.clock().now());
      env.settle();
      table.row({r.label,
                 human(static_cast<double>(
                     experiment_env::traffic_since(st, snap)))});
    }
    std::printf("%s\n", table.str().c_str());
  }

  print_section(
      "Ablation 3: upload compression level vs text-upload traffic "
      "(4 MB random-English text)");
  {
    text_table table;
    table.header({"Level", "upload traffic", "vs raw"});
    std::uint64_t raw = 0;
    for (const int level : {0, 1, 3, 5, 7, 9}) {
      service_profile s = baseline();
      s.method(access_method::pc_client).upload_compression_level = level;
      const std::uint64_t t = measure_text_upload_traffic(
          make_config(s, access_method::pc_client), 4 * MiB);
      if (level == 0) raw = t;
      table.row({strfmt("%d", level), human(static_cast<double>(t)),
                 strfmt("%.1f%%", 100.0 * static_cast<double>(t) /
                                      static_cast<double>(raw))});
    }
    std::printf("%s\n", table.str().c_str());

    // What a gzip-class two-stage pipeline (dictionary + entropy coding)
    // would add on the same content — the headroom above the services'
    // dictionary-only compressors.
    rng r(7);
    const byte_buffer text = random_text(r, 4 * MiB);
    const std::size_t lzss_only =
        lzss_compressor(9).compress(text).size();
    const std::size_t two_stage =
        huffman_lzss_compressor(9).compress(text).size();
    std::printf(
        "reference: LZSS-9 alone %s; LZSS-9 + Huffman %s (extra %.1f%% off "
        "the payload)\n\n",
        human(static_cast<double>(lzss_only)).c_str(),
        human(static_cast<double>(two_stage)).c_str(),
        100.0 * (1.0 - static_cast<double>(two_stage) /
                           static_cast<double>(lzss_only)));
  }

  print_section(
      "Ablation 4: defer policy vs TUE on '3 KB / 3 sec' appends (1 MB)");
  {
    text_table table;
    table.header({"Defer policy", "TUE", "commits"});
    struct row {
      const char* label;
      defer_config defer;
    };
    byte_counter_defer::params uds_params;
    uds_params.threshold_bytes = 64 * KiB;
    uds_params.max_wait = sim_time::from_sec(60);
    const row rows[] = {
        {"none", defer_config::none()},
        {"fixed 1 s", defer_config::fixed(sim_time::from_sec(1))},
        {"fixed 4.2 s", defer_config::fixed(sim_time::from_sec(4.2))},
        {"fixed 10.5 s", defer_config::fixed(sim_time::from_sec(10.5))},
        {"UDS (64 KB counter)", defer_config::uds(uds_params)},
        {"ASD", defer_config::asd()},
    };
    for (const row& r : rows) {
      const service_profile s = with_defer(baseline(), r.defer);
      const auto res = run_append_experiment(
          make_config(s, access_method::pc_client), 3.0, 3.0, 1 * MiB);
      table.row({r.label, strfmt("%.1f", res.tue()),
                 strfmt("%llu", (unsigned long long)res.counters.commits)});
    }
    std::printf("%s\n", table.str().c_str());
    std::printf(
        "Fixed defers below the update period do nothing; above it they "
        "batch everything; ASD matches the best fixed choice without "
        "knowing the period.\n");
  }
  return 0;
}
