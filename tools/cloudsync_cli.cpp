// cloudsync — command-line driver for the library.
//
//   cloudsync services                      list the calibrated profiles
//   cloudsync probe --service Dropbox       black-box fingerprint
//   cloudsync creation --service Box --size 1M
//   cloudsync modify   --service Dropbox --size 10M
//   cloudsync append   --service "Google Drive" --kb 2 --period 2 --total 1M
//   cloudsync trace    --scale 0.02 [--csv trace.csv]
//   cloudsync replay   --scale 0.01
//
// Common options: --method pc|web|mobile, --link mn|bj, --seed N.
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <string>

#include "cli_numbers.hpp"
#include "cloudsync.hpp"

using namespace cloudsync;

namespace {

[[noreturn]] void usage(const char* why = nullptr) {
  if (why != nullptr) std::fprintf(stderr, "error: %s\n\n", why);
  std::fprintf(stderr, "%s",
               "usage: cloudsync <command> [options]\n"
               "\n"
               "commands:\n"
               "  services              list service profiles and design "
               "choices\n"
               "  probe                 fingerprint a service from traffic "
               "alone\n"
               "  creation              Experiment 1: file-creation traffic\n"
               "  modify                Experiment 3: one-byte modification\n"
               "  append                Experiment 6: 'X KB / X sec' stream\n"
               "  trace                 generate + summarise the synthetic "
               "trace\n"
               "  replay                macro fleet replay of the trace\n"
               "\n"
               "options:\n"
               "  --service <name>      Google Drive | OneDrive | Dropbox | "
               "Box | Ubuntu One | SugarSync\n"
               "  --method pc|web|mobile   access method (default pc)\n"
               "  --link mn|bj          vantage point (default mn)\n"
               "  --size <n[K|M|G]>     file size for creation/modify\n"
               "  --kb / --period / --total   append-stream parameters\n"
               "  --scale <f>           trace scale fraction\n"
               "  --csv <path>          write the generated trace as CSV\n"
               "  --seed <n>            RNG seed\n");
  std::exit(2);
}

struct cli_options {
  std::string command;
  std::string service = "Dropbox";
  access_method method = access_method::pc_client;
  link_config link = link_config::minnesota();
  std::uint64_t size = 1 * MiB;
  double kb = 1.0;
  double period = 1.0;
  std::uint64_t total = 1 * MiB;
  double scale = 0.02;
  std::string csv_path;
  std::uint64_t seed = 1234;
};

cli_options parse(int argc, char** argv) {
  if (argc < 2) usage();
  cli_options opt;
  opt.command = argv[1];
  const cli::strict_numbers num([] { usage("malformed number"); });
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage(("missing value for " + arg).c_str());
      return argv[++i];
    };
    if (arg == "--service") {
      opt.service = value();
    } else if (arg == "--method") {
      const std::string m = value();
      if (m == "pc") opt.method = access_method::pc_client;
      else if (m == "web") opt.method = access_method::web_browser;
      else if (m == "mobile") opt.method = access_method::mobile_app;
      else usage("unknown method");
    } else if (arg == "--link") {
      const std::string l = value();
      if (l == "mn") opt.link = link_config::minnesota();
      else if (l == "bj") opt.link = link_config::beijing();
      else usage("unknown link");
    } else if (arg == "--size") {
      opt.size = num.size(value().c_str());
    } else if (arg == "--kb") {
      opt.kb = num.real(value().c_str());
    } else if (arg == "--period") {
      opt.period = num.real(value().c_str());
    } else if (arg == "--total") {
      opt.total = num.size(value().c_str());
    } else if (arg == "--scale") {
      opt.scale = num.real(value().c_str());
    } else if (arg == "--csv") {
      opt.csv_path = value();
    } else if (arg == "--seed") {
      opt.seed = num.count(value().c_str());
    } else {
      usage(("unknown option " + arg).c_str());
    }
  }
  return opt;
}

experiment_config config_for(const cli_options& opt) {
  const auto profile = find_service(opt.service);
  if (!profile) usage(("unknown service: " + opt.service).c_str());
  experiment_config cfg{*profile};
  cfg.method = opt.method;
  cfg.link = opt.link;
  cfg.seed = opt.seed;
  return cfg;
}

int cmd_services() {
  text_table t;
  t.header({"Service", "IDS (PC)", "BDS (PC)", "compress UP (PC)",
            "dedup", "defer"});
  for (const service_profile& s : all_services()) {
    const method_profile& pc = s.method(access_method::pc_client);
    std::string dedup = "no";
    if (s.dedup.granularity == dedup_granularity::full_file) {
      dedup = s.dedup.cross_user ? "full-file (cross-user)" : "full-file";
    } else if (s.dedup.granularity == dedup_granularity::fixed_block) {
      dedup = strfmt("%s blocks",
                     format_bytes(static_cast<double>(s.dedup.block_size))
                         .c_str());
    }
    std::string defer = "none";
    if (s.defer.policy == defer_config::kind::fixed) {
      defer = strfmt("fixed %.1f s", s.defer.fixed_deferment.sec());
    } else if (s.defer.policy == defer_config::kind::adaptive) {
      defer = "ASD";
    }
    t.row({s.name, pc.incremental_sync ? "yes" : "no",
           pc.batched_sync ? "yes" : "no",
           pc.upload_compression_level > 0
               ? strfmt("level %d", pc.upload_compression_level)
               : "no",
           dedup, defer});
  }
  std::printf("%s", t.str().c_str());
  return 0;
}

int cmd_probe(const cli_options& opt) {
  std::printf("fingerprinting %s via %s...\n\n", opt.service.c_str(),
              to_string(opt.method));
  const probed_characteristics p = probe_service(config_for(opt));
  std::printf("%s", p.summary().c_str());
  return 0;
}

int cmd_creation(const cli_options& opt) {
  const std::uint64_t traffic =
      measure_creation_traffic(config_for(opt), opt.size);
  std::printf("creating a %s file on %s (%s): %s of sync traffic, TUE %.2f\n",
              format_bytes(static_cast<double>(opt.size)).c_str(),
              opt.service.c_str(), to_string(opt.method),
              format_bytes(static_cast<double>(traffic)).c_str(),
              tue(traffic, opt.size));
  return 0;
}

int cmd_modify(const cli_options& opt) {
  const std::uint64_t traffic =
      measure_modification_traffic(config_for(opt), opt.size);
  std::printf(
      "modifying 1 byte of a %s file on %s (%s): %s of sync traffic\n",
      format_bytes(static_cast<double>(opt.size)).c_str(),
      opt.service.c_str(), to_string(opt.method),
      format_bytes(static_cast<double>(traffic)).c_str());
  return 0;
}

int cmd_append(const cli_options& opt) {
  const auto res = run_append_experiment(config_for(opt), opt.kb, opt.period,
                                         opt.total);
  std::printf(
      "'%.1f KB / %.1f sec' stream to %s on %s: traffic %s, TUE %.1f, "
      "%llu commits\n",
      opt.kb, opt.period, format_bytes(static_cast<double>(opt.total)).c_str(),
      opt.service.c_str(),
      format_bytes(static_cast<double>(res.total_traffic())).c_str(),
      res.tue(), static_cast<unsigned long long>(res.counters.commits));
  return 0;
}

int cmd_trace(const cli_options& opt) {
  trace_params params;
  params.scale = opt.scale;
  params.seed = opt.seed;
  const trace_dataset ds = generate_trace(params);
  const trace_summary s = summarize(ds);
  std::printf("generated %zu files (scale %.3f)\n", s.file_count, opt.scale);
  std::printf("median %s, mean %s, <100 KB %.1f%%, modified %.1f%%, "
              "compressible %.1f%%, compression ratio %.2f, duplicates "
              "%.1f%% of bytes\n",
              format_bytes(s.median_size).c_str(),
              format_bytes(s.mean_size).c_str(), s.fraction_small * 100.0,
              s.fraction_modified * 100.0,
              s.fraction_effectively_compressible * 100.0,
              s.overall_compression_ratio,
              full_file_duplicate_fraction(ds) * 100.0);
  if (!opt.csv_path.empty()) {
    std::ofstream out(opt.csv_path);
    if (!out) {
      std::fprintf(stderr, "cannot open %s\n", opt.csv_path.c_str());
      return 1;
    }
    write_trace_csv(ds, out);
    std::printf("wrote %s\n", opt.csv_path.c_str());
  }
  return 0;
}

int cmd_replay(const cli_options& opt) {
  fleet_config cfg;
  cfg.trace.scale = opt.scale;
  cfg.trace.seed = opt.seed;
  cfg.method = opt.method;
  cfg.link = opt.link;
  text_table t;
  t.header({"Service", "files", "sync traffic", "TUE", "mean sync delay"});
  for (const fleet_service_report& r : replay_trace_fleet(cfg)) {
    t.row({r.service, strfmt("%zu", r.files),
           format_bytes(static_cast<double>(r.sync_traffic)),
           strfmt("%.2f", r.tue()), strfmt("%.1f s", r.mean_staleness_sec)});
  }
  std::printf("%s", t.str().c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const cli_options opt = parse(argc, argv);
  if (opt.command == "services") return cmd_services();
  if (opt.command == "probe") return cmd_probe(opt);
  if (opt.command == "creation") return cmd_creation(opt);
  if (opt.command == "modify") return cmd_modify(opt);
  if (opt.command == "append") return cmd_append(opt);
  if (opt.command == "trace") return cmd_trace(opt);
  if (opt.command == "replay") return cmd_replay(opt);
  usage(("unknown command " + opt.command).c_str());
}
