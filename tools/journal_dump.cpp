// journal_dump — pretty-print a sync journal through a crash and recovery.
//
// Runs a single-client scenario with the write-ahead journal and a forced
// client crash at a chosen kill site, then prints the journal three times:
// before the crash fires (transactions committing normally), at the instant
// of death (the state a restarted client actually finds on disk), and after
// the recovery pass reconverged. With --trace, every journal transition is
// logged as it happens.
//
//   journal_dump [--site after_plan|mid_chunk|before_commit] [--skip N]
//                [--no-resume] [--size n[K|M]] [--chunk n[K|M]] [--trace]
#include <climits>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>

#include "cli_numbers.hpp"
#include "cloudsync.hpp"

using namespace cloudsync;

namespace {

[[noreturn]] void usage(const char* why = nullptr) {
  if (why != nullptr) std::fprintf(stderr, "error: %s\n\n", why);
  std::fprintf(stderr, "%s",
               "usage: journal_dump [options]\n"
               "\n"
               "options:\n"
               "  --site after_plan|mid_chunk|before_commit   kill site "
               "(default mid_chunk)\n"
               "  --skip <n>            skip the first n opportunities at the "
               "site (default: 2 for mid_chunk, else 0)\n"
               "  --no-resume           discard in-flight sessions on "
               "recovery instead of resuming\n"
               "  --size <n[K|M]>       file size (default 256K)\n"
               "  --chunk <n[K|M]>      resumable-upload chunk size (default "
               "64K)\n"
               "  --trace               log every journal transition\n");
  std::exit(2);
}

struct options {
  crash_site site = crash_site::mid_chunk;
  int skip = -1;  ///< default depends on the site (see parse)
  bool resume = true;
  std::uint64_t size = 256 * KiB;
  std::size_t chunk_bytes = 64 * KiB;
  bool trace = false;
};

options parse(int argc, char** argv) {
  options opt;
  const cli::strict_numbers num([] { usage("malformed number"); });
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage("missing option value");
      return argv[++i];
    };
    if (arg == "--site") {
      const std::string s = value();
      if (s == "after_plan") {
        opt.site = crash_site::after_plan;
      } else if (s == "mid_chunk") {
        opt.site = crash_site::mid_chunk;
      } else if (s == "before_commit") {
        opt.site = crash_site::before_commit;
      } else {
        usage("unknown kill site");
      }
    } else if (arg == "--skip") {
      opt.skip = static_cast<int>(num.count(value().c_str(), INT_MAX));
    } else if (arg == "--no-resume") {
      opt.resume = false;
    } else if (arg == "--size") {
      opt.size = num.size(value().c_str());
    } else if (arg == "--chunk") {
      opt.chunk_bytes = num.size(value().c_str());
    } else if (arg == "--trace") {
      opt.trace = true;
    } else if (arg == "--help" || arg == "-h") {
      usage();
    } else {
      usage("unknown option");
    }
  }
  if (opt.skip < 0) {
    // mid_chunk offers one opportunity per chunk — skip past the first two
    // so the dump shows partial progress; the other sites offer exactly one
    // per transaction.
    opt.skip = opt.site == crash_site::mid_chunk ? 2 : 0;
  }
  return opt;
}

/// The durable half of a client machine, wired by hand so the tool can catch
/// the crash itself and dump the journal at the exact instant of death.
struct rig {
  sim_clock clock;
  cloud cl{cloud_config{}};
  memfs fs;
  sync_journal journal;
  fault_injector faults{fault_plan::none()};
  std::unique_ptr<sync_client> client;
  device_id device = 0;

  explicit rig(const options& opt) {
    cl.set_fault_injector(&faults);
    journal.set_trace(opt.trace);
    build(opt);
  }

  void build(const options& opt) {
    sync_options so;
    so.profile = dropbox();
    so.method = access_method::pc_client;
    so.faults = &faults;
    so.journal = &journal;
    so.recovery.resume = opt.resume;
    so.recovery.chunk_bytes = opt.chunk_bytes;
    so.reuse_device = device;
    client = std::make_unique<sync_client>(clock, fs, cl, 0, std::move(so));
    device = client->device();
  }

  /// Drain the event queue; returns false if a crash unwound it.
  bool settle() {
    for (int guard = 0; guard < 100; ++guard) {
      try {
        clock.run_all();
      } catch (const client_crash&) {
        return false;
      }
      clock.advance_to(std::max(clock.now(), client->busy_until()));
      if (!client->has_pending() && clock.pending() == 0) return true;
    }
    return true;
  }
};

void print_journal(const rig& r, const char* heading) {
  std::printf("=== %s (t=%.1fs) ===\n%s\n", heading, r.clock.now().sec(),
              r.journal.dump().c_str());
}

}  // namespace

int main(int argc, char** argv) {
  const options opt = parse(argc, argv);

  rig r(opt);

  // A committed transaction first, so the dump shows the per-path commit
  // counters next to the crashed transaction's record.
  rng warmup_rng(1);
  r.fs.create("demo/warmup.bin", make_compressed_file(warmup_rng, 32 * KiB),
              r.clock.now());
  if (!r.settle()) {
    std::fprintf(stderr, "unexpected crash during warmup\n");
    return 1;
  }
  print_journal(r, "after a clean commit");

  r.faults.force_crash(opt.site, opt.skip);
  rng content_rng(2);
  r.fs.create("demo/victim.bin", make_compressed_file(content_rng, opt.size),
              r.clock.now());
  if (r.settle()) {
    std::fprintf(stderr,
                 "the forced crash never fired — site %s needs more "
                 "opportunities (try --skip 0 or a larger --size)\n",
                 to_string(opt.site));
    return 1;
  }
  std::printf("client crashed at kill site '%s'\n\n", to_string(opt.site));
  r.client.reset();  // the process is gone; journal + fs survive
  print_journal(r, "what the restarted client finds");

  r.build(opt);
  r.client->recover();
  if (!r.settle()) {
    std::fprintf(stderr, "unexpected second crash during recovery\n");
    return 1;
  }
  print_journal(r, "after recovery");

  std::printf("recovery: resumed=%llu restarted-from-scratch=%llu\n",
              (unsigned long long)r.client->counters().resumes,
              (unsigned long long)r.client->counters().recovery_restarts);

  invariant_report report;
  check_convergence(r.fs, r.cl, 0, report);
  check_journal_quiescent(r.journal, r.cl, report);
  check_no_duplicate_commits(r.journal, r.cl, 0, report);
  std::printf("invariants: %s\n", report.summary().c_str());

  if (opt.trace) {
    std::printf("\n=== journal transition trace ===\n");
    for (const std::string& line : r.journal.trace()) {
      std::printf("%s\n", line.c_str());
    }
  }
  return report.ok() ? 0 : 1;
}
