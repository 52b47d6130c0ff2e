// One timed sample of one benchmark workload, in a fresh process.
//
//   perfbench_run --workload <fleet_replay|fleet_small_files|server_sessions>
//                 --seed <n> [--threads <n>] [--reduced]
//
// The process generates its inputs from the seed (set-up), runs the workload
// once (the timed phase) and prints one JSON line: timings, latency
// percentiles, peak RSS, the outputs run.py checks, and — in the traced
// build — the per-layer span totals. A workload is never repeated inside one
// process: the replay's content memos cannot all be cleared from outside, so
// a second run in the same process would measure warm caches.
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "client/sync_protocol.hpp"
#include "core/fleet.hpp"
#include "dedup/dedup_engine.hpp"
#include "fs/file_ops.hpp"
#include "probe.hpp"
#include "server/session.hpp"
#include "server/sync_server.hpp"
#include "store/content_store.hpp"
#include "util/content_cache.hpp"

using namespace cloudsync;

namespace {

// ---------------------------------------------------------------------------
// Minimal JSON object writer (flat keys, nested objects by string).

class json_obj {
 public:
  json_obj& num(const std::string& k, double v) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", std::isfinite(v) ? v : 0.0);
    return raw(k, buf);
  }
  json_obj& num(const std::string& k, std::uint64_t v) {
    return raw(k, std::to_string(v));
  }
  json_obj& str(const std::string& k, const std::string& v) {
    return raw(k, quote(v));
  }
  json_obj& boolean(const std::string& k, bool v) {
    return raw(k, v ? "true" : "false");
  }
  json_obj& raw(const std::string& k, const std::string& v) {
    out_ << (first_ ? "" : ",") << '"' << k << "\":" << v;
    first_ = false;
    return *this;
  }
  std::string str() const { return "{" + out_.str() + "}"; }

  static std::string quote(const std::string& v) {
    std::string q = "\"";
    for (char c : v) {
      if (c == '"' || c == '\\') q += '\\';
      q += c;
    }
    return q + "\"";
  }

 private:
  std::ostringstream out_;
  bool first_ = true;
};

std::string num_list(const std::vector<std::uint64_t>& v) {
  std::string s = "[";
  for (std::size_t i = 0; i < v.size(); ++i) {
    s += (i ? "," : "") + std::to_string(v[i]);
  }
  return s + "]";
}

// ---------------------------------------------------------------------------

struct options {
  std::string workload;
  std::uint64_t seed = 1;
  unsigned threads = 0;  ///< 0 = the workload's default
  bool reduced = false;  ///< small inputs for the smoke test
};

/// What every workload reports back to main().
struct sample {
  double setup_s = 0;
  double timed_s = 0;
  std::uint64_t attempted = 0;  ///< files replayed / sessions run
  std::uint64_t failed = 0;     ///< sessions that reported failure
  std::uint64_t files = 0;
  std::uint64_t transactions = 0;  ///< metadata commits / server sessions
  std::vector<std::uint64_t> latencies_ns;
  unsigned active_threads = 1;  ///< threads doing timed work
  json_obj check;               ///< deterministic outputs run.py compares
  std::vector<std::string> errors;  ///< internal consistency failures
  json_obj server;  ///< server-side per-layer numbers (server_sessions)
};

double seconds_since(std::uint64_t t0) {
  return static_cast<double>(perfbench::now_ns() - t0) / 1e9;
}

unsigned host_threads() {
  const unsigned n = std::thread::hardware_concurrency();
  return n == 0 ? 1 : n;
}

double ratio(std::uint64_t num, std::uint64_t den) {
  return den == 0 ? 0.0
                  : static_cast<double>(num) / static_cast<double>(den);
}

// --- fleet workloads --------------------------------------------------------

fleet_config fleet_params(const options& o) {
  fleet_config cfg;
  cfg.trace.seed = o.seed;
  cfg.replay_threads = o.threads == 0 ? 1 : o.threads;
  if (o.workload == "fleet_replay") {
    // The historical macro_trace_replay scope.
    cfg.trace.scale = o.reduced ? 0.002 : 0.01;
    cfg.max_files_per_service = o.reduced ? 40 : 200;
    cfg.trace.max_file_bytes = 2 * MiB;
  } else {
    // The paper's small-file regime: every file clamped to 4 KiB.
    cfg.trace.scale = o.reduced ? 0.005 : 0.05;
    cfg.trace.max_file_bytes = 4 * KiB;
  }
  return cfg;
}

/// Per-service counts the replay must report, derived from the trace alone.
struct service_expect {
  std::size_t files = 0;
  std::size_t dropped = 0;
  std::uint64_t update_bytes = 0;
};

sample run_fleet(const options& o) {
  sample s;
  const std::uint64_t t0 = perfbench::now_ns();
  const fleet_config cfg = fleet_params(o);
  std::map<std::string, service_expect> expect;
  {
    const trace_dataset ds = generate_trace(cfg.trace);
    for (const trace_file_record& rec : ds.files) {
      service_expect& e = expect[rec.service];
      if (e.files < cfg.max_files_per_service) {
        ++e.files;
        e.update_bytes += rec.original_size + rec.modify_count;
      } else {
        ++e.dropped;
      }
    }
  }
  s.setup_s = seconds_since(t0);

  perfbench::reset();
  perfbench::set_commit_gaps(true);
  const std::uint64_t t1 = perfbench::now_ns();
  const std::vector<fleet_service_report> reports = replay_trace_fleet(cfg);
  s.timed_s = seconds_since(t1);
  perfbench::set_commit_gaps(false);
  s.active_threads =
      std::min<unsigned>(cfg.replay_threads,
                         static_cast<unsigned>(reports.size()));

  const perfbench::totals t = perfbench::snapshot();
  s.latencies_ns = t.commit_gaps_ns;

  std::uint64_t update_bytes = 0, traffic = 0, commits = 0, users = 0;
  std::vector<std::uint64_t> service_traffic;
  for (const fleet_service_report& r : reports) {
    s.files += r.files;
    update_bytes += r.update_bytes;
    traffic += r.sync_traffic;
    commits += r.commits;
    users += r.users;
    service_traffic.push_back(r.sync_traffic);
    const auto it = expect.find(r.service);
    if (it == expect.end() || it->second.files != r.files ||
        it->second.dropped != r.dropped_files ||
        it->second.update_bytes != r.update_bytes) {
      s.errors.push_back(r.service + ": files/update bytes differ from trace");
    }
  }
  if (reports.size() != expect.size()) {
    s.errors.push_back("replay skipped a service present in the trace");
  }
  s.attempted = s.files;
  s.transactions = commits;

  std::vector<std::uint64_t> cells(t.meter.begin(), t.meter.end());
  s.check.num("files", s.files)
      .num("users", users)
      .num("update_bytes", update_bytes)
      .num("sync_traffic", traffic)
      .num("commits", commits)
      .raw("service_traffic", num_list(service_traffic))
      .raw("meter_up_down_by_category", num_list(cells));
  return s;
}

// --- server workload --------------------------------------------------------

sample run_server(const options& o) {
  sample s;
  const unsigned threads = o.threads == 0 ? host_threads() : o.threads;
  const std::uint64_t t0 = perfbench::now_ns();
  workload_params wp;
  wp.seed = o.seed;
  wp.user_population = 1'000'000;
  wp.sessions = o.reduced ? 4'000 : 50'000;
  wp.files_per_session = 4;
  wp.mean_file_bytes = 4 * 1024;
  wp.identity_pool = 512;
  wp.p_pool_identity = 0.6;
  wp.p_repeat_in_session = 0.1;
  const std::vector<session_workload> work = make_session_workloads(wp);
  server_config scfg;
  scfg.shards = threads;
  sync_server srv(scfg);
  s.setup_s = seconds_since(t0);

  // Closed loop: each client thread runs its next session only after the
  // previous one has committed.
  perfbench::reset();
  std::vector<session_result> results(work.size());
  std::atomic<std::size_t> next{0};
  const std::uint64_t t1 = perfbench::now_ns();
  {
    std::vector<std::jthread> clients;
    for (unsigned i = 0; i < threads; ++i) {
      clients.emplace_back([&] {
        for (std::size_t k = next++; k < work.size(); k = next++) {
          results[k] = run_session(srv, work[k]);
        }
      });
    }
  }
  s.timed_s = seconds_since(t1);
  s.active_threads = threads;

  std::uint64_t uploads = 0, dedup_hits = 0, update_bytes = 0, traffic = 0;
  std::array<std::uint64_t, kSessionStateCount> state_ns{};
  for (const session_result& r : results) {
    s.latencies_ns.push_back(r.latency_ns);
    s.files += r.files;
    s.failed += r.failed ? 1 : 0;
    uploads += r.files_uploaded;
    dedup_hits += r.dedup_hits;
    update_bytes += r.update_bytes;
    traffic += r.meter.total();
    for (std::size_t i = 0; i < kSessionStateCount; ++i) {
      state_ns[i] += r.timings.ns[i];
    }
  }
  s.attempted = results.size();
  s.transactions = results.size();
  if (s.files != std::uint64_t{wp.files_per_session} * results.size()) {
    s.errors.push_back("sessions synced fewer files than they carried");
  }

  char identity[32];
  std::snprintf(identity, sizeof identity, "%016llx",
                static_cast<unsigned long long>(results_identity_hash(results)));
  s.check.str("results_identity_hash", identity)
      .num("sessions", static_cast<std::uint64_t>(results.size()))
      .num("files", s.files)
      .num("uploads", uploads)
      .num("dedup_hits", dedup_hits)
      .num("update_bytes", update_bytes)
      .num("sync_traffic", traffic);

  const shard_stats agg = srv.stats().aggregate();
  const auto per_session = [&](session_state st) {
    return ratio(state_ns[static_cast<std::size_t>(st)], results.size());
  };
  s.server.num("server.diff_ns", per_session(session_state::computing_diff))
      .num("server.transfer_ns", per_session(session_state::transferring))
      .num("server.apply_ns", per_session(session_state::applying))
      .num("server.admission_wait_ns", agg.admission_wait_ns)
      .num("server.lock_busy_ns", agg.busy_ns)
      .num("server.lock_contention_ratio",
           ratio(agg.lock_contentions, agg.lock_acquisitions))
      .num("server.dedup_hit_ratio", ratio(agg.dedup_hits, agg.dedup_probes));
  return s;
}

// ---------------------------------------------------------------------------

void add_memo(json_obj& j, const std::string& name,
              const content_cache_stats& st) {
  j.num("memo." + name + ".hits", st.hits)
      .num("memo." + name + ".misses", st.misses)
      .num("memo." + name + ".hit_ratio", st.hit_rate());
}

std::vector<content_cache_stats> public_memo_stats() {
  return {content_cache::global().stats(), global_fingerprint_cache().stats(),
          signature_memo_stats(), delta_memo_stats(),
          generation_memo_stats()};
}

std::uint64_t percentile_ns(std::vector<std::uint64_t> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(v.size())));
  return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

bool parse(int argc, char** argv, options& o) {
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const bool has_value = i + 1 < argc;
    if (a == "--workload" && has_value) {
      o.workload = argv[++i];
    } else if (a == "--seed" && has_value) {
      o.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (a == "--threads" && has_value) {
      o.threads = static_cast<unsigned>(std::strtoul(argv[++i], nullptr, 10));
    } else if (a == "--reduced") {
      o.reduced = true;
    } else {
      return false;
    }
  }
  return o.workload == "fleet_replay" || o.workload == "fleet_small_files" ||
         o.workload == "server_sessions";
}

}  // namespace

int main(int argc, char** argv) {
  options o;
  if (!parse(argc, argv, o)) {
    std::fprintf(stderr,
                 "usage: %s --workload fleet_replay|fleet_small_files|"
                 "server_sessions --seed N [--threads N] [--reduced]\n",
                 argv[0]);
    return 2;
  }

  // Proof of a fresh process: nothing has touched the process-wide memos or
  // the content store yet.
  std::uint64_t warm = content_store::global().stats().chunks;
  for (const content_cache_stats& st : public_memo_stats()) {
    warm += st.hits + st.misses;
  }

  sample s = o.workload == "server_sessions" ? run_server(o) : run_fleet(o);

  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);

  json_obj layers;
#ifdef PERFBENCH_TRACED
  const perfbench::totals t = perfbench::snapshot();
  for (std::size_t l = 0; l < perfbench::kLayers; ++l) {
    const std::string name = perfbench::layer_name(static_cast<perfbench::layer>(l));
    const perfbench::layer_totals& lt = t.layers[l];
    layers.num(name + ".inclusive_ns", lt.inclusive_ns)
        .num(name + ".self_ns", lt.self_ns)
        .num(name + ".calls", lt.calls)
        .num(name + ".bytes", lt.bytes);
  }
  // Host time of the timed phase that no span covers, summed over the
  // threads doing the work.
  const double thread_ns = s.timed_s * 1e9 * s.active_threads;
  layers.num("core.replay.self_ns",
             std::max(0.0, thread_ns - static_cast<double>(t.top_level_ns)));
  std::string edges = "{";
  for (std::size_t c = 0; c < perfbench::kLayers; ++c) {
    for (std::size_t p = 0; p <= perfbench::kLayers; ++p) {
      if (t.edge_ns[c][p] == 0) continue;
      edges += std::string(edges.size() > 1 ? "," : "") + "\"" +
               (p == perfbench::kLayers
                    ? "root"
                    : perfbench::layer_name(static_cast<perfbench::layer>(p))) +
               ">" + perfbench::layer_name(static_cast<perfbench::layer>(c)) +
               "\":" + std::to_string(t.edge_ns[c][p]);
    }
  }
  edges += "}";
#endif

  const content_store::stats_snapshot store = content_store::global().stats();
  const std::vector<content_cache_stats> memos = public_memo_stats();
  layers.num("store.peak_live_bytes", store.peak_live_bytes)
      .num("store.intern_hit_ratio",
           ratio(store.intern_hits, store.intern_hits + store.intern_misses));
  add_memo(layers, "shipped_size", memos[0]);
  add_memo(layers, "fingerprint", memos[1]);
  add_memo(layers, "signature", memos[2]);
  add_memo(layers, "delta", memos[3]);
  add_memo(layers, "generation", memos[4]);

  json_obj host;
  host.num("nproc", static_cast<std::uint64_t>(host_threads()))
#ifdef __clang__
      .str("compiler", "clang " __clang_version__)
#else
      .str("compiler", "gcc " __VERSION__)
#endif
      .str("build_type", PERFBENCH_BUILD_TYPE);

  std::string errors = "[";
  for (std::size_t i = 0; i < s.errors.size(); ++i) {
    errors += (i ? "," : "") + json_obj::quote(s.errors[i]);
  }
  errors += "]";

  json_obj out;
  out.str("workload", o.workload)
      .num("seed", o.seed)
      .num("threads", static_cast<std::uint64_t>(s.active_threads))
      .num("pid", static_cast<std::uint64_t>(getpid()))
#ifdef PERFBENCH_TRACED
      .boolean("traced", true)
      .raw("span_edges_ns", edges)
#else
      .boolean("traced", false)
#endif
      .raw("host", host.str())
      .num("memo_warm_at_start", warm)
      .num("setup_s", s.setup_s)
      .num("timed_s", s.timed_s)
      .num("peak_rss_mb", static_cast<double>(ru.ru_maxrss) / 1024.0)
      .num("attempted", s.attempted)
      .num("failed", s.failed)
      .num("files", s.files)
      .num("transactions", s.transactions)
      .num("latency_p50_ns", percentile_ns(s.latencies_ns, 0.50))
      .num("latency_p99_ns", percentile_ns(s.latencies_ns, 0.99))
      .num("latency_samples", static_cast<std::uint64_t>(s.latencies_ns.size()))
      .raw("check", s.check.str())
      .raw("errors", errors)
      .raw("layers", layers.str())
      .raw("server", s.server.str());
  std::printf("%s\n", out.str().c_str());
  // The sample is over: skip tearing down the simulated world (hundreds of
  // MB of content and server state) and let the OS reclaim it.
  std::fflush(stdout);
  std::_Exit(0);
}
