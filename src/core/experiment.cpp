#include "core/experiment.hpp"

#include <functional>
#include <stdexcept>

namespace cloudsync {

namespace {
cloud_config cloud_config_for(const experiment_config& cfg) {
  cloud_config cc;
  cc.dedup = cfg.profile.dedup;
  cc.use_chunk_store = cfg.use_chunk_store;
  cc.chunk_store_chunk_size = cfg.profile.delta_chunk_size;
  return cc;
}
}  // namespace

experiment_env::experiment_env(experiment_config cfg)
    : cfg_(std::move(cfg)), cloud_(cloud_config_for(cfg_)), rng_(cfg_.seed) {
  // Seeded from the experiment seed so the same config replays the same
  // failure schedule. Always constructed and wired: with a disabled plan the
  // injector is structurally inert (no RNG draws, no thrown faults), so
  // fault-free runs stay byte-identical — and tests can arm count-based
  // faults mid-run through faults().
  faults_ = std::make_unique<fault_injector>(cfg_.faults, cfg_.seed);
  cloud_.set_fault_injector(faults_.get());
  add_station(0);
}

traffic_meter station::aggregate_meter() const {
  traffic_meter sum;
  for (const traffic_meter& m : retired_meters) sum.add(m);
  if (client) sum.add(client->meter());
  return sum;
}

client_counters station::aggregate_counters() const {
  client_counters sum = retired_counters;
  if (client) sum += client->counters();
  return sum;
}

station& experiment_env::add_station(user_id user) {
  auto st = std::make_unique<station>();
  st->user = user;
  stations_.push_back(std::move(st));
  build_client(*stations_.back());
  return *stations_.back();
}

void experiment_env::build_client(station& st) {
  sync_options opts;
  opts.profile = cfg_.profile;
  opts.method = cfg_.method;
  opts.hardware = cfg_.hardware;
  opts.link = cfg_.link;
  opts.faults = faults_.get();
  opts.retry = cfg_.retry;
  opts.transfer = cfg_.transfer;
  opts.protocol = cfg_.protocol;
  if (cfg_.journal) {
    opts.journal = &st.journal;
    opts.recovery = cfg_.recovery;
  }
  if (cfg_.cache_tier) {
    // Station-durable like the journal: built once, survives incarnations.
    if (st.cache == nullptr) {
      st.cache = std::make_unique<block_cache>(cfg_.cache);
    }
    opts.cache_tier = st.cache.get();
  }
  opts.reuse_device = st.device;  // 0 on first build = register fresh
  st.client = std::make_unique<sync_client>(clock_, st.fs, cloud_, st.user,
                                            std::move(opts));
  st.device = st.client->device();
}

void experiment_env::handle_crash(const client_crash& crash) {
  for (const auto& stp : stations_) {
    station& st = *stp;
    if (st.client == nullptr || st.client->device() != crash.device()) {
      continue;
    }
    ++st.crashes;
    // Retire the dead incarnation: its traffic stays on the books (the
    // invariant checker proves conservation), its counters accumulate, its
    // in-memory sync state dies with it. The journal and filesystem are the
    // station's durable state and survive untouched.
    st.retired_meters.push_back(st.client->meter());
    st.retired_counters += st.client->counters();
    st.client.reset();  // cancels its clock events, detaches its watcher
    station* stptr = &st;
    clock_.schedule_at(clock_.now() + cfg_.restart_delay, [this, stptr] {
      build_client(*stptr);
      stptr->client->recover();
    });
    return;
  }
  throw std::logic_error("experiment_env: crash from unknown device");
}

void experiment_env::settle() {
  // Commits can reschedule themselves while transfers drain, so alternate
  // between running the queue and advancing past busy periods.
  for (int guard = 0; guard < 1000; ++guard) {
    try {
      clock_.run_all();
    } catch (const client_crash& crash) {
      // The kill unwound through the event that was running (sim_clock pops
      // before invoking, so the queue stays consistent); restart the station
      // and keep settling.
      handle_crash(crash);
      continue;
    }
    sim_time latest = clock_.now();
    bool pending = false;
    for (const auto& st : stations_) {
      if (st->client == nullptr) continue;  // restart event is in the queue
      latest = std::max(latest, st->client->busy_until());
      pending = pending || st->client->has_pending();
    }
    clock_.advance_to(latest);
    if (!pending && clock_.pending() == 0) return;
  }
}

namespace {

/// Create a file and settle; returns the traffic of that creation.
std::uint64_t create_and_sync(experiment_env& env, const std::string& path,
                              byte_buffer content) {
  station& st = env.primary();
  const auto snap = st.client->meter().snap();
  st.fs.create(path, std::move(content), env.clock().now());
  env.settle();
  return experiment_env::traffic_since(st, snap);
}

}  // namespace

std::uint64_t measure_creation_traffic(const experiment_config& cfg,
                                       std::uint64_t z) {
  experiment_env env(cfg);
  return create_and_sync(env, "exp1/file.bin",
                         env.gen_compressed(z));
}

std::uint64_t measure_batch_creation_traffic(const experiment_config& cfg,
                                             std::size_t n,
                                             std::uint64_t each) {
  experiment_env env(cfg);
  station& st = env.primary();
  const auto snap = st.client->meter().snap();
  // "Move all of them into the sync folder in a batch": all created at the
  // same instant, like a folder move.
  for (std::size_t i = 0; i < n; ++i) {
    st.fs.create("exp1b/f" + std::to_string(i),
                 env.gen_compressed(each),
                 env.clock().now());
  }
  env.settle();
  return experiment_env::traffic_since(st, snap);
}

std::uint64_t measure_deletion_traffic(const experiment_config& cfg,
                                       std::uint64_t z) {
  experiment_env env(cfg);
  station& st = env.primary();
  create_and_sync(env, "exp2/file.bin", env.gen_compressed(z));
  const auto snap = st.client->meter().snap();
  st.fs.remove("exp2/file.bin", env.clock().now());
  env.settle();
  return experiment_env::traffic_since(st, snap);
}

std::uint64_t measure_modification_traffic(const experiment_config& cfg,
                                           std::uint64_t z) {
  experiment_env env(cfg);
  station& st = env.primary();
  create_and_sync(env, "exp3/file.bin", env.gen_compressed(z));
  const auto snap = st.client->meter().snap();
  modify_random_byte(st.fs, "exp3/file.bin", env.random(), env.clock().now());
  env.settle();
  return experiment_env::traffic_since(st, snap);
}

std::uint64_t measure_text_upload_traffic(const experiment_config& cfg,
                                          std::uint64_t x) {
  experiment_env env(cfg);
  return create_and_sync(env, "exp4/text.txt",
                         env.gen_text(x));
}

std::uint64_t measure_text_download_traffic(const experiment_config& cfg,
                                            std::uint64_t x) {
  experiment_env env(cfg);
  station& st = env.primary();
  create_and_sync(env, "exp4/text.txt", env.gen_text(x));
  const auto snap = st.client->meter().snap();
  st.client->download("exp4/text.txt");
  env.settle();
  return experiment_env::traffic_since(st, snap);
}

namespace {

/// Where a packaged experiment's measured window opens: the station's
/// meter and counters at that instant, and the sim time.
struct window {
  traffic_meter::snapshot meter;
  client_counters counters;
  sim_time start;
};

window open_window(experiment_env& env, const station& st) {
  return {st.aggregate_meter().snap(), st.aggregate_counters(),
          env.clock().now()};
}

/// When the station is idle: the live client's busy-until point, or now
/// while a crashed incarnation's restart is still queued.
sim_time idle_at(experiment_env& env, const station& st) {
  return st.client ? st.client->busy_until() : env.clock().now();
}

/// The one collector of every packaged experiment: what the station did
/// over the window, plus each subsystem's end-of-run stats.
experiment_result collect(experiment_env& env, const station& st,
                          const window& from,
                          std::uint64_t data_update_bytes) {
  experiment_result r;
  r.meter = st.aggregate_meter().since(from.meter);
  r.counters = st.aggregate_counters();
  r.counters -= from.counters;
  r.data_update_bytes = data_update_bytes;
  r.completion_sec = (idle_at(env, st) - from.start).sec();
  r.crashes = st.crashes;
  r.faults_injected = env.faults().injected_total_all_domains();
  r.journal_begun = st.journal.begun_count();
  r.journal_committed = st.journal.committed_count();
  r.journal_aborted = st.journal.aborted_count();
  if (st.client != nullptr) {
    if (const transfer_scheduler* sched = st.client->transfer_sched()) {
      r.sched = sched->stats();
      r.per_connection = sched->per_connection();
    }
    r.selector = st.client->protocol_stats();
  }
  if (st.cache != nullptr) {
    r.cache = st.cache->stats();
    r.resident_blocks = st.cache->resident_blocks();
    r.resident_bytes = st.cache->resident_bytes();
    r.pinned_paths = st.cache->pinned_paths();
    r.tracked_paths = st.cache->tracked_paths();
  }
  return r;
}

}  // namespace

invariant_report check_invariants(const experiment_env& env,
                                  const station& st) {
  invariant_report rep;
  check_convergence(st.fs, env.the_cloud(), st.user, rep);
  if (env.config().journal) {
    check_journal_quiescent(st.journal, env.the_cloud(), rep);
    check_no_duplicate_commits(st.journal, env.the_cloud(), st.user, rep);
  }
  std::vector<const traffic_meter*> parts;
  for (const traffic_meter& m : st.retired_meters) parts.push_back(&m);
  if (st.client) parts.push_back(&st.client->meter());
  check_meter_conservation(st.aggregate_meter(), parts, rep);
  return rep;
}

experiment_result run_append_experiment(const experiment_config& cfg,
                                        double append_kb, double period_sec,
                                        std::uint64_t total_bytes) {
  experiment_env env(cfg);
  station& st = env.primary();
  const std::string path = "exp6/doc.dat";
  st.fs.create(path, byte_buffer{}, env.clock().now());
  env.settle();
  const window from = open_window(env, st);

  const auto chunk = static_cast<std::size_t>(append_kb * 1024.0);
  std::uint64_t appended = 0;
  std::size_t i = 0;
  while (appended < total_bytes) {
    const std::size_t n =
        static_cast<std::size_t>(std::min<std::uint64_t>(
            chunk, total_bytes - appended));
    const sim_time at =
        sim_time::from_sec(period_sec * static_cast<double>(i + 1));
    env.clock().schedule_at(at, [&env, &st, path, n] {
      append_random(st.fs, path, env.random(), n, env.clock().now());
    });
    appended += n;
    ++i;
  }
  env.settle();
  return collect(env, st, from, total_bytes);
}

experiment_result run_create_modify_experiment(const experiment_config& cfg,
                                               std::size_t files,
                                               std::uint64_t file_bytes) {
  experiment_env env(cfg);
  station& st = env.primary();
  const window from = open_window(env, st);

  // Phase 1: distinct creations, spaced so each syncs as its own commit
  // (full uploads). The fs events fire whether or not the client is alive
  // at that instant — a crash-downed client learns about them from the
  // recovery rescan, like a real machine rebooting after edits.
  for (std::size_t i = 0; i < files; ++i) {
    const std::string path = "fail/f" + std::to_string(i);
    const sim_time at = from.start + sim_time::from_sec(10.0 * (i + 1));
    env.clock().schedule_at(at, [&env, &st, path, file_bytes] {
      st.fs.create(path, env.gen_compressed(file_bytes), env.clock().now());
    });
  }
  env.settle();

  // Phase 2: one-byte modifications (delta sync where the service supports
  // it), again one commit per file.
  const sim_time mid = std::max(env.clock().now(), idle_at(env, st));
  for (std::size_t i = 0; i < files; ++i) {
    const std::string path = "fail/f" + std::to_string(i);
    const sim_time at = mid + sim_time::from_sec(10.0 * (i + 1));
    env.clock().schedule_at(at, [&env, &st, path] {
      modify_random_byte(st.fs, path, env.random(), env.clock().now());
    });
  }
  env.settle();

  // Creations plus one-byte edits.
  experiment_result res = collect(env, st, from, files * file_bytes + files);
  res.invariants = check_invariants(env, st);
  return res;
}

experiment_result run_transfer_experiment(const experiment_config& cfg,
                                          std::size_t files,
                                          std::uint64_t file_bytes) {
  experiment_config jcfg = cfg;
  jcfg.journal = true;  // sessions (and thus striping) need the journal
  experiment_env env(jcfg);
  station& st = env.primary();
  const window from = open_window(env, st);

  // Each transaction runs alone: schedule the fs event, settle, take the
  // event → all-idle latency as one delay sample. Serialising transactions
  // keeps every sample attributable to exactly one transfer (requeues and
  // recovery after a give-up stay inside their transaction's sample — that
  // tail is precisely what redundancy is supposed to cut).
  std::vector<double> delays;
  const auto run_one = [&](const std::string& path) {
    const sim_time at = std::max(env.clock().now(), idle_at(env, st)) +
                        sim_time::from_sec(5);
    env.clock().schedule_at(at, [&env, &st, path, file_bytes, at] {
      if (st.fs.exists(path)) {
        st.fs.write(path, env.gen_compressed(file_bytes), at);
      } else {
        st.fs.create(path, env.gen_compressed(file_bytes), at);
      }
    });
    env.settle();
    delays.push_back(std::max(0.0, (idle_at(env, st) - at).sec()));
  };

  // Phase 1: incompressible creations — full-upload sessions split into
  // recovery.chunk_bytes ranges. Phase 2: full rewrites with fresh content
  // of the same size — the incremental path ships a payload on the order of
  // the file again, still multi-chunk.
  for (int phase = 0; phase < 2; ++phase) {
    for (std::size_t i = 0; i < files; ++i) {
      run_one("xfer/f" + std::to_string(i));
    }
  }

  experiment_result res = collect(env, st, from, 2 * files * file_bytes);
  res.delay_samples_sec = std::move(delays);
  return res;
}

const char* to_string(protocol_workload wl) {
  switch (wl) {
    case protocol_workload::small_edits: return "small_edits";
    case protocol_workload::fresh_rewrites: return "fresh_rewrites";
    case protocol_workload::duplicate_copy: return "duplicate_copy";
  }
  return "workload?";
}

experiment_result run_protocol_experiment(const experiment_config& cfg,
                                          protocol_workload wl,
                                          std::size_t files,
                                          std::uint64_t file_bytes) {
  experiment_env env(cfg);
  station& st = env.primary();
  const window from = open_window(env, st);

  // Serialized transactions: each fs event fires once the client is idle,
  // so every commit carries exactly one update and the selector's
  // calibration state evolves in a fixed order (the env is single-threaded;
  // grid parallelism is across envs).
  const auto step =
      [&](const std::string& path,
          std::function<void(const std::string&, sim_time)> action) {
        const sim_time at =
            std::max(env.clock().now(), st.client->busy_until()) +
            sim_time::from_sec(5);
        env.clock().schedule_at(
            at, [path, action = std::move(action), at] { action(path, at); });
        env.settle();
      };
  const auto create_with = [&](const std::string& path, byte_buffer content) {
    step(path, [&st, content = std::move(content)](const std::string& p,
                                                   sim_time at) {
      st.fs.create(p, byte_buffer(content), at);
    });
  };

  std::uint64_t data_update = 0;
  switch (wl) {
    case protocol_workload::small_edits: {
      for (std::size_t i = 0; i < files; ++i) {
        create_with("prot/t" + std::to_string(i),
                    env.gen_text(static_cast<std::size_t>(file_bytes)));
      }
      data_update += files * file_bytes;
      for (int round = 0; round < 2; ++round) {
        for (std::size_t i = 0; i < files; ++i) {
          step("prot/t" + std::to_string(i),
               [&env, &st](const std::string& p, sim_time at) {
                 modify_random_byte(st.fs, p, env.random(), at);
               });
        }
      }
      data_update += 2 * files;
      break;
    }
    case protocol_workload::fresh_rewrites: {
      for (std::size_t i = 0; i < files; ++i) {
        create_with("prot/r" + std::to_string(i),
                    env.gen_compressed(static_cast<std::size_t>(file_bytes)));
      }
      for (std::size_t i = 0; i < files; ++i) {
        step("prot/r" + std::to_string(i),
             [&env, &st, file_bytes](const std::string& p, sim_time at) {
               st.fs.write(
                   p,
                   env.gen_compressed(static_cast<std::size_t>(file_bytes)),
                   at);
             });
      }
      data_update += 2 * files * file_bytes;
      break;
    }
    case protocol_workload::duplicate_copy: {
      // Phase-ordered: every distinct file syncs before its copy appears, so
      // the dedup index (and the adaptive selector's synced-hash knowledge)
      // is warm when the duplicates arrive.
      std::vector<byte_buffer> contents;
      contents.reserve(files);
      for (std::size_t i = 0; i < files; ++i) {
        contents.push_back(
            env.gen_compressed(static_cast<std::size_t>(file_bytes)));
      }
      for (std::size_t i = 0; i < files; ++i) {
        create_with("prot/a" + std::to_string(i), byte_buffer(contents[i]));
      }
      for (std::size_t i = 0; i < files; ++i) {
        create_with("prot/b" + std::to_string(i), byte_buffer(contents[i]));
      }
      data_update += 2 * files * file_bytes;
      break;
    }
  }

  return collect(env, st, from, data_update);
}

const char* to_string(cache_workload wl) {
  switch (wl) {
    case cache_workload::looping_scan: return "looping_scan";
    case cache_workload::frequent_mods: return "frequent_mods";
    case cache_workload::cold_start: return "cold_start";
  }
  return "workload?";
}

experiment_result run_cache_experiment(const experiment_config& cfg,
                                       cache_workload wl, std::size_t files,
                                       std::uint64_t file_bytes,
                                       std::size_t pin_first) {
  experiment_env env(cfg);
  station& st = env.primary();
  const window from = open_window(env, st);

  const auto path_of = [](std::size_t i) {
    return "cache/f" + std::to_string(i);
  };

  // Serialized step, as in run_protocol_experiment: each action fires once
  // the client is idle and settles before the next, so runs are identical
  // at any grid thread count (the env itself is single-threaded).
  const auto step = [&](std::function<void(sim_time)> action) {
    const sim_time at = std::max(env.clock().now(), st.client->busy_until()) +
                        sim_time::from_sec(5);
    env.clock().schedule_at(at,
                            [action = std::move(action), at] { action(at); });
    env.settle();
  };
  const auto read_step = [&](std::size_t i) {
    step([&st, p = path_of(i)](sim_time) { (void)st.client->read_file(p); });
  };

  // Creation phase, common to all workloads.
  std::uint64_t data_update = 0;
  for (std::size_t i = 0; i < files; ++i) {
    byte_buffer content =
        wl == cache_workload::frequent_mods
            ? env.gen_text(static_cast<std::size_t>(file_bytes))
            : env.gen_compressed(static_cast<std::size_t>(file_bytes));
    step([&st, p = path_of(i), content = std::move(content)](sim_time at) {
      st.fs.create(p, byte_buffer(content), at);
    });
  }
  data_update += files * file_bytes;
  for (std::size_t i = 0; i < pin_first && i < files; ++i) {
    if (st.cache != nullptr) st.cache->pin(path_of(i));
  }

  switch (wl) {
    case cache_workload::looping_scan: {
      // Rounds of a re-referenced hot set interleaved with a full scan:
      // the scan floods recency; only a frequency-aware policy keeps the
      // hot set resident across rounds.
      constexpr int kRounds = 3;
      constexpr int kHotRepeats = 3;
      const std::size_t hot = std::max<std::size_t>(1, files / 4);
      for (int r = 0; r < kRounds; ++r) {
        for (int k = 0; k < kHotRepeats; ++k) {
          for (std::size_t i = 0; i < hot; ++i) read_step(i);
        }
        for (std::size_t i = 0; i < files; ++i) read_step(i);
      }
      break;
    }
    case cache_workload::frequent_mods: {
      // Bursts of small in-place edits, scheduled at absolute times up
      // front (one settle at the end): the write modes must see the exact
      // same event sequence for their TUE to be comparable, and per-step
      // settling would drain every write-back window before the next edit.
      constexpr int kRounds = 3;
      constexpr int kEditsPerBurst = 3;
      const double round_gap = 60.0, edit_gap = 2.0, file_gap = 0.1;
      const sim_time t0 = std::max(env.clock().now(),
                                   st.client->busy_until()) +
                          sim_time::from_sec(5);
      for (int r = 0; r < kRounds; ++r) {
        for (std::size_t i = 0; i < files; ++i) {
          for (int k = 0; k < kEditsPerBurst; ++k) {
            const sim_time at =
                t0 + sim_time::from_sec(r * round_gap +
                                        static_cast<double>(i) * file_gap +
                                        k * edit_gap);
            env.clock().schedule_at(at, [&env, &st, p = path_of(i), at] {
              modify_random_byte(st.fs, p, env.random(), at);
            });
          }
        }
      }
      env.settle();
      data_update +=
          static_cast<std::uint64_t>(kRounds) * kEditsPerBurst * files;
      break;
    }
    case cache_workload::cold_start: {
      // A purged device cache: every clean block dropped, then everything
      // read back — pure miss-driven re-hydration.
      if (st.cache != nullptr) st.cache->drop_clean_blocks();
      for (std::size_t i = 0; i < files; ++i) read_step(i);
      break;
    }
  }
  env.settle();

  return collect(env, st, from, data_update);
}

}  // namespace cloudsync
