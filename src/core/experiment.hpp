// Experiment harness: wires clock + filesystems + cloud + sync clients into
// one controllable environment, and packages the paper's Experiments 1-7 as
// reusable measurement routines for the bench binaries and tests.
#pragma once

#include <deque>
#include <memory>
#include <string>
#include <vector>

#include "client/sync_engine.hpp"
#include "core/invariants.hpp"
#include "core/tue.hpp"
#include "fs/file_ops.hpp"
#include "net/fault_injector.hpp"
#include "util/rng.hpp"

namespace cloudsync {

struct experiment_config {
  service_profile profile;
  access_method method = access_method::pc_client;
  link_config link = link_config::minnesota();
  hardware_profile hardware = hardware_profile::m1();
  std::uint64_t seed = 1234;
  /// Use the Cumulus-style chunk-store cloud substrate (§4.3 footnote)
  /// instead of whole-file objects behind the GET+PUT+DELETE mid-layer.
  bool use_chunk_store = false;
  /// Deterministic failure schedule (default: disabled — the injector is
  /// wired but inert, so fault-free runs are byte-identical to older builds).
  fault_plan faults{};
  /// How clients retry transient faults (ignored while `faults` is disabled).
  retry_policy retry{};
  /// Give every station a durable write-ahead journal: sync transactions are
  /// journaled, uploads ship through resumable sessions, and settle()
  /// becomes crash-aware (an injected client_crash destroys the station's
  /// client and restarts it after `restart_delay`, running the recovery
  /// pass). Required for fault_plan::crash_prob to have any effect. Off by
  /// default — journal-less runs are byte-identical to older builds.
  bool journal = false;
  recovery_options recovery{};
  sim_time restart_delay = sim_time::from_sec(5);
  /// Parallel transfer scheduler for every station's client (see
  /// net/transfer_scheduler.hpp). Disabled by default; enabled on a clean
  /// link it is byte-invisible (the controller never escalates).
  transfer_policy transfer{};
  /// Per-update protocol selection for every station's client (see
  /// client/protocol_cost.hpp). Default service_default mode is the
  /// historical branching — byte-identical to the pre-registry engine.
  protocol_options protocol{};
  /// Give every station a client block-cache tier (cache/block_cache.hpp):
  /// the bounded local replica of a limited-disk client, with eviction,
  /// pinning, miss-driven re-hydration, and write-through/write-back dirty
  /// flushing. Station-durable like the journal — residency and dirty
  /// blocks survive client crashes. Off by default; uncapped write-through
  /// is byte-identical to the cacheless engine.
  bool cache_tier = false;
  cache_config cache{};
};

/// One client machine attached to the environment: its own sync folder and
/// sync client, belonging to a user account. The folder, journal, and device
/// registration are the station's durable state — they survive client
/// crashes; the sync_client is the process, rebuilt by the harness after
/// each injected crash.
struct station {
  user_id user;
  memfs fs;
  sync_journal journal;              ///< used when config.journal is set
  std::unique_ptr<block_cache> cache;  ///< used when config.cache_tier is set
  std::unique_ptr<sync_client> client;
  device_id device = 0;              ///< stable across incarnations
  std::vector<traffic_meter> retired_meters;  ///< one per dead incarnation
  client_counters retired_counters;  ///< summed over dead incarnations
  std::uint64_t crashes = 0;

  /// Sum of every incarnation's traffic, dead and alive.
  traffic_meter aggregate_meter() const;
  /// Sum of every incarnation's counters, dead and alive.
  client_counters aggregate_counters() const;
};

class experiment_env {
 public:
  explicit experiment_env(experiment_config cfg);

  experiment_env(const experiment_env&) = delete;
  experiment_env& operator=(const experiment_env&) = delete;

  /// The primary station (user 0), created by the constructor.
  station& primary() { return *stations_.front(); }

  /// Attach another machine (e.g. a second user account for cross-user
  /// dedup probing, or a second device of the same user).
  station& add_station(user_id user);

  /// Run the event loop until every pending sync completed, and make the
  /// clock at least reach every station's busy-until point. With journaling
  /// on, injected client crashes are caught here: the dead incarnation's
  /// meter is retired, its client destroyed, and a restart + recovery pass
  /// scheduled restart_delay later — then settling continues until true
  /// quiescence (recovery itself may crash again; fault_plan::max_crashes
  /// bounds the cascade).
  void settle();

  /// Bytes of sync traffic a station accumulated since `snap`.
  static std::uint64_t traffic_since(const station& st,
                                     const traffic_meter::snapshot& snap) {
    return st.client->meter().total_since(snap);
  }

  sim_clock& clock() { return clock_; }
  cloud& the_cloud() { return cloud_; }
  const cloud& the_cloud() const { return cloud_; }
  rng& random() { return rng_; }
  const experiment_config& config() const { return cfg_; }
  /// The environment's fault injector (inert while cfg.faults is disabled
  /// and no count-based faults are armed). One injector serves the whole env
  /// (clock, cloud, and every station are single-threaded within an env, so
  /// its RNG draws are well-ordered).
  fault_injector& faults() { return *faults_; }

  /// Synthetic content generation, memoized process-wide (experiment grids
  /// replay the same seeds across services, so generation itself is a hot
  /// path). Bit-identical to make_compressed_file / make_text_file, rng
  /// state included.
  byte_buffer gen_compressed(std::size_t z) {
    return make_compressed_file_cached(rng_, z);
  }
  byte_buffer gen_text(std::size_t x) { return make_text_file_cached(rng_, x); }

 private:
  /// Retire the crashed incarnation and schedule its restart + recovery.
  void handle_crash(const client_crash& crash);
  /// (Re)build a station's sync_client — same device id, same journal.
  void build_client(station& st);

  experiment_config cfg_;
  sim_clock clock_;
  cloud cloud_;
  rng rng_;
  std::unique_ptr<fault_injector> faults_;
  std::deque<std::unique_ptr<station>> stations_;
};

// ---------------------------------------------------------------------------
// Packaged measurements (one per paper experiment).
// ---------------------------------------------------------------------------

/// Experiment 1: create one highly-compressed (incompressible) file of
/// `z` bytes and return the total sync traffic.
std::uint64_t measure_creation_traffic(const experiment_config& cfg,
                                       std::uint64_t z);

/// Experiment 1': move `n` distinct compressed files of `each` bytes into
/// the sync folder at once; returns total traffic (Table 7).
std::uint64_t measure_batch_creation_traffic(const experiment_config& cfg,
                                             std::size_t n,
                                             std::uint64_t each);

/// Experiment 2: create a file of `z` bytes, let it sync, delete it; returns
/// the traffic of the deletion alone.
std::uint64_t measure_deletion_traffic(const experiment_config& cfg,
                                       std::uint64_t z);

/// Experiment 3: create + sync a `z`-byte compressed file, then modify one
/// random byte; returns the traffic of syncing the modification alone.
std::uint64_t measure_modification_traffic(const experiment_config& cfg,
                                           std::uint64_t z);

/// Experiment 4 upload half: create an `x`-byte random-English text file;
/// returns the upload sync traffic.
std::uint64_t measure_text_upload_traffic(const experiment_config& cfg,
                                          std::uint64_t x);

/// Experiment 4 download half: returns the traffic of downloading the same
/// text file from the cloud.
std::uint64_t measure_text_download_traffic(const experiment_config& cfg,
                                            std::uint64_t x);

/// What a packaged experiment did on the wire and in sim time: the part of
/// experiment_result that any two runs of equivalent configs must share.
/// Legs that compare configs whose observability legitimately differs
/// (scheduler off vs adaptive on a clean link, cacheless vs an uncapped
/// cache) compare this part; legs that repeat one config compare the whole
/// result.
struct experiment_identity {
  /// Every incarnation's traffic over the measured window.
  traffic_meter meter;
  /// Every incarnation's counters over the measured window.
  client_counters counters;
  std::uint64_t data_update_bytes = 0;
  double completion_sec = 0;  ///< measured window start → station idle
  std::uint64_t crashes = 0;
  std::uint64_t faults_injected = 0;  ///< over all fault domains
  std::uint64_t journal_begun = 0;
  std::uint64_t journal_committed = 0;
  std::uint64_t journal_aborted = 0;
  /// The invariant suite's verdict (create-then-modify workload only).
  invariant_report invariants;
  /// One sync delay per transaction (transfer workload only), in order.
  std::vector<double> delay_samples_sec;

  std::uint64_t total_traffic() const { return meter.total(); }
  double tue() const {
    return cloudsync::tue(total_traffic(), data_update_bytes);
  }

  bool operator==(const experiment_identity&) const = default;
};

/// The one result of every packaged experiment: the identity part plus what
/// each subsystem observed. The scheduler and cache fields read zero while
/// cfg.transfer and cfg.cache_tier are off; the selector counts picks in
/// every cfg.protocol mode.
struct experiment_result : experiment_identity {
  transfer_stats sched;  ///< the live client's parallel transfer scheduler
  std::vector<connection_stats> per_connection;
  protocol_selector_stats selector;  ///< the live client's protocol picks
  block_cache_stats cache;
  std::uint64_t resident_blocks = 0;  ///< end-of-run cache gauges
  std::uint64_t resident_bytes = 0;
  std::uint64_t pinned_paths = 0;
  std::uint64_t tracked_paths = 0;

  const experiment_identity& identity() const { return *this; }

  bool operator==(const experiment_result&) const = default;
};

/// The invariant suite over a quiescent station: convergence and meter
/// conservation always; journal quiescence and no duplicate commit when the
/// env journals (those two read the journal). See core/invariants.hpp.
invariant_report check_invariants(const experiment_env& env,
                                  const station& st);

/// Experiment 6/7: the "X KB / X sec" appending experiment. Creates an
/// empty file and lets it sync, then appends `append_kb` random KB every
/// `period_sec` until `total_bytes` have been appended, and settles. Traffic
/// and counters are measured from after the empty file synced.
experiment_result run_append_experiment(const experiment_config& cfg,
                                        double append_kb, double period_sec,
                                        std::uint64_t total_bytes);

/// Robustness experiment: create `files` distinct compressed files (spaced
/// so each syncs as its own commit), then flip one random byte in each —
/// the full-upload and delta-sync paths under the config's fault plan.
/// With cfg.journal the uploads ship through resumable sessions and the
/// plan's crashes are armed: clients die at kill sites, restart, and
/// recover. Every incarnation's traffic counts. After quiescence the
/// invariant suite runs; a violation is a bug, not a measurement.
experiment_result run_create_modify_experiment(const experiment_config& cfg,
                                               std::size_t files,
                                               std::uint64_t file_bytes);

/// Tail-delay experiment for the parallel transfer scheduler: `files`
/// incompressible files are created and then fully rewritten, one
/// transaction at a time (each settled before the next starts), with
/// journaling forced on so every upload ships through a resumable session in
/// recovery.chunk_bytes ranges. Each transaction's sync delay (event → all
/// idle) becomes one sample of the delay distribution — the p99 of these is
/// what FEC striping and hedging buy — and the traffic meters split the cost
/// into payload, retry (reactive) and redundancy (proactive) bytes.
experiment_result run_transfer_experiment(const experiment_config& cfg,
                                          std::size_t files,
                                          std::uint64_t file_bytes);

/// Protocol-selection experiment (bench/protocol_selector_report): one
/// deterministic trace workload replayed under cfg.protocol's selection
/// mode, every transaction settled alone so the selector's calibration state
/// evolves identically at any grid thread count. The three workloads span
/// the regimes where each built-in protocol wins:
///   small_edits     — text files, then rounds of one-byte in-place edits
///                     (delta sync's home turf);
///   fresh_rewrites  — incompressible files fully rewritten with new content
///                     (nothing to delta or dedup: full-file wins);
///   duplicate_copy  — distinct files, then byte-identical copies under new
///                     paths (whole-file dedup hits; CDC wins).
enum class protocol_workload : std::uint8_t {
  small_edits,
  fresh_rewrites,
  duplicate_copy,
};
const char* to_string(protocol_workload wl);

experiment_result run_protocol_experiment(const experiment_config& cfg,
                                          protocol_workload wl,
                                          std::size_t files,
                                          std::uint64_t file_bytes);

/// Limited-disk cache-tier experiment (bench/cache_tier_report): one
/// deterministic workload driven through a station whose client has a
/// block cache (cfg.cache_tier/cfg.cache — or none, for the cacheless
/// identity baseline). The three workloads span the cache's regimes:
///   looping_scan  — distinct files synced once, then rounds of repeated
///                   hot-set reads interleaved with full scans through
///                   read_file(): the classic access pattern where ARC's
///                   frequency list protects the hot set from scan churn;
///   frequent_mods — text files, then bursts of small in-place edits per
///                   file (paper §frequent mods): the workload where
///                   write-back coalescing beats write-through TUE;
///   cold_start    — files synced, every clean block dropped (a purged
///                   device cache), then everything read back: all misses,
///                   pure re-hydration traffic.
enum class cache_workload : std::uint8_t {
  looping_scan,
  frequent_mods,
  cold_start,
};
const char* to_string(cache_workload wl);

/// `pin_first` pins the first N file paths after the creation phase —
/// eviction must route around them (tools/cache_stats --pin).
experiment_result run_cache_experiment(const experiment_config& cfg,
                                       cache_workload wl, std::size_t files,
                                       std::uint64_t file_bytes,
                                       std::size_t pin_first = 0);

}  // namespace cloudsync
