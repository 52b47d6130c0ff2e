// The sync client: watches a local sync folder, defers/batches updates, runs
// the upload pipeline (delta sync → dedup → compression), talks to the cloud
// over the modelled network, and meters every byte.
//
// Faithful to the paper's observed mechanics:
//   §4.1/4.2/4.3 — per-event overhead, fake deletion, full-file vs IDS
//   §5.1/5.2     — compression and dedup applied per access method
//   §6.1         — defer policies (none / fixed / ASD)
//   §6.2         — a pending batch commits only when (C1) the previous
//                  commit's transfer finished and (C2) metadata computation
//                  caught up; poor networks/hardware batch naturally.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>

#include <functional>

#include "cache/block_cache.hpp"
#include "chunking/rsync.hpp"
#include "client/access_method.hpp"
#include "client/defer_policy.hpp"
#include "client/hardware.hpp"
#include "client/protocol_cost.hpp"
#include "client/service_profile.hpp"
#include "client/sync_journal.hpp"
#include "client/sync_protocol.hpp"
#include "fs/memfs.hpp"
#include "net/fault_injector.hpp"
#include "net/http_model.hpp"
#include "net/link.hpp"
#include "net/sim_clock.hpp"
#include "net/tcp_model.hpp"
#include "net/traffic_meter.hpp"
#include "net/transfer_scheduler.hpp"
#include "storage/cloud.hpp"
#include "util/stats.hpp"

namespace cloudsync {

/// How the sync engine reacts to transient faults surfaced by the network
/// and storage layers: exponential backoff with seeded jitter, a bounded
/// number of attempts per sync transaction, graceful degradation of delta
/// sync to full-file sync, and a cool-down before a failed batch is retried.
/// All randomness (the jitter) comes from the environment's fault_injector,
/// so retry schedules are reproducible bit-for-bit.
struct retry_policy {
  int max_attempts = 6;  ///< per sync transaction before giving up/requeueing
  sim_time base_backoff = sim_time::from_msec(500);
  double backoff_multiplier = 2.0;
  sim_time max_backoff = sim_time::from_sec(30);
  double jitter = 0.2;  ///< ± fraction of the delay, drawn from the injector
  /// After this many rejected delta (IDS) commits within one transaction,
  /// fall back to a full-file upload for the path (which needs no server-side
  /// patch machinery and succeeds whenever a plain PUT does).
  int delta_fallback_after = 2;
  /// A batch whose transaction gave up re-enters the dirty set and is
  /// retried this much later.
  sim_time requeue_cooldown = sim_time::from_sec(45);
};

/// Wire-payload size of `content` under compression `level`, including the
/// real-client fast path that skips the compressor for incompressible data.
/// This is the flat reference the two streaming sizers below are tested
/// against; planning itself only calls those.
std::uint64_t wire_payload_size(byte_view content, int level);

/// wire_payload_size over a rope: walks the rope's segments through
/// the sampled compressibility probe and the exact stream sizer, returning
/// the identical value without ever flattening the content. This is what
/// lets multi-GB uploads be priced in O(MB) working memory.
std::uint64_t wire_payload_size_ref(const content_ref& content, int level);
/// The same, priced from `base` (may be null), the whole-file pricing of an
/// earlier version (lzss_stream_sizer::reuse uses it only at its level), and
/// storing this pricing's summary in `*summary` when it is not null (null
/// when the probe or a stored frame priced it). Always exactly
/// wire_payload_size of the flat bytes.
std::uint64_t wire_payload_size_ref(
    const content_ref& content, int level, const priced_version* base,
    std::shared_ptr<const lzss_summary>* summary);

/// Same, over a delta's exact serialized wire bytes (walk_delta_wire) —
/// byte-identical to wire_payload_size(serialize_delta(delta), level)
/// without materializing the wire buffer.
std::uint64_t wire_payload_size_delta(const file_delta& delta, int level);

struct sync_options {
  service_profile profile;
  access_method method = access_method::pc_client;
  hardware_profile hardware = hardware_profile::m1();
  link_config link = link_config::minnesota();
  tcp_config tcp{};
  http_config http{400, 250};
  /// Start with an established (already-handshaken) connection, as a running
  /// client app would have; the warm-up bytes are not metered.
  bool warm_connection = true;
  /// Fault injector shared with the network/storage layers (non-owning;
  /// nullptr or a disabled plan makes the whole retry machinery inert and
  /// the client behaves byte-identically to a fault-free build).
  fault_injector* faults = nullptr;
  retry_policy retry{};
  /// Durable write-ahead journal (non-owning; survives client crashes — the
  /// experiment harness owns it like the memfs). When set, every sync
  /// transaction is journaled and uploads go through resumable server
  /// sessions in recovery.chunk_bytes ranges; crash kill sites are armed.
  /// When nullptr (the default) the client behaves byte-identically to the
  /// journal-less build — no sessions, no extra exchanges, no RNG draws.
  sync_journal* journal = nullptr;
  recovery_options recovery{};
  /// Reattach to an existing device registration instead of creating a new
  /// one (0 = register fresh). A restarted client must keep its device id so
  /// the cloud's notification queue for it survives the crash.
  device_id reuse_device = 0;
  /// Parallel transfer scheduler (net/transfer_scheduler.hpp). When enabled,
  /// journaled upload sessions with more than one chunk may be striped
  /// across K connections with FEC parity and hedged duplicates, as decided
  /// by the adaptive controller from observed faults. Disabled (default), or
  /// enabled on a clean link, the client's wire traffic is byte-identical to
  /// the serial single-connection path.
  transfer_policy transfer{};
  /// How the planning layer chooses a sync protocol per update
  /// (client/protocol_cost.hpp): the historical service-default branching,
  /// one forced protocol, or the adaptive cost-model selector.
  protocol_options protocol{};
  /// Client block-cache tier (cache/block_cache.hpp) — the bounded local
  /// replica of a limited-disk client. Non-owning; the experiment harness
  /// owns it like the journal and memfs, so residency and dirty blocks
  /// survive client crashes. When set, the engine installs every synced
  /// version into it, serves read_file() from resident blocks (re-hydrating
  /// evicted ones from the cloud under traffic_category::rehydrate), plans
  /// deltas only when the old version is fully resident (full-file fallback
  /// otherwise), and in write-back mode routes local writes through the
  /// dirty-block tracker with a coalescing flush window. When nullptr (the
  /// default), or uncapped in write-through mode, the client's wire traffic
  /// is byte-identical to the cacheless engine.
  block_cache* cache_tier = nullptr;
};

/// What one sync_client incarnation did, by event. Summable, so the crash
/// harness folds a dead incarnation into its station's total with +=.
struct client_counters {
  std::uint64_t commits = 0;
  std::uint64_t exchanges = 0;
  /// Conflicted copies created while applying remote changes.
  std::uint64_t conflicts = 0;
  /// Transient-fault attempts that were retried (any layer, any outcome).
  std::uint64_t retries = 0;
  /// Sync transactions that exhausted their attempts and were put back into
  /// the dirty set for a later commit.
  std::uint64_t requeues = 0;
  /// Delta-sync commits that degraded to a full-file upload after repeated
  /// server rejections.
  std::uint64_t fallbacks = 0;
  /// In-flight transactions continued through their upload session by
  /// recover() instead of being re-sent from scratch.
  std::uint64_t resumes = 0;
  /// Journaled transactions recovery discarded and restarted from scratch
  /// (resume disabled, session lost, or local content changed under them).
  std::uint64_t recovery_restarts = 0;
  /// Notification polls rejected by the metadata service (retried by the
  /// next poll tick).
  std::uint64_t poll_failures = 0;
  /// Downloads abandoned after exhausting their attempts.
  std::uint64_t failed_downloads = 0;

  client_counters& operator+=(const client_counters& o);
  client_counters& operator-=(const client_counters& o);
  bool operator==(const client_counters&) const = default;
};

class sync_client {
 public:
  sync_client(sim_clock& clock, memfs& fs, cloud& cl, user_id user,
              sync_options opts);

  /// Cancels every clock callback into this object, so the crash harness can
  /// destroy an incarnation mid-run without leaving dangling events.
  ~sync_client();

  sync_client(const sync_client&) = delete;
  sync_client& operator=(const sync_client&) = delete;

  traffic_meter& meter() { return meter_; }
  const traffic_meter& meter() const { return meter_; }

  /// Client-initiated full-file download (Table 8 "DN" experiments).
  void download(const std::string& path);

  /// Application read of `path`. Without a cache tier (or for a path the
  /// tier does not track) this is a plain local read — no traffic. With
  /// one, resident blocks are served locally and absent blocks are fetched
  /// from the cloud copy of the last-synced version, one ranged exchange
  /// per contiguous absent run, metered as traffic_category::rehydrate.
  /// Paths with unsynced local edits are always served from the local fs.
  content_ref read_file(const std::string& path);

  /// Fetch pending change notifications from the cloud and download every
  /// remotely changed file (the receive side of a multi-device setup).
  /// Returns the number of changes applied locally.
  std::size_t poll_remote_changes();

  /// Poll for remote changes every `interval` until `until` (bounded so the
  /// event queue always drains). Models a second device keeping itself in
  /// sync during a collaboration session.
  void enable_periodic_poll(sim_time interval, sim_time until);

  /// Time at which the client becomes fully idle (network + indexer).
  sim_time busy_until() const;

  /// Crash-recovery pass, run once when a restarted client comes up (needs
  /// sync_options::journal; a no-op without one). Reconciles open journal
  /// records against the cloud — resuming in-flight upload sessions when
  /// recovery.resume is on (paying only the un-acked chunk suffix plus a
  /// session-query round trip), discarding them otherwise — then rescans the
  /// sync folder against the cloud namespace and queues every divergent path
  /// as if its fs event had just arrived.
  void recover();

  const client_counters& counters() const { return counters_; }

  /// Sync-delay ("staleness") statistics in seconds: for each commit, how
  /// long the oldest batched update waited until it was safely in the cloud.
  /// This is the user-experience cost that bounds sync deferment (§6.1's
  /// T_max rationale: "a too large T_i will harm user experience").
  const running_stats& staleness_sec() const { return staleness_sec_; }
  std::uint64_t handshake_count() const { return conn_.handshakes(); }
  bool has_pending() const { return !dirty_.empty() || !wb_due_.empty(); }
  /// Paths with dirty cached blocks waiting out their write-back coalescing
  /// window (always 0 without a write-back cache tier).
  std::size_t write_back_pending() const { return wb_due_.size(); }
  device_id device() const { return device_; }
  const sync_options& options() const { return opts_; }

  /// Replace the link mid-run (packet-filter experiments).
  void set_link(link_config link) {
    conn_.set_link(link);
    if (xfer_ != nullptr) xfer_->set_link(link);
  }

  /// The parallel transfer scheduler, when sync_options::transfer.enabled
  /// (nullptr otherwise) — observability for tools/transfer_stats and the
  /// frontier bench.
  const transfer_scheduler* transfer_sched() const { return xfer_.get(); }

  /// The per-update protocol chooser — observability for
  /// tools/protocol_stats and the selector bench (pick counts, calibration
  /// corrections, prediction-error histogram).
  const protocol_selector& selector() const { return selector_; }
  const protocol_selector_stats& protocol_stats() const {
    return selector_.stats();
  }

 private:
  struct pending_change {
    bool remove = false;
    bool existed_in_cloud = false;  ///< at the time the change was queued
    std::uint64_t estimate = 0;     ///< this entry's share of the pending-
                                    ///< update estimate (kept incrementally)
  };

  // shadow_entry / upload_action / upload_plan now live in
  // client/sync_protocol.hpp — protocols plan with the same types the
  // engine applies.

  /// Result of one sync transaction (exchange + server-side apply, retried
  /// under the retry_policy).
  enum class txn_outcome : std::uint8_t {
    ok,            ///< applied (possibly after retries)
    gave_up,       ///< attempts exhausted; nothing applied
    apply_failed,  ///< the server kept rejecting the apply (delta fallback)
  };

  void on_fs_event(const fs_event& ev);
  std::uint64_t pending_update_estimate() const { return pending_estimate_; }
  /// Recompute one dirty entry's estimate share and fold the delta into the
  /// running total (O(log n) per fs event instead of a full dirty_ scan).
  void refresh_entry_estimate(const std::string& path, pending_change& chg);
  /// Remove `path`'s share from the running estimate (entry being dropped).
  void drop_entry_estimate(const std::string& path);
  /// The planning context handed to protocols and the cost model: this
  /// client's profile, cloud, cache, and planning/journaling mode.
  planning_env planning_environment() const;
  void schedule_commit(sim_time at);
  void try_commit();
  sim_time commit_batch(sim_time start,
                        std::map<std::string, pending_change> batch);

  /// Decide how `path`'s current content reaches the cloud: conflict check,
  /// then protocol selection (service-default / forced / adaptive per
  /// sync_options::protocol) and the chosen protocol's transfer plan. Pure
  /// planning — no cloud or shadow state changes (those happen in
  /// apply_upload once the exchange lands). `force_full` vetoes the delta
  /// path (graceful degradation).
  upload_plan plan_upload(const std::string& path, sim_time at,
                          bool force_full = false);

  /// Apply a planned upload's cloud-side state change and adopt the shipped
  /// content as the new shadow. The cloud may reject it (transient_fault) —
  /// then nothing changed and the same plan can be re-applied.
  void apply_upload(const std::string& path, const upload_plan& plan,
                    sim_time at);

  /// Wire-payload size of `content` under compression `level`
  /// (shipped_content_size with this client's planning environment).
  std::uint64_t shipped_size(const content_ref& content, int level) const;

  /// One sync transaction: run the exchange, then `apply` (server-side
  /// commit), retrying transient faults under the retry policy. Successful
  /// transactions meter their app-level categories; failed attempts meter
  /// their wasted bytes as traffic_category::retry. `apply_fail_limit` > 0
  /// bails out with txn_outcome::apply_failed after that many server
  /// rejections (delta → full-file degradation); `never_give_up` keeps
  /// retrying past max_attempts (used for the BDS batch exchange, whose
  /// server-side applies have already landed). Returns the completion (or
  /// final failure) time.
  sim_time do_exchange(sim_time at, std::uint64_t up_payload,
                       std::uint64_t up_meta, std::uint64_t down_payload,
                       std::uint64_t down_meta,
                       const std::function<void()>& apply = {},
                       int apply_fail_limit = 0, txn_outcome* outcome = nullptr,
                       bool never_give_up = false);

  /// Backoff before retry number `attempt` (1-based): exponential with
  /// seeded jitter from the fault injector, capped at max_backoff.
  sim_time backoff_delay(int attempt) const;

  /// Put a failed change back into the dirty set and schedule a commit
  /// after the cool-down.
  void requeue(const std::string& path, const pending_change& chg);

  /// Full description of one application-level exchange: what rides it in
  /// each metered category, what the server applies, and how failure is
  /// handled. The journaled upload path threads its session-control bytes
  /// (traffic_category::resume) through here so every exchange — plain,
  /// chunk, or finalize — shares one retry/metering implementation.
  struct exchange_spec {
    std::uint64_t payload_up = 0;
    std::uint64_t meta_up = 0;
    std::uint64_t resume_up = 0;
    std::uint64_t payload_down = 0;
    std::uint64_t meta_down = 0;
    std::uint64_t resume_down = 0;
    std::uint64_t rehydrate_up = 0;    ///< cache-tier ranged-fetch request
    std::uint64_t rehydrate_down = 0;  ///< re-fetched block bytes
    std::function<void()> apply;
    int apply_fail_limit = 0;
    bool never_give_up = false;
  };

  /// The retry-loop core behind do_exchange (see its contract above).
  sim_time run_exchange(sim_time at, const exchange_spec& spec,
                        txn_outcome* outcome = nullptr);

  /// Throw client_crash when the injector schedules a kill at this site.
  /// Armed only on journaled clients — a crash without a journal would lose
  /// data by design, and the harness requires journal state to recover.
  void maybe_crash(crash_site site, sim_time at);

  /// One journaled, resumable sync transaction for an upsert: journal the
  /// plan, open an upload session, ship the wire payload in
  /// recovery.chunk_bytes ranges (kill sites armed at every stage), finalize
  /// with the ordinary commit, mark the journal committed. Falls back to a
  /// fresh full-file transaction when the server keeps rejecting a delta;
  /// aborts the journal record and requeues when the retry budget runs out.
  sim_time journaled_upload(const std::string& path, const pending_change& chg,
                            sim_time t, std::uint64_t oh_up,
                            std::uint64_t oh_down, bool force_full = false);

  /// Journaled tombstone delete (no payload, no session — just the
  /// plan/commit kill sites around the delete exchange).
  sim_time journaled_remove(const std::string& path, const pending_change& chg,
                            sim_time t, std::uint64_t oh_up,
                            std::uint64_t oh_down);

  /// Ship the un-acked chunk suffix of journal txn `txn` through its upload
  /// session (mid-chunk kill site before every send).
  sim_time send_session_chunks(std::uint64_t txn, resume_token token,
                               sim_time t, txn_outcome* oc,
                               bool never_give_up = false);

  /// Finalize a fully-acked session: the commit exchange (before-commit kill
  /// site first), then journal commit + checkpoint.
  sim_time finalize_session_upload(const std::string& path,
                                   const upload_plan& plan, std::uint64_t txn,
                                   resume_token token, sim_time t,
                                   std::uint64_t oh_up, std::uint64_t oh_down,
                                   txn_outcome* oc);

  /// apply_upload through a session finalize instead of a direct commit.
  void apply_upload_session(const std::string& path, const upload_plan& plan,
                            resume_token token, sim_time at);

  /// Resume (or discard) one in-flight journal record during recover().
  sim_time recover_in_flight(const journal_record& rec, sim_time t);

  /// Post-recovery rescan: diff the sync folder against the cloud namespace,
  /// adopt in-sync paths as shadows, queue divergent ones as dirty.
  void rescan_after_recovery();

  /// Cache-tier hooks (no-ops without opts_.cache_tier): every place the
  /// shadow is adopted installs the synced version; every place it is
  /// dropped invalidates.
  void install_cache_tier(const std::string& path, const content_ref& content);
  void drop_cache_tier(const std::string& path);

  /// Write-back interception for one upsert fs event: dirty the cached
  /// blocks and arm (or join) the path's coalescing window instead of
  /// queueing it into the dirty set. Returns false when the event must
  /// follow the normal write-through path.
  bool write_back_intercept(const fs_event& ev);
  /// (Re)schedule the single flush event at the earliest pending deadline.
  void schedule_wb_flush();
  /// Move every due write-back path into the dirty set and commit.
  void flush_write_back();

  sim_clock& clock_;
  memfs& fs_;
  cloud& cloud_;
  user_id user_;
  sync_options opts_;
  traffic_meter meter_;
  tcp_connection conn_;
  /// Parallel flows + FEC + hedging for striped session uploads; non-null
  /// only when opts_.transfer.enabled. Dies with the incarnation (its
  /// observation window is in-memory client state, like the dirty set).
  std::unique_ptr<transfer_scheduler> xfer_;
  std::unique_ptr<defer_policy> defer_;
  device_id device_;
  /// Per-update protocol chooser (client/protocol_cost.hpp). Its calibration
  /// state is in-memory client knowledge (like the dirty set) and dies with
  /// the incarnation.
  protocol_selector selector_;

  std::map<std::string, pending_change> dirty_;
  std::uint64_t pending_estimate_ = 0;  ///< sum of dirty_ estimate shares
  std::map<std::string, shadow_entry> shadow_;  ///< last-synced content
  std::map<std::string, std::uint64_t> base_version_;  ///< cloud version the
                                                       ///< shadow matches
  bool has_earliest_dirty_ = false;
  sim_time earliest_dirty_{};  ///< arrival of the oldest pending update
  running_stats staleness_sec_;
  sim_time network_busy_until_{};
  sim_time index_busy_until_{};
  /// Write-back bookkeeping: path -> flush deadline (first unflushed write
  /// + coalescing window; later writes join without re-arming). In-memory
  /// client state — a crash loses the schedule but not the dirty blocks,
  /// which the recovery rescan re-queues from the durable fs/cache.
  std::map<std::string, sim_time> wb_due_;
  event_id wb_flush_event_ = 0;
  event_id commit_event_ = 0;
  event_id poll_event_ = 0;       ///< pending periodic-poll tick
  std::size_t fs_subscription_ = 0;  ///< memfs observer token
  client_counters counters_;
  bool applying_remote_ = false;  ///< suppress self-caused fs events
};

}  // namespace cloudsync
