#include "client/sync_engine.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "chunking/rsync.hpp"
#include "compress/lzss.hpp"

namespace cloudsync {

// The transfer-path machinery the engine used to hold inline — the delta
// blueprint/skeleton, the incremental-sync memos, and the per-protocol
// planning branches — now lives behind the protocol registry in
// client/sync_protocol.{hpp,cpp}.

namespace {
/// Tombstone record for a deletion (attribute update, §4.2).
constexpr std::uint64_t kDeleteRecordBytes = 300;
/// Per-file entry in a BDS delete/rename manifest.
constexpr std::uint64_t kBatchDeleteEntryBytes = 120;
/// Error status + body the server returns for a rejected request (5xx/429).
constexpr std::uint64_t kErrorResponseBytes = 512;
/// Wasted wire bytes of one rejected per-item commit inside a BDS batch.
constexpr std::uint64_t kBdsItemProbeBytes = 400;

// Resumable-session control sizes (metered as traffic_category::resume):
// session open request / token reply, per-chunk range header / ack, the
// finalize marker riding the commit exchange, and the session-status query a
// restarted client pays before resuming.
constexpr std::uint64_t kSessionBeginUpBytes = 200;
constexpr std::uint64_t kSessionBeginDownBytes = 100;
constexpr std::uint64_t kChunkControlUpBytes = 48;
constexpr std::uint64_t kChunkAckDownBytes = 32;
constexpr std::uint64_t kSessionFinalizeUpBytes = 64;
constexpr std::uint64_t kSessionFinalizeDownBytes = 32;
constexpr std::uint64_t kSessionQueryUpBytes = 72;
constexpr std::uint64_t kSessionQueryDownBytes = 96;

/// Ranged-GET request a cache miss pays to re-hydrate a run of evicted
/// blocks (metered as traffic_category::rehydrate, like the block bytes).
constexpr std::uint64_t kRehydrateRequestBytes = 96;

/// Chunk count of a `total`-byte wire payload at `chunk_bytes` granularity.
std::uint32_t chunk_count(std::uint64_t total, std::size_t chunk_bytes) {
  if (total == 0) return 0;
  return static_cast<std::uint32_t>((total + chunk_bytes - 1) / chunk_bytes);
}

/// Size of chunk `index` (the last chunk carries the remainder).
std::uint64_t chunk_size_at(std::uint64_t total, std::size_t chunk_bytes,
                            std::uint32_t index) {
  const std::uint64_t start =
      static_cast<std::uint64_t>(index) * chunk_bytes;
  return std::min<std::uint64_t>(chunk_bytes, total - start);
}

constexpr std::uint64_t client_counters::*kCounterFields[] = {
    &client_counters::commits,          &client_counters::exchanges,
    &client_counters::conflicts,        &client_counters::retries,
    &client_counters::requeues,         &client_counters::fallbacks,
    &client_counters::resumes,          &client_counters::recovery_restarts,
    &client_counters::poll_failures,    &client_counters::failed_downloads,
};
static_assert(sizeof(client_counters) ==
                  std::size(kCounterFields) * sizeof(std::uint64_t),
              "every client_counters field must be listed above");

}  // namespace

client_counters& client_counters::operator+=(const client_counters& o) {
  for (const auto field : kCounterFields) this->*field += o.*field;
  return *this;
}

client_counters& client_counters::operator-=(const client_counters& o) {
  for (const auto field : kCounterFields) this->*field -= o.*field;
  return *this;
}

sync_client::sync_client(sim_clock& clock, memfs& fs, cloud& cl, user_id user,
                         sync_options opts)
    : clock_(clock),
      fs_(fs),
      cloud_(cl),
      user_(user),
      opts_(std::move(opts)),
      conn_(opts_.link, opts_.tcp, meter_),
      defer_(opts_.profile.defer.instantiate()),
      device_(opts_.reuse_device != 0 ? opts_.reuse_device
                                      : cl.attach_device(user)),
      selector_(opts_.protocol, opts_.link) {
  if (opts_.warm_connection) {
    conn_.exchange(clock_.now(), 64, 64);
    meter_.reset();
  }
  // Attach the injector only after the unmetered warm-up exchange: client
  // start-up is outside the failure model (and constructors must not throw
  // transient faults).
  conn_.set_fault_injector(opts_.faults);
  if (opts_.transfer.enabled) {
    shard_retry_policy srp;
    srp.max_attempts = opts_.retry.max_attempts;
    srp.base_backoff = opts_.retry.base_backoff;
    srp.backoff_multiplier = opts_.retry.backoff_multiplier;
    srp.max_backoff = opts_.retry.max_backoff;
    srp.jitter = opts_.retry.jitter;
    shard_wire_costs costs;
    costs.control_up = kChunkControlUpBytes;
    costs.ack_down = kChunkAckDownBytes;
    costs.http_request_up = opts_.http.request_header_bytes;
    costs.http_response_down = opts_.http.response_header_bytes;
    xfer_ = std::make_unique<transfer_scheduler>(
        opts_.link, opts_.tcp, meter_, opts_.transfer, srp, costs,
        opts_.faults);
  }
  fs_subscription_ = fs_.subscribe([this](const fs_event& ev) {
    on_fs_event(ev);
  });
}

sync_client::~sync_client() {
  // The filesystem and clock outlive client incarnations (the crash harness
  // destroys a crashed client and builds a new one on the same memfs/clock):
  // detach everything that captures `this`.
  fs_.unsubscribe(fs_subscription_);
  if (commit_event_ != 0) clock_.cancel(commit_event_);
  if (poll_event_ != 0) clock_.cancel(poll_event_);
  if (wb_flush_event_ != 0) clock_.cancel(wb_flush_event_);
}

void sync_client::on_fs_event(const fs_event& ev) {
  // Changes this client is applying on behalf of the cloud must not loop
  // back into the upload pipeline.
  if (applying_remote_) return;
  const sim_time now = clock_.now();

  auto queue_upsert = [&](const std::string& path) {
    pending_change& chg = dirty_[path];
    chg.remove = false;
    const file_manifest* man = cloud_.manifest(user_, path);
    chg.existed_in_cloud = man != nullptr && !man->deleted;
    refresh_entry_estimate(path, chg);
  };
  auto queue_remove = [&](const std::string& path) {
    const file_manifest* man = cloud_.manifest(user_, path);
    const bool in_cloud = man != nullptr && !man->deleted;
    if (!in_cloud && !dirty_.contains(path)) return;  // never synced
    if (!in_cloud) {
      drop_entry_estimate(path);
      dirty_.erase(path);  // created and deleted within one defer window
      return;
    }
    pending_change& chg = dirty_[path];
    chg.remove = true;
    chg.existed_in_cloud = true;
    refresh_entry_estimate(path, chg);
  };

  bool intercepted = false;
  switch (ev.op) {
    case fs_event::kind::created:
    case fs_event::kind::modified:
      // Write-back cache tier: dirty the cached blocks and wait out the
      // coalescing window instead of entering the dirty set now.
      intercepted = write_back_intercept(ev);
      if (!intercepted) queue_upsert(ev.path);
      break;
    case fs_event::kind::removed:
      // A pending write-back for a deleted path is moot: its dirty blocks
      // die with the file (the tombstone still syncs below).
      wb_due_.erase(ev.path);
      queue_remove(ev.path);
      break;
    case fs_event::kind::renamed:
      // Renames bypass the coalescing window: the remove half must sync,
      // so the new path syncs with it rather than trailing a window behind.
      wb_due_.erase(ev.old_path);
      wb_due_.erase(ev.path);
      queue_remove(ev.old_path);
      queue_upsert(ev.path);
      break;
  }

  // Condition 2 (§6.2): metadata computation queues up on the client.
  const sim_time start = std::max(index_busy_until_, now);
  index_busy_until_ = start + opts_.hardware.index_time(ev.size_after);

  if (dirty_.empty() && wb_due_.empty()) return;
  if (!has_earliest_dirty_) {
    // Write-back paths arm the staleness anchor too: their wait includes
    // the coalescing window.
    has_earliest_dirty_ = true;
    earliest_dirty_ = now;
  }
  if (!dirty_.empty()) {
    schedule_commit(defer_->next_fire(now, pending_update_estimate()));
  }
}

bool sync_client::write_back_intercept(const fs_event& ev) {
  block_cache* bc = opts_.cache_tier;
  if (bc == nullptr || bc->config().write_mode != cache_write_mode::write_back) {
    return false;
  }
  bc->note_local_write(ev.path, fs_.read(ev.path));
  // First unflushed write arms the deadline; later writes coalesce into it.
  if (!wb_due_.contains(ev.path)) {
    wb_due_[ev.path] = clock_.now() + bc->config().coalesce_window;
    schedule_wb_flush();
  }
  return true;
}

void sync_client::schedule_wb_flush() {
  if (wb_flush_event_ != 0) {
    clock_.cancel(wb_flush_event_);
    wb_flush_event_ = 0;
  }
  if (wb_due_.empty()) return;
  sim_time first = wb_due_.begin()->second;
  for (const auto& [path, due] : wb_due_) first = std::min(first, due);
  wb_flush_event_ = clock_.schedule_at(first, [this] { flush_write_back(); });
}

void sync_client::flush_write_back() {
  wb_flush_event_ = 0;
  const sim_time now = clock_.now();
  bool queued = false;
  for (auto it = wb_due_.begin(); it != wb_due_.end();) {
    if (it->second > now) {
      ++it;
      continue;
    }
    const std::string& path = it->first;
    if (fs_.exists(path)) {
      pending_change& chg = dirty_[path];
      chg.remove = false;
      const file_manifest* man = cloud_.manifest(user_, path);
      chg.existed_in_cloud = man != nullptr && !man->deleted;
      refresh_entry_estimate(path, chg);
      queued = true;
    }
    it = wb_due_.erase(it);
  }
  schedule_wb_flush();
  // The window already deferred these updates; commit as soon as the §6.2
  // gates allow instead of stacking the service defer policy on top.
  if (queued) schedule_commit(now);
}

void sync_client::refresh_entry_estimate(const std::string& path,
                                         pending_change& chg) {
  // Rough size of this file's not-yet-synced delta: how far the local size
  // drifted from the last-synced (shadow) size. Good enough for byte-counter
  // (UDS) deferment decisions. Maintained incrementally — one shadow lookup
  // per fs event for the touched path, instead of a full dirty_ scan.
  std::uint64_t e;
  if (chg.remove) {
    e = 256;  // tombstone record
  } else {
    const auto shadow_it = shadow_.find(path);
    const std::uint64_t shadow_size =
        shadow_it == shadow_.end() ? 0 : shadow_it->second.content.size();
    const std::uint64_t local = fs_.exists(path) ? fs_.size(path) : 0;
    e = local > shadow_size ? local - shadow_size : shadow_size - local;
    if (local == shadow_size && local > 0) e += 1;  // in-place edit
  }
  pending_estimate_ += e - chg.estimate;  // unsigned delta; wraps correctly
  chg.estimate = e;
}

void sync_client::drop_entry_estimate(const std::string& path) {
  const auto it = dirty_.find(path);
  if (it != dirty_.end()) pending_estimate_ -= it->second.estimate;
}

void sync_client::schedule_commit(sim_time at) {
  if (commit_event_ != 0) clock_.cancel(commit_event_);
  commit_event_ = clock_.schedule_at(at, [this] { try_commit(); });
}

void sync_client::try_commit() {
  commit_event_ = 0;
  if (dirty_.empty()) return;

  const sim_time now = clock_.now();
  const sim_time gate = std::max(network_busy_until_, index_busy_until_);
  if (now < gate) {
    // §6.2: previous transfer or indexing still running — the batch keeps
    // accumulating (natural batching on poor networks / slow hardware).
    schedule_commit(gate);
    return;
  }

  auto batch = std::move(dirty_);
  dirty_.clear();
  pending_estimate_ = 0;
  ++counters_.commits;
  // Capture the batch's staleness anchor before commit_batch runs: a failed
  // transaction may requeue its change into dirty_ and re-arm the anchor for
  // the follow-up commit.
  const bool had_earliest = has_earliest_dirty_;
  const sim_time batch_earliest = earliest_dirty_;
  has_earliest_dirty_ = false;
  // The client engine itself needs time to finish a commit (bookkeeping,
  // polling, server turnaround) before the next one can start — the
  // service-specific part of §6.2's natural batching.
  network_busy_until_ =
      commit_batch(now, std::move(batch)) + opts_.profile.commit_processing;
  defer_->on_commit();
  if (had_earliest) {
    staleness_sec_.add((network_busy_until_ - batch_earliest).sec());
  }
}

sim_time sync_client::commit_batch(
    sim_time start, std::map<std::string, pending_change> batch) {
  const method_profile& mp = opts_.profile.method(opts_.method);
  sim_time t = start;

  if (mp.batched_sync && batch.size() > 1) {
    // BDS: one exchange carries the whole batch — one batch overhead plus a
    // small manifest entry per file. Server-side applies are per-item commits
    // made while the batch is assembled, so a dedup decision can depend on
    // earlier items exactly as it does without faults; a rejected item
    // retries with backoff and meters a small wasted probe. The batch
    // manifest then ships in one exchange, retried until it lands (its
    // applies are already durable server-side).
    std::uint64_t up_payload = 0;
    std::uint64_t up_meta = mp.bds_batch_overhead_up;
    std::uint64_t down_meta = mp.bds_batch_overhead_down;
    for (const auto& [path, chg] : batch) {
      upload_plan plan;
      if (!chg.remove) plan = plan_upload(path, t);
      // Journaled BDS: each item gets its own record around its durable
      // per-item apply (there is no kill site between apply and journal
      // commit, so the pair is atomic); the batch-manifest exchange below is
      // journaled separately. Items diverted to a conflicted copy ship
      // nothing and need no record.
      std::uint64_t txn = 0;
      if (opts_.journal != nullptr &&
          (chg.remove || plan.act != upload_action::none)) {
        const file_manifest* man = cloud_.manifest(user_, path);
        const std::uint64_t base =
            man != nullptr && !man->deleted ? man->version : 0;
        const journal_kind kind =
            chg.remove ? journal_kind::remove
            : plan.act == upload_action::delta ? journal_kind::upload_delta
                                               : journal_kind::upload_full;
        txn = opts_.journal->begin(
            path, kind, plan.payload_up, 0, base,
            chg.remove ? 0 : fs_.read(path).hash64(), t);
        maybe_crash(crash_site::after_plan, t);
        opts_.journal->mark_in_flight(txn);
      }
      int rejections = 0;
      bool applied = false;
      for (int attempt = 1;; ++attempt) {
        try {
          if (chg.remove) {
            cloud_.delete_file(user_, device_, path, t);
            shadow_.erase(path);
            base_version_.erase(path);
            drop_cache_tier(path);
          } else {
            apply_upload(path, plan, t);
          }
          applied = true;
          break;
        } catch (const transient_fault& f) {
          ++counters_.retries;
          meter_.record(direction::up, traffic_category::retry,
                        kBdsItemProbeBytes);
          meter_.record(direction::down, traffic_category::retry,
                        kErrorResponseBytes);
          if (!chg.remove && plan.act == upload_action::delta &&
              ++rejections >= opts_.retry.delta_fallback_after) {
            // Graceful degradation: the server keeps rejecting the patch —
            // re-plan the item as a full-file upload.
            ++counters_.fallbacks;
            plan = plan_upload(path, t, /*force_full=*/true);
          }
          if (attempt >= opts_.retry.max_attempts) break;
          sim_time next = t + backoff_delay(attempt);
          if (f.retry_after() > next) next = f.retry_after();
          t = next;
        }
      }
      if (!applied) {
        if (txn != 0) {
          opts_.journal->abort(txn,
                               "batched item failed: retry budget exhausted");
        }
        requeue(path, chg);
        continue;
      }
      if (txn != 0) {
        opts_.journal->commit(txn);
        opts_.journal->checkpoint();
      }
      if (chg.remove) {
        up_meta += kBatchDeleteEntryBytes;
      } else {
        up_payload += plan.payload_up;
        up_meta += plan.metadata_up + mp.bds_per_file_bytes;
        down_meta += plan.metadata_down;
      }
    }
    if (opts_.journal != nullptr) {
      // Journal the batch-manifest exchange too: a crash here leaves a
      // record that recovery simply discards — the per-item applies above
      // are already durable, so the rescan finds nothing to re-send.
      sync_journal& j = *opts_.journal;
      const std::uint64_t btxn = j.begin("<bds-batch>",
                                         journal_kind::batch_manifest,
                                         up_payload, 0, 0, 0, t);
      maybe_crash(crash_site::before_commit, t);
      j.mark_in_flight(btxn);
      t = do_exchange(t, up_payload, up_meta, 0, down_meta, {}, 0, nullptr,
                      /*never_give_up=*/true);
      j.commit(btxn);
      j.checkpoint();
      return t;
    }
    return do_exchange(t, up_payload, up_meta, 0, down_meta, {}, 0, nullptr,
                       /*never_give_up=*/true);
  }

  // Non-BDS: every file is its own sync transaction. The first transaction
  // of a burst pays the full per-event overhead; follow-ups within the same
  // burst ride the established session state and pay the burst overhead.
  bool first = true;
  for (const auto& [path, chg] : batch) {
    const std::uint64_t oh_up = first ? mp.base_overhead_up
                                      : mp.burst_overhead_up;
    const std::uint64_t oh_down = first ? mp.base_overhead_down
                                        : mp.burst_overhead_down;
    first = false;
    if (opts_.journal != nullptr) {
      // Journaled build: every transaction is recorded and uploads ship
      // through resumable sessions (kill sites armed inside).
      t = chg.remove ? journaled_remove(path, chg, t, oh_up, oh_down)
                     : journaled_upload(path, chg, t, oh_up, oh_down);
      continue;
    }
    txn_outcome oc = txn_outcome::ok;
    if (chg.remove) {
      const sim_time at = t;
      t = do_exchange(t, 0, oh_up + kDeleteRecordBytes, 0, oh_down,
                      [&, at] {
                        cloud_.delete_file(user_, device_, path, at);
                        shadow_.erase(path);
                        base_version_.erase(path);
                        drop_cache_tier(path);
                      },
                      0, &oc);
      if (oc != txn_outcome::ok) requeue(path, chg);
      continue;
    }
    upload_plan plan = plan_upload(path, t);
    const sim_time at = t;
    t = do_exchange(t, plan.payload_up, plan.metadata_up + oh_up, 0,
                    plan.metadata_down + oh_down,
                    [&, at] { apply_upload(path, plan, at); },
                    plan.act == upload_action::delta
                        ? opts_.retry.delta_fallback_after
                        : 0,
                    &oc);
    if (oc == txn_outcome::apply_failed) {
      // Graceful degradation: the server keeps rejecting the delta — ship
      // the whole file instead (a plain PUT needs no patch machinery).
      ++counters_.fallbacks;
      plan = plan_upload(path, t, /*force_full=*/true);
      const sim_time at2 = t;
      t = do_exchange(t, plan.payload_up, plan.metadata_up + oh_up, 0,
                      plan.metadata_down + oh_down,
                      [&, at2] { apply_upload(path, plan, at2); }, 0, &oc);
    }
    if (oc != txn_outcome::ok) requeue(path, chg);
  }
  return t;
}

void sync_client::requeue(const std::string& path, const pending_change& chg) {
  ++counters_.requeues;
  pending_change& back = dirty_[path];
  back.remove = chg.remove;
  back.existed_in_cloud = chg.existed_in_cloud;
  refresh_entry_estimate(path, back);
  if (!has_earliest_dirty_) {
    has_earliest_dirty_ = true;
    earliest_dirty_ = clock_.now();
  }
  schedule_commit(clock_.now() + opts_.retry.requeue_cooldown);
}

sim_time sync_client::backoff_delay(int attempt) const {
  const retry_policy& rp = opts_.retry;
  double d =
      rp.base_backoff.sec() * std::pow(rp.backoff_multiplier, attempt - 1);
  d = std::min(d, rp.max_backoff.sec());
  if (opts_.faults != nullptr && rp.jitter > 0) {
    // Seeded jitter decorrelates retry storms without breaking determinism.
    d *= 1.0 + rp.jitter * (2.0 * opts_.faults->jitter01() - 1.0);
  }
  return sim_time::from_sec(d);
}

std::uint64_t wire_payload_size(byte_view content, int level) {
  if (level <= 0 || content.empty()) return content.size();
  // Real clients skip the compressor when a sample looks incompressible.
  if (content.size() >= 4096 &&
      estimate_compression_ratio(content, 16 * 1024) < 1.05) {
    return content.size();
  }
  return lzss_compress(content, {.level = level}).size();
}

namespace {
/// The incompressibility probe threshold and sample budget of
/// wire_payload_size, shared by its streaming twins.
constexpr std::size_t kProbeMinBytes = 4096;
constexpr std::size_t kProbeSampleBudget = 16 * 1024;
constexpr double kProbeRatioCutoff = 1.05;

std::vector<byte_view> views_of(const std::vector<byte_buffer>& buffers) {
  std::vector<byte_view> views;
  views.reserve(buffers.size());
  for (const byte_buffer& b : buffers) views.emplace_back(b);
  return views;
}

/// The probe of estimate_compression_ratio over a rope, sampling the
/// identical windows.
probe_totals probe_ref(const content_ref& content) {
  std::vector<byte_buffer> samples;
  for (const sample_window& w :
       compression_sample_windows(content.size(), kProbeSampleBudget)) {
    byte_buffer buf;
    buf.reserve(w.length);
    content.walk_range(w.offset, w.length,
                       [&](byte_view v) { append(buf, v); });
    samples.push_back(std::move(buf));
  }
  return probe_windows(views_of(samples));
}

/// estimate_compression_ratio over a delta's serialized stream: one walk
/// collects the probe windows (they are sorted and disjoint), never holding
/// more than the sample budget.
double estimate_ratio_delta_wire(const file_delta& delta,
                                 std::uint64_t wire_size) {
  const std::vector<sample_window> plan = compression_sample_windows(
      static_cast<std::size_t>(wire_size), kProbeSampleBudget);
  std::vector<byte_buffer> samples(plan.size());
  std::uint64_t off = 0;
  std::size_t wi = 0;
  walk_delta_wire(delta, [&](byte_view piece) {
    const std::uint64_t piece_end = off + piece.size();
    while (wi < plan.size() && plan[wi].offset < piece_end) {
      const std::uint64_t w_begin = plan[wi].offset;
      const std::uint64_t w_end = w_begin + plan[wi].length;
      if (w_end <= off) {
        ++wi;
        continue;
      }
      const std::uint64_t from = std::max<std::uint64_t>(off, w_begin);
      const std::uint64_t to = std::min<std::uint64_t>(piece_end, w_end);
      append(samples[wi],
             piece.subspan(static_cast<std::size_t>(from - off),
                           static_cast<std::size_t>(to - from)));
      if (to < w_end) break;  // window continues in the next piece
      ++wi;
    }
    off = piece_end;
  });
  return estimate_ratio_of_windows(views_of(samples));
}
}  // namespace

std::uint64_t wire_payload_size_ref(const content_ref& content, int level) {
  return wire_payload_size_ref(content, level, nullptr, nullptr);
}

std::uint64_t wire_payload_size_ref(
    const content_ref& content, int level, const priced_version* base,
    std::shared_ptr<const lzss_summary>* summary) {
  if (level <= 0 || content.empty()) return content.size();
  if (content.size() >= kProbeMinBytes) {
    const probe_totals probe = probe_ref(content);
    if (probe.ratio() < kProbeRatioCutoff) return content.size();
    // Up to the sample budget the probe's one window is the whole input, so
    // at the probe's level its count is the frame size.
    if (level == kProbeLevel && probe.in == content.size()) return probe.out;
  }
  lzss_stream_sizer sizer(content.size(), {.level = level});
  if (base != nullptr && base->summary) {
    const content_ref::affixes same = base->content.common_affixes(content);
    sizer.reuse(base->summary, same.prefix, same.suffix);
  }
  content.walk([&](byte_view v) { sizer.feed(v); });
  const std::uint64_t size = sizer.finish();
  if (summary != nullptr) *summary = sizer.summary();
  return size;
}

std::uint64_t wire_payload_size_delta(const file_delta& delta, int level) {
  const std::uint64_t size = delta_wire_size(delta);
  if (level <= 0 || size == 0) return size;
  if (size >= kProbeMinBytes &&
      estimate_ratio_delta_wire(delta, size) < kProbeRatioCutoff) {
    return size;
  }
  lzss_stream_sizer sizer(size, {.level = level});
  walk_delta_wire(delta, [&](byte_view v) { sizer.feed(v); });
  return sizer.finish();
}

std::uint64_t sync_client::shipped_size(const content_ref& content,
                                        int level) const {
  return shipped_content_size(planning_environment(), content, level);
}

planning_env sync_client::planning_environment() const {
  planning_env env;
  env.profile = &opts_.profile;
  env.method = opts_.method;
  env.cl = &cloud_;
  env.user = user_;
  env.journaled = opts_.journal != nullptr;
  env.session_chunk_bytes = opts_.recovery.chunk_bytes;
  return env;
}

upload_plan sync_client::plan_upload(const std::string& path, sim_time at,
                                     bool force_full) {
  upload_plan plan;

  const content_ref content = fs_.read(path);
  const file_manifest* man = cloud_.manifest(user_, path);
  const bool in_cloud = man != nullptr && !man->deleted;
  const auto shadow_it = shadow_.find(path);

  // Parent-revision check: if the cloud moved past the version our local
  // edits were based on (another device committed first), do not clobber
  // it — divert our content to a conflicted copy, which syncs as a normal
  // new file, and let the next poll fetch the winning version.
  if (in_cloud) {
    const auto base = base_version_.find(path);
    if (base != base_version_.end() && man->version > base->second) {
      const std::string conflict = path + " (conflicted copy)";
      if (!fs_.exists(conflict)) {
        fs_.create(conflict, content, at);
      }
      ++counters_.conflicts;
      return plan;  // nothing shipped for the contested path
    }
  }

  // Cache-aware planning: delta signatures are computed from cached blocks
  // only. When any block of the old version has been evicted there is no
  // local delta basis — drop the shadow and force a full-file upload.
  bool shadow_evicted = false;
  if (opts_.cache_tier != nullptr && shadow_it != shadow_.end()) {
    if (!opts_.cache_tier->probe_resident(path)) {
      shadow_evicted = true;
      opts_.cache_tier->note_plan_fallback();
    }
  }

  const planning_env env = planning_environment();
  protocol_update up;
  up.path = &path;
  up.content = &content;
  up.in_cloud = in_cloud;
  up.shadow = shadow_it != shadow_.end() && !shadow_evicted
                  ? &shadow_it->second
                  : nullptr;
  up.force_full = force_full || shadow_evicted;

  selector_pick pick;
  const sync_protocol& proto = selector_.choose(env, up, &pick);
  plan = proto.plan(env, up);
  if (pick.predicted) plan.predicted_app_up = pick.predicted_app_up;
  return plan;
}

void sync_client::apply_upload(const std::string& path,
                               const upload_plan& plan, sim_time at) {
  if (plan.act == upload_action::none) return;
  const content_ref content = fs_.read(path);
  if (plan.act == upload_action::delta) {
    cloud_.apply_file_delta(user_, device_, path, plan.blueprint->delta, at);
  } else {
    cloud_.put_file(user_, device_, path, content, plan.payload_up, at);
  }
  // The commit landed — nothing below can throw, so a retried transaction
  // never observes a half-applied one.
  if (plan.dedup_commit) {
    // Keep the dedup index current: the new content is now stored in the
    // cloud and future identical uploads must be able to match it.
    cloud_.dedup().commit(user_, content);
  }
  base_version_[path] = cloud_.manifest(user_, path)->version;
  shadow_entry& sh = shadow_[path];
  sh.assign(content, plan.priced);
  install_cache_tier(path, sh.content);
  // Calibration feedback: the plan's app bytes are exactly what the
  // surrounding exchange meters as payload + metadata on success. Gated so
  // non-adaptive runs skip the hash (and stay cycle-identical).
  if (opts_.protocol.mode == protocol_mode::adaptive) {
    selector_.observe(plan, content.hash64(),
                      plan.payload_up + plan.metadata_up);
  }
}

void sync_client::apply_upload_session(const std::string& path,
                                       const upload_plan& plan,
                                       resume_token token, sim_time at) {
  const content_ref content = fs_.read(path);
  if (plan.act == upload_action::delta) {
    cloud_.finalize_session_delta(token, user_, device_, path,
                                  plan.blueprint->delta, at);
  } else {
    cloud_.finalize_session_put(token, user_, device_, path, content,
                                plan.payload_up, at);
  }
  if (plan.dedup_commit) cloud_.dedup().commit(user_, content);
  base_version_[path] = cloud_.manifest(user_, path)->version;
  shadow_entry& sh = shadow_[path];
  sh.assign(content, plan.priced);
  install_cache_tier(path, sh.content);
  if (opts_.protocol.mode == protocol_mode::adaptive) {
    selector_.observe(plan, content.hash64(),
                      plan.payload_up + plan.metadata_up);
  }
}

void sync_client::maybe_crash(crash_site site, sim_time at) {
  if (opts_.journal == nullptr || opts_.faults == nullptr) return;
  if (opts_.faults->should_crash(site)) {
    throw client_crash(site, at, device_);
  }
}

sim_time sync_client::send_session_chunks(std::uint64_t txn,
                                          resume_token token, sim_time t,
                                          txn_outcome* oc,
                                          bool never_give_up) {
  sync_journal& j = *opts_.journal;
  const journal_record* rec = j.find(txn);
  const std::uint64_t total = rec->payload_bytes;
  const std::uint32_t chunks = rec->total_chunks;
  if (oc != nullptr) *oc = txn_outcome::ok;

  // Striped dispatch: when the adaptive controller has escalated past a
  // single connection, ship the un-acked chunks through the parallel
  // scheduler (FEC parity + hedging; acks land out of order). On a clean
  // link decide() stays at K=1 and control falls through to the serial loop
  // below — byte-identical to a scheduler-less client. The never_give_up
  // path (BDS batch exchanges) keeps its unbounded serial semantics.
  if (xfer_ != nullptr && !never_give_up && chunks > 1) {
    std::vector<chunk_range> todo;
    for (std::uint32_t i = rec->acked_chunks; i < chunks; ++i) {
      if (rec->chunk_acked(i)) continue;
      todo.push_back({i, chunk_size_at(total, opts_.recovery.chunk_bytes, i)});
    }
    if (todo.size() > 1) {
      const transfer_decision d = xfer_->decide();
      if (d.striped()) {
        const striped_outcome so = xfer_->send_striped(
            t, todo, d,
            [&](std::uint32_t idx, std::uint64_t bytes, sim_time at) {
              // Server ack + durable journal ack, atomically paired: there
              // is no kill site between the two, so resume state and
              // session state can never disagree (holes included).
              cloud_.upload_session_chunk(token, idx, bytes, at);
              j.ack_chunk(txn, idx);
              ++counters_.exchanges;
            },
            [&](sim_time at) { maybe_crash(crash_site::mid_chunk, at); });
        if (!so.complete && oc != nullptr) *oc = txn_outcome::gave_up;
        return so.done;
      }
    }
  }

  for (std::uint32_t i = rec->acked_chunks; i < chunks; ++i) {
    // Skip holes already acked by a crashed striped attempt; for serial
    // records the mask is a pure prefix and this never skips.
    if (rec->chunk_acked(i)) continue;
    maybe_crash(crash_site::mid_chunk, t);
    const std::uint64_t bytes =
        chunk_size_at(total, opts_.recovery.chunk_bytes, i);
    exchange_spec spec;
    spec.payload_up = bytes;
    spec.resume_up = kChunkControlUpBytes;
    spec.resume_down = kChunkAckDownBytes;
    spec.never_give_up = never_give_up;
    const sim_time at = t;
    spec.apply = [&, at] { cloud_.upload_session_chunk(token, i, bytes, at); };
    t = run_exchange(t, spec, oc);
    if (oc != nullptr && *oc != txn_outcome::ok) return t;
    // The server acked the chunk and the journal records it durably; a crash
    // between the two is not a modelled kill site, so resume state and
    // session state can never disagree.
    j.ack_chunk(txn, i);
  }
  return t;
}

sim_time sync_client::finalize_session_upload(
    const std::string& path, const upload_plan& plan, std::uint64_t txn,
    resume_token token, sim_time t, std::uint64_t oh_up, std::uint64_t oh_down,
    txn_outcome* oc) {
  maybe_crash(crash_site::before_commit, t);
  exchange_spec spec;
  spec.meta_up = plan.metadata_up + oh_up;
  spec.meta_down = plan.metadata_down + oh_down;
  spec.resume_up = kSessionFinalizeUpBytes;
  spec.resume_down = kSessionFinalizeDownBytes;
  spec.apply_fail_limit = plan.act == upload_action::delta
                              ? opts_.retry.delta_fallback_after
                              : 0;
  const sim_time at = t;
  spec.apply = [&, at] { apply_upload_session(path, plan, token, at); };
  t = run_exchange(t, spec, oc);
  if (*oc == txn_outcome::ok) {
    sync_journal& j = *opts_.journal;
    j.commit(txn);
    j.checkpoint();
  }
  return t;
}

sim_time sync_client::journaled_upload(const std::string& path,
                                       const pending_change& chg, sim_time t,
                                       std::uint64_t oh_up,
                                       std::uint64_t oh_down,
                                       bool force_full) {
  sync_journal& j = *opts_.journal;
  upload_plan plan = plan_upload(path, t, force_full);
  if (plan.act == upload_action::none) return t;  // conflict diverted

  const file_manifest* man = cloud_.manifest(user_, path);
  const std::uint64_t base =
      man != nullptr && !man->deleted ? man->version : 0;
  const std::uint64_t txn = j.begin(
      path,
      plan.act == upload_action::delta ? journal_kind::upload_delta
                                       : journal_kind::upload_full,
      plan.payload_up, chunk_count(plan.payload_up, opts_.recovery.chunk_bytes),
      base, fs_.read(path).hash64(), t);
  maybe_crash(crash_site::after_plan, t);

  // Open the upload session (a small control exchange).
  resume_token token = 0;
  txn_outcome oc = txn_outcome::ok;
  {
    exchange_spec spec;
    spec.resume_up = kSessionBeginUpBytes;
    spec.resume_down = kSessionBeginDownBytes;
    const journal_record* rec = j.find(txn);
    const sim_time at = t;
    const std::uint32_t chunks = rec->total_chunks;
    const std::uint64_t payload = rec->payload_bytes;
    spec.apply = [&, at, chunks, payload] {
      token = cloud_.begin_upload_session(user_, path, chunks, payload, at);
    };
    t = run_exchange(t, spec, &oc);
  }
  if (oc != txn_outcome::ok) {
    j.abort(txn, "session open failed: retry budget exhausted");
    requeue(path, chg);
    return t;
  }
  j.set_resume_token(txn, token);
  j.mark_in_flight(txn);

  t = send_session_chunks(txn, token, t, &oc);
  if (oc != txn_outcome::ok) {
    j.abort(txn, "chunk upload failed: retry budget exhausted");
    cloud_.abandon_upload_session(token);
    requeue(path, chg);
    return t;
  }

  t = finalize_session_upload(path, plan, txn, token, t, oh_up, oh_down, &oc);
  if (oc == txn_outcome::apply_failed && plan.act == upload_action::delta) {
    // Graceful degradation, journaled: abort this transaction, abandon its
    // session, and run a fresh full-file transaction for the path.
    ++counters_.fallbacks;
    j.abort(txn, "delta rejected by server");
    cloud_.abandon_upload_session(token);
    return journaled_upload(path, chg, t, oh_up, oh_down, /*force_full=*/true);
  }
  if (oc != txn_outcome::ok) {
    j.abort(txn, "commit failed: retry budget exhausted");
    cloud_.abandon_upload_session(token);
    requeue(path, chg);
  }
  return t;
}

sim_time sync_client::journaled_remove(const std::string& path,
                                       const pending_change& chg, sim_time t,
                                       std::uint64_t oh_up,
                                       std::uint64_t oh_down) {
  sync_journal& j = *opts_.journal;
  const file_manifest* man = cloud_.manifest(user_, path);
  const std::uint64_t base =
      man != nullptr && !man->deleted ? man->version : 0;
  const std::uint64_t txn =
      j.begin(path, journal_kind::remove, 0, 0, base, 0, t);
  maybe_crash(crash_site::after_plan, t);
  // No payload, no session: the only work is the tombstone commit itself,
  // so the mid-chunk site never arises and before-commit follows directly.
  maybe_crash(crash_site::before_commit, t);
  j.mark_in_flight(txn);
  txn_outcome oc = txn_outcome::ok;
  const sim_time at = t;
  t = do_exchange(t, 0, oh_up + kDeleteRecordBytes, 0, oh_down,
                  [&, at] {
                    cloud_.delete_file(user_, device_, path, at);
                    shadow_.erase(path);
                    base_version_.erase(path);
                    drop_cache_tier(path);
                  },
                  0, &oc);
  if (oc != txn_outcome::ok) {
    j.abort(txn, "delete failed: retry budget exhausted");
    requeue(path, chg);
    return t;
  }
  j.commit(txn);
  j.checkpoint();
  return t;
}

sim_time sync_client::do_exchange(sim_time at, std::uint64_t up_payload,
                                  std::uint64_t up_meta,
                                  std::uint64_t down_payload,
                                  std::uint64_t down_meta,
                                  const std::function<void()>& apply,
                                  int apply_fail_limit, txn_outcome* outcome,
                                  bool never_give_up) {
  exchange_spec spec;
  spec.payload_up = up_payload;
  spec.meta_up = up_meta;
  spec.payload_down = down_payload;
  spec.meta_down = down_meta;
  spec.apply = apply;
  spec.apply_fail_limit = apply_fail_limit;
  spec.never_give_up = never_give_up;
  return run_exchange(at, spec, outcome);
}

sim_time sync_client::run_exchange(sim_time at, const exchange_spec& spec,
                                   txn_outcome* outcome) {
  const std::uint64_t up_app = spec.payload_up + spec.meta_up +
                               spec.resume_up + spec.rehydrate_up +
                               opts_.http.request_header_bytes;
  const std::uint64_t down_app = spec.payload_down + spec.meta_down +
                                 spec.resume_down + spec.rehydrate_down +
                                 opts_.http.response_header_bytes;
  sim_time start = at;
  int apply_failures = 0;
  for (int attempt = 1;; ++attempt) {
    sim_time done{};
    bool exchanged = false;
    try {
      done = conn_.exchange(start, up_app, down_app);
      exchanged = true;
      if (spec.apply) spec.apply();  // server-side commit; may reject
      ++counters_.exchanges;
      meter_.record(direction::up, traffic_category::payload, spec.payload_up);
      meter_.record(direction::up, traffic_category::metadata, spec.meta_up);
      meter_.record(direction::up, traffic_category::resume, spec.resume_up);
      meter_.record(direction::down, traffic_category::payload,
                    spec.payload_down);
      meter_.record(direction::down, traffic_category::metadata,
                    spec.meta_down);
      meter_.record(direction::down, traffic_category::resume,
                    spec.resume_down);
      meter_.record(direction::up, traffic_category::rehydrate,
                    spec.rehydrate_up);
      meter_.record(direction::down, traffic_category::rehydrate,
                    spec.rehydrate_down);
      meter_.record(direction::up, traffic_category::notification,
                    opts_.http.request_header_bytes);
      meter_.record(direction::down, traffic_category::notification,
                    opts_.http.response_header_bytes);
      // Feed the transfer controller's observation window. Pure
      // bookkeeping — no RNG, no metered bytes — so a clean link observed
      // through an enabled scheduler stays byte-identical to scheduler-off.
      if (xfer_ != nullptr) xfer_->observe_success(done - start);
      if (outcome != nullptr) *outcome = txn_outcome::ok;
      return done;
    } catch (const transient_fault& f) {
      ++counters_.retries;
      if (xfer_ != nullptr) xfer_->observe_fault();
      const sim_time failed_at = exchanged ? done : f.at();
      if (exchanged) {
        // The request reached the server and was rejected: the app bytes it
        // carried were wasted, plus a small error response. (The connection
        // already metered the wire transport bytes as genuine use.)
        meter_.record(direction::up, traffic_category::retry, up_app);
        meter_.record(direction::down, traffic_category::retry,
                      kErrorResponseBytes);
        if (spec.apply_fail_limit > 0 &&
            ++apply_failures >= spec.apply_fail_limit) {
          if (outcome != nullptr) *outcome = txn_outcome::apply_failed;
          return failed_at;
        }
      }
      if (!spec.never_give_up && attempt >= opts_.retry.max_attempts) {
        if (outcome != nullptr) *outcome = txn_outcome::gave_up;
        return failed_at;
      }
      start = failed_at + backoff_delay(attempt);
      if (f.retry_after() > start) start = f.retry_after();
    }
  }
}

void sync_client::install_cache_tier(const std::string& path,
                                     const content_ref& content) {
  if (opts_.cache_tier != nullptr) opts_.cache_tier->install(path, content);
}

void sync_client::drop_cache_tier(const std::string& path) {
  if (opts_.cache_tier != nullptr) opts_.cache_tier->invalidate(path);
}

content_ref sync_client::read_file(const std::string& path) {
  block_cache* bc = opts_.cache_tier;
  // Unsynced local edits (pending commit or a write-back window) live on
  // the local disk by definition — serve them locally.
  if (bc == nullptr || !bc->tracks(path) || dirty_.contains(path) ||
      wb_due_.contains(path)) {
    return fs_.read(path);
  }
  const auto assembled = bc->read(
      path, [&](std::uint32_t first, std::uint32_t count) -> content_ref {
        // Backing fetch: a ranged GET against the cloud copy of the
        // last-synced version, one exchange per contiguous absent run.
        const auto remote = cloud_.file_content(user_, path);
        if (!remote) {
          throw std::logic_error("rehydration with no cloud copy");
        }
        const std::size_t bb = bc->config().block_bytes;
        const std::uint64_t off = static_cast<std::uint64_t>(first) * bb;
        const std::uint64_t len = std::min<std::uint64_t>(
            static_cast<std::uint64_t>(count) * bb, remote->size() - off);
        exchange_spec spec;
        spec.rehydrate_up = kRehydrateRequestBytes;
        spec.rehydrate_down = len;
        const sim_time start = std::max(clock_.now(), network_busy_until_);
        network_busy_until_ = run_exchange(start, spec);
        return remote->substr(static_cast<std::size_t>(off),
                              static_cast<std::size_t>(len));
      });
  return assembled ? *assembled : fs_.read(path);
}

void sync_client::download(const std::string& path) {
  const method_profile& mp = opts_.profile.method(opts_.method);
  // Rope plumbing: both storage substrates hand back a content_ref that
  // shares the stored chunks — no copy on the read path. The handle stays
  // valid regardless of later store mutations (it pins its chunks).
  const std::optional<content_ref> remote = cloud_.file_content(user_, path);
  if (!remote) return;
  const content_ref& content = *remote;

  const std::uint64_t payload =
      shipped_size(content, mp.download_compression_level);
  const std::uint64_t down_meta =
      mp.base_overhead_down / 4 +
      static_cast<std::uint64_t>(static_cast<double>(payload) *
                                 mp.per_payload_metadata);
  const std::uint64_t up_meta = mp.base_overhead_up / 4;

  const sim_time start = std::max(clock_.now(), network_busy_until_);
  txn_outcome oc = txn_outcome::ok;
  network_busy_until_ = do_exchange(start, 0, up_meta, payload, down_meta, {},
                                    0, &oc);
  if (oc != txn_outcome::ok) {
    // Attempts exhausted: keep the stale local copy; a later notification
    // or explicit download retries the path.
    ++counters_.failed_downloads;
    return;
  }

  // Adopt the remote version as the synced state, then materialise it
  // locally (suppressed: our own write must not re-enter the upload
  // pipeline).
  shadow_entry& sh = shadow_[path];
  sh.assign(content);
  install_cache_tier(path, sh.content);
  applying_remote_ = true;
  if (fs_.exists(path)) {
    fs_.write(path, content, clock_.now());
  } else {
    fs_.create(path, content, clock_.now());
  }
  applying_remote_ = false;
  const file_manifest* man = cloud_.manifest(user_, path);
  if (man != nullptr) base_version_[path] = man->version;
}

std::size_t sync_client::poll_remote_changes() {
  std::vector<change_notification> notes;
  try {
    notes = cloud_.metadata().fetch_notifications(user_, device_);
  } catch (const transient_fault&) {
    // Throttled/failed poll: the queue is untouched, the next poll retries;
    // only the rejected request itself was wasted.
    ++counters_.poll_failures;
    ++counters_.retries;
    meter_.record(direction::up, traffic_category::retry,
                  64 + opts_.http.request_header_bytes);
    meter_.record(direction::down, traffic_category::retry,
                  kErrorResponseBytes);
    return 0;
  }
  // The notification poll itself is a small exchange.
  const sim_time start = std::max(clock_.now(), network_busy_until_);
  network_busy_until_ =
      do_exchange(start, 0, 64, 0, 120 * std::max<std::size_t>(1, notes.size()));
  std::size_t applied = 0;
  for (const change_notification& note : notes) {
    if (note.deleted) {
      // Remote deletion: remove the local copy unless it carries unsynced
      // edits (then the local version survives and will re-upload).
      if (fs_.exists(note.path) && !dirty_.contains(note.path)) {
        applying_remote_ = true;
        fs_.remove(note.path, clock_.now());
        applying_remote_ = false;
      }
      shadow_.erase(note.path);
      base_version_.erase(note.path);
      drop_cache_tier(note.path);
      ++applied;
      continue;
    }
    if (dirty_.contains(note.path) && fs_.exists(note.path)) {
      // Divergent edits on both sides: the remote version wins the path,
      // the local edits survive as a conflicted copy that syncs normally
      // (the Dropbox behaviour).
      const std::string conflict = note.path + " (conflicted copy)";
      if (!fs_.exists(conflict)) {
        fs_.create(conflict, fs_.read(note.path), clock_.now());
      }
      drop_entry_estimate(note.path);
      dirty_.erase(note.path);
      ++counters_.conflicts;
    }
    download(note.path);
    ++applied;
  }
  return applied;
}

void sync_client::enable_periodic_poll(sim_time interval, sim_time until) {
  const sim_time next = clock_.now() + interval;
  if (next > until) return;
  poll_event_ = clock_.schedule_at(next, [this, interval, until] {
    poll_event_ = 0;
    poll_remote_changes();
    enable_periodic_poll(interval, until);
  });
}

sim_time sync_client::busy_until() const {
  return std::max(network_busy_until_, index_busy_until_);
}

void sync_client::recover() {
  if (opts_.journal == nullptr) return;
  sync_journal& j = *opts_.journal;
  sim_time t = std::max(clock_.now(), network_busy_until_);
  for (const journal_record& rec : j.open_records()) {
    if (rec.state == journal_state::in_flight &&
        (rec.kind == journal_kind::upload_full ||
         rec.kind == journal_kind::upload_delta) &&
        opts_.recovery.resume && rec.resume_token != 0 &&
        cloud_.session_open(rec.resume_token)) {
      t = recover_in_flight(rec, t);
      continue;
    }
    // Discard: planned and aborted records (the rescan below re-queues the
    // path), removes and batch manifests (re-derived idempotently by the
    // rescan), and in-flight uploads when resume is off or the session is
    // gone — those pay the full re-upload through the rescan.
    if (rec.resume_token != 0) cloud_.abandon_upload_session(rec.resume_token);
    if (rec.state == journal_state::in_flight) ++counters_.recovery_restarts;
    j.erase(rec.id);
  }
  network_busy_until_ = std::max(network_busy_until_, t);
  rescan_after_recovery();
}

sim_time sync_client::recover_in_flight(const journal_record& rec,
                                        sim_time t) {
  sync_journal& j = *opts_.journal;
  auto discard = [&] {
    cloud_.abandon_upload_session(rec.resume_token);
    j.erase(rec.id);
    ++counters_.recovery_restarts;
  };

  // The recovery metadata round trip: ask the server how far the session
  // got. (The journal's acked count already matches it — there is no kill
  // site between a server ack and its journal ack — but a real client must
  // still pay this query, so it is charged.)
  txn_outcome oc = txn_outcome::ok;
  upload_session_status st;
  {
    exchange_spec spec;
    spec.resume_up = kSessionQueryUpBytes;
    spec.resume_down = kSessionQueryDownBytes;
    const sim_time at = t;
    spec.apply = [&, at] {
      st = cloud_.query_upload_session(rec.resume_token, at);
    };
    t = run_exchange(t, spec, &oc);
  }
  if (oc != txn_outcome::ok) {
    discard();
    return t;
  }

  // Resume only if the world still matches the plan: the local content must
  // be what the journal recorded and the cloud must still be at the plan's
  // base version. Anything else → discard; the rescan re-plans from scratch.
  if (!fs_.exists(rec.path) ||
      fs_.read(rec.path).hash64() != rec.content_hash) {
    discard();
    return t;
  }
  const file_manifest* man = cloud_.manifest(user_, rec.path);
  const std::uint64_t cur =
      man != nullptr && !man->deleted ? man->version : 0;
  if (cur != rec.base_version) {
    discard();
    return t;
  }

  upload_plan plan;
  if (rec.kind == journal_kind::upload_delta) {
    // The crashed incarnation's shadow died with it; restore the base
    // version from the client's persisted blob cache (real clients keep
    // one — modelled as the cloud copy, read locally, no bytes charged).
    auto base_content = cloud_.file_content(user_, rec.path);
    if (!base_content) {
      discard();
      return t;
    }
    shadow_entry& sh = shadow_[rec.path];
    sh.assign(*base_content);
    install_cache_tier(rec.path, sh.content);
    base_version_[rec.path] = cur;
    plan = plan_upload(rec.path, t);
    if (plan.act != upload_action::delta) {
      discard();
      return t;
    }
  } else {
    plan = plan_upload(rec.path, t, /*force_full=*/true);
  }
  // Replanning is deterministic, so the rebuilt plan must ship exactly the
  // journaled payload — the acked prefix is a prefix of it.
  if (plan.act == upload_action::none || plan.payload_up != rec.payload_bytes) {
    discard();
    return t;
  }

  t = send_session_chunks(rec.id, rec.resume_token, t, &oc);
  const method_profile& mp = opts_.profile.method(opts_.method);
  if (oc == txn_outcome::ok) {
    t = finalize_session_upload(rec.path, plan, rec.id, rec.resume_token, t,
                                mp.base_overhead_up, mp.base_overhead_down,
                                &oc);
  }
  if (oc == txn_outcome::apply_failed) {
    // The server keeps rejecting the resumed delta: degrade to a fresh
    // full-file transaction, exactly like the live path.
    ++counters_.fallbacks;
    j.abort(rec.id, "delta rejected by server during resume");
    cloud_.abandon_upload_session(rec.resume_token);
    pending_change chg;
    chg.existed_in_cloud = cur != 0;
    return journaled_upload(rec.path, chg, t, mp.base_overhead_up,
                            mp.base_overhead_down, /*force_full=*/true);
  }
  if (oc != txn_outcome::ok) {
    j.abort(rec.id, "resume failed: retry budget exhausted");
    cloud_.abandon_upload_session(rec.resume_token);
    pending_change chg;
    chg.existed_in_cloud = cur != 0;
    requeue(rec.path, chg);
    return t;
  }
  ++counters_.resumes;
  return t;
}

void sync_client::rescan_after_recovery() {
  const sim_time now = clock_.now();
  // Diff the sync folder against the cloud namespace. The comparison models
  // the client's persisted sync-state database (per-path version + content
  // hash, which real clients keep on disk), so it charges no traffic.
  for (const std::string& path : fs_.list()) {
    const file_manifest* man = cloud_.manifest(user_, path);
    const bool in_cloud = man != nullptr && !man->deleted;
    const content_ref local = fs_.read(path);
    bool in_sync = false;
    if (in_cloud) {
      const auto remote = cloud_.file_content(user_, path);
      in_sync = remote && remote->equal(local);
    }
    if (in_sync) {
      // Adopt as the synced state (a local disk read, not a download).
      shadow_entry& sh = shadow_[path];
      sh.assign(local);
      install_cache_tier(path, sh.content);
      base_version_[path] = man->version;
      continue;
    }
    pending_change& chg = dirty_[path];
    chg.remove = false;
    chg.existed_in_cloud = in_cloud;
    refresh_entry_estimate(path, chg);
  }
  for (const std::string& path : cloud_.metadata().list(user_)) {
    if (fs_.exists(path)) continue;
    pending_change& chg = dirty_[path];
    chg.remove = true;
    chg.existed_in_cloud = true;
    refresh_entry_estimate(path, chg);
  }
  if (!dirty_.empty()) {
    if (!has_earliest_dirty_) {
      has_earliest_dirty_ = true;
      earliest_dirty_ = now;
    }
    schedule_commit(defer_->next_fire(now, pending_update_estimate()));
  }
}

}  // namespace cloudsync
