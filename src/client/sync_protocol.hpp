// Pluggable sync protocols: the full-file, rsync-delta, and CDC-dedup
// transfer paths factored out of the sync engine behind one interface, so
// planning an upload means asking a protocol for a transfer plan instead of
// branching inline (Boškov et al., "Enabling Cost-Benefit Analysis of Data
// Sync Protocols": no single protocol wins everywhere).
//
// The registry is an open extension point: a new protocol (e.g. a
// set-reconciliation scheme) registers once at startup and is immediately
// visible to the service-default ordering, the forced mode, and the adaptive
// cost-model selector (client/protocol_cost.hpp). Determinism contract:
// eligibility and plan() are pure functions of their inputs — no RNG, no
// metering, no clock — so protocol selection can never perturb wire bytes
// except by choosing a different (fully planned) path.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "chunking/rsync.hpp"
#include "client/service_profile.hpp"
#include "compress/lzss.hpp"
#include "storage/cloud.hpp"
#include "store/content_ref.hpp"
#include "util/content_cache.hpp"

namespace cloudsync {

/// A memoized IDS plan: the delta against one specific old version plus the
/// identity of its serialized wire form. Planning never builds the wire
/// buffer — literal ops reference the new file's rope, and `wire_size` /
/// `wire_hash` (exactly serialize_delta's length and content_hash64) key the
/// wire-payload memo instead.
struct delta_blueprint {
  file_delta delta;
  std::uint64_t wire_size = 0;  ///< == serialize_delta(delta).size()
  std::uint64_t wire_hash = 0;  ///< == content_hash64(serialize_delta(delta))
};

/// A version priced whole by an LZSS parse: the rope that was priced and
/// the summary its parse left, from which the next version of the same path
/// is priced (lzss_stream_sizer::reuse).
struct priced_version {
  content_ref content;
  std::shared_ptr<const lzss_summary> summary;
};
/// Null where no summary was kept.
using priced_ptr = std::shared_ptr<const priced_version>;

/// Last-synced content plus its memoized rsync signature: incremental sync
/// re-signs a shadow only after it actually changes, not on every commit.
/// The signature is shared with the process-wide memo.
struct shadow_entry {
  content_ref content;
  std::shared_ptr<const file_signature> sig;  ///< of `content`, lazy
  std::size_t sig_block_size = 0;  ///< block size `sig` was built with
  std::uint64_t sig_salt = 0;  ///< memo salt of `sig` (valid while sig is);
                               ///< recomputing it per delta walked every
                               ///< block of the signature again
  /// The last upload's whole-file pricing. Its rope may differ from
  /// `content` (the file is read again when the upload lands); that costs
  /// pricing time, never bytes.
  priced_ptr priced;

  /// Installs `c` as the last-synced content. Only an upload passes the
  /// pricing of its plan; downloads and recovery keep none.
  void assign(content_ref c, priced_ptr p = nullptr) {
    content = std::move(c);
    sig.reset();  // the memoized signature no longer matches
    priced = std::move(p);
  }
};

/// How a planned upload reaches the cloud once its exchange succeeds.
enum class upload_action : std::uint8_t {
  none,   ///< nothing to ship (conflict diverted to a conflicted copy)
  delta,  ///< incremental (rsync) sync of the planned blueprint
  full,   ///< full-file PUT (optionally deduplicated)
};

/// Stable identity of a registered protocol. Values index the selector's
/// pick/correction arrays, so they are small integers; extensions take the
/// next free value.
enum class protocol_id : std::uint8_t {
  full_file = 0,  ///< compressed whole-file PUT
  rsync = 1,      ///< incremental delta sync against the shadow signature
  cdc_dedup = 2,  ///< chunk fingerprints vs the cloud dedup index
};

/// Upper bound on registered protocol ids (array sizing for stats).
inline constexpr std::size_t kMaxProtocols = 8;

const char* to_string(protocol_id id);

/// App-level bytes for one dedup fingerprint on the wire (digest + framing).
inline constexpr std::uint64_t kFingerprintWireBytes = 40;
/// Cloud's per-fingerprint answer ("have it / need it").
inline constexpr std::uint64_t kFingerprintAnswerBytes = 8;

struct upload_plan {
  upload_action act = upload_action::none;
  std::uint64_t payload_up = 0;    ///< wire payload bytes (client → cloud)
  std::uint64_t metadata_up = 0;   ///< fingerprints, delta framing, manifests
  std::uint64_t metadata_down = 0; ///< dedup answers, chunk acks
  std::shared_ptr<const delta_blueprint> blueprint;  ///< when act == delta
  bool dedup_commit = false;  ///< register content in the dedup index
  protocol_id protocol = protocol_id::full_file;  ///< who planned this
  /// Adaptive-mode prediction of (payload_up + metadata_up) at choose time;
  /// < 0 when the selector made no prediction (service-default / forced).
  double predicted_app_up = -1.0;
  /// Duplicate fraction the dedup analysis actually observed (cdc_dedup
  /// plans only; < 0 otherwise). Feeds the selector's hit-rate estimate.
  double observed_dup_fraction = -1.0;
  /// The whole-file LZSS pricing of the content (full_file, and cdc_dedup
  /// when its one new chunk is the whole file), for the shadow to keep.
  priced_ptr priced;
};

/// Everything a protocol may consult while planning, bound per client.
/// Pointers are non-owning and outlive the planning call.
struct planning_env {
  const service_profile* profile = nullptr;
  access_method method = access_method::pc_client;
  cloud* cl = nullptr;
  user_id user = 0;
  bool journaled = false;          ///< uploads ship through chunked sessions
  std::size_t session_chunk_bytes = 0;  ///< recovery chunk size when journaled

  const method_profile& mp() const { return profile->method(method); }
};

/// One update to plan: the path's current content and its sync context.
struct protocol_update {
  const std::string* path = nullptr;
  const content_ref* content = nullptr;
  bool in_cloud = false;             ///< a live manifest exists for the path
  shadow_entry* shadow = nullptr;    ///< last-synced content, or nullptr
  bool force_full = false;           ///< delta path vetoed (degradation)

  bool has_shadow() const {
    return shadow != nullptr && !shadow->content.empty();
  }
};

/// A sync protocol: decides whether it can handle an update and produces the
/// complete transfer plan (wire payload, metadata both ways, apply action).
class sync_protocol {
 public:
  virtual ~sync_protocol() = default;
  virtual protocol_id id() const = 0;
  virtual const char* name() const = 0;
  /// May this protocol plan this update at all? Must be cheap (no content
  /// walks) — the selector calls it for every registered protocol.
  virtual bool eligible(const planning_env& env,
                        const protocol_update& up) const = 0;
  /// Produce the transfer plan. Only called when eligible() returned true.
  virtual upload_plan plan(const planning_env& env,
                           const protocol_update& up) const = 0;
};

/// Process-wide protocol registry: the open extension point. The three
/// built-ins register on first use in id order (full_file, rsync,
/// cdc_dedup); extensions append via register_protocol before clients run.
/// Iteration order is registration order, which is what makes every
/// selector's scan (and its tiebreaks) deterministic.
class protocol_registry {
 public:
  static protocol_registry& instance();

  /// Append a protocol. Must happen before planning starts (typically at
  /// static init or test setup); the registry never reorders or removes.
  void register_protocol(std::unique_ptr<sync_protocol> proto);

  const sync_protocol* find(protocol_id id) const;
  /// Registration-order view (stable: protocols are never unregistered).
  std::vector<const sync_protocol*> all() const;
  std::size_t size() const;

 private:
  protocol_registry();
  struct impl;
  std::unique_ptr<impl> impl_;
};

/// Today's inline branching, expressed as an ordering over the registry:
/// rsync when eligible, else cdc_dedup when eligible, else full_file.
/// This is the byte-identity anchor — service_default mode must reproduce
/// the pre-registry engine exactly.
const sync_protocol& select_service_default(const planning_env& env,
                                            const protocol_update& up);

// ---------------------------------------------------------------------------
// Shared planning helpers (moved out of sync_client so protocols and the
// cost model use the exact memoized computations the engine used inline).
// ---------------------------------------------------------------------------

/// Wire-payload size of `content` under compression `level`, memoized in
/// content_cache::global() under its (content hash, size, level) key; a miss
/// walks the rope through the stream sizer. The planning_env parameter is
/// unused: perfbench wraps this signature.
std::uint64_t shipped_content_size(const planning_env&,
                                   const content_ref& content, int level);

/// Wire-payload size of a planned delta's serialized bytes, memoized in
/// content_cache::global() under its (wire hash, wire size, level) key; a
/// miss walks the delta's wire through the stream sizer. The planning_env
/// parameter is unused, as above.
std::uint64_t shipped_delta_size(const planning_env&,
                                 const delta_blueprint& bp, int level);

/// The signature of a shadow, computing and memoizing it on first use and
/// after every shadow content change (block size from the profile).
const file_signature& shadow_signature(const planning_env& env,
                                       shadow_entry& sh);

/// Observability for the process-wide incremental-sync memos (rsync
/// signatures and delta blueprints): hit/miss counters for bench reports,
/// and a reset so a measurement can start cold.
content_cache_stats signature_memo_stats();
content_cache_stats delta_memo_stats();
void clear_incremental_sync_memos();

}  // namespace cloudsync
