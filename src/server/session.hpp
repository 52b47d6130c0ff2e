// Session-side half of the sharded multi-tenant sync server: the explicit
// lifecycle a sync transaction moves through
// (idle → computing_diff → transferring → applying → complete/failed),
// the batched RPC shapes it exchanges with the server, and the deterministic
// workload generator that lets one process drive thousands of concurrent
// sessions.
//
// Determinism contract (what the bench's identity legs rely on): every byte a
// session puts on the wire is a pure function of that session's OWN workload
// and the server state that session itself created — dedup scopes are
// per-user, namespaces are per-user, and each user runs at most one session
// per wave. Traffic and dedup outcomes are therefore byte-identical whatever
// the shard count or driver-thread interleaving; only wall-clock timings and
// shard placement vary, and those are excluded from the identity digest.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "dedup/fingerprint.hpp"
#include "net/traffic_meter.hpp"
#include "store/content_ref.hpp"

namespace cloudsync {

class sync_server;

/// Lifecycle of one sync transaction. `idle` is the between-waves resting
/// state; `failed` absorbs verify rejections and admission teardown.
enum class session_state : std::uint8_t {
  idle,
  computing_diff,  ///< client-local: fingerprinting the changed files
  transferring,    ///< shipping payload the server's diff asked for
  applying,        ///< server committing manifests + dedup references
  complete,
  failed,
};
inline constexpr std::size_t kSessionStateCount = 6;

const char* to_string(session_state s);

// Wire cost model for the server RPCs, mirroring core/cost_model.hpp's
// spirit: framing is a fixed envelope per round trip plus a small per-entry
// record. Batching a whole sync transaction into one RPC pays the envelope
// once — the measurable win of commit_batch over per-file commits.
inline constexpr std::uint64_t kRpcEnvelopeBytes = 180;   ///< request framing + auth
inline constexpr std::uint64_t kRpcResponseBytes = 60;    ///< response framing
inline constexpr std::uint64_t kSnapshotEntryBytes = 44;  ///< path hash + fingerprint + size
inline constexpr std::uint64_t kDiffVerdictBytes = 5;     ///< per-entry upload/duplicate verdict
inline constexpr std::uint64_t kManifestEntryBytes = 52;  ///< path hash + fp + key + sizes
inline constexpr std::uint64_t kAckBytes = 24;            ///< commit / upload acknowledgement

/// One file of a session's pending change set. Content is identified by a
/// generator seed; its bytes are generated when the session first resolves
/// the identity (identity_for).
struct session_file {
  std::string path;
  std::uint64_t content_seed = 0;
  std::uint32_t size = 0;
};

/// Everything one session will sync this wave.
struct session_workload {
  std::uint32_t user = 0;
  std::vector<session_file> files;
};

/// Client→server diff RPC: the session's view of its changed files.
struct snapshot_entry {
  std::string path;
  fingerprint fp;
  std::uint64_t size = 0;
};
struct diff_request {
  std::uint32_t user = 0;
  std::vector<snapshot_entry> entries;
};
/// Server→client verdicts, as indexes into diff_request::entries.
struct diff_response {
  std::vector<std::uint32_t> upload;     ///< content the server lacks
  std::vector<std::uint32_t> duplicate;  ///< deduplicated server-side, skip payload
};

/// One payload unit of the transferring phase.
struct upload_item {
  std::string path;
  std::string object_key;  ///< chunk-store key (whole objects: user + fp)
  content_ref content;
  fingerprint fp;
};

/// Resolved content identity: the bytes behind a (seed, size) pair, plus the
/// fingerprint the dedup index sees, taken over those very bytes. Memoized
/// process-wide so the thousands of sessions sharing a pooled identity share
/// one generated chunk and one SHA-256 computation.
struct content_identity {
  content_ref content;
  fingerprint fp;
};
content_identity identity_for(std::uint64_t seed, std::uint32_t size);

/// Deterministic size for a content seed (so identity is a function of the
/// seed alone): uniform in [mean/4, 2*mean], never zero.
std::uint32_t size_for_seed(std::uint64_t seed, std::uint32_t mean_bytes);

/// Knobs for the synthetic multi-tenant workload. A user *population* with an
/// arriving fraction keeps per-user server state O(arrivals), not O(population)
/// — how the bench reaches 1M-user grids in one process.
struct workload_params {
  std::uint64_t seed = 1;
  std::uint32_t user_population = 10'000;
  std::uint32_t sessions = 1'000;  ///< arriving users this wave (<= population)
  std::uint32_t files_per_session = 4;
  std::uint32_t mean_file_bytes = 16 * 1024;
  std::uint32_t identity_pool = 512;   ///< distinct shared identities fleet-wide
  double p_pool_identity = 0.5;        ///< file draws a zipf-pooled identity
  double p_repeat_in_session = 0.1;    ///< file repeats an earlier in-session identity
};

/// Generate the wave: `sessions` distinct users stride-sampled from the
/// population, each with a seeded per-user file list. Pure function of params.
std::vector<session_workload> make_session_workloads(const workload_params& p);

struct session_timings {
  /// Wall nanoseconds spent in each lifecycle state (indexed by
  /// session_state). Excluded from the identity digest.
  std::array<std::uint64_t, kSessionStateCount> ns{};
};

/// Outcome of one session. Traffic/dedup fields are deterministic (hashed by
/// the bench's identity legs); timing/placement fields are not.
struct session_result {
  std::uint32_t user = 0;
  std::uint64_t update_bytes = 0;  ///< logical data update size (TUE denominator)
  traffic_meter meter;             ///< this session's wire bytes by category
  std::uint32_t files = 0;
  std::uint32_t files_uploaded = 0;
  std::uint32_t dedup_hits = 0;
  bool failed = false;

  // --- nondeterministic (excluded from identity) ---
  session_timings timings;
  std::uint64_t latency_ns = 0;     ///< admission request → completion
  std::uint64_t queue_wait_ns = 0;  ///< blocked at the shard admission queue
  std::uint32_t shard = 0;
};

struct session_options {
  /// Batched metadata RPC (one envelope per transaction) vs one commit RPC
  /// per file — the paper's metadata-overhead knob, server edition.
  bool batch_metadata = true;
};

/// Drive one session through its full lifecycle against `server`.
/// Thread-safe per the server's sharding: any number of sessions may run
/// concurrently from any threads.
session_result run_session(sync_server& server, const session_workload& work,
                           const session_options& opts = {});

/// Order-independent digest of the deterministic fields of a result set:
/// serializes results sorted by user id, excluding timings/placement.
/// Byte-identical across shard counts and driver-thread counts.
std::uint64_t results_identity_hash(const std::vector<session_result>& results);

}  // namespace cloudsync
