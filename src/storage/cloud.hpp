// The cloud: RESTful object store + metadata service + dedup index behind
// one façade, with two selectable IDS substrates (paper §4.3 / §7):
//
//   whole-object (default) — files are single objects; a MODIFY goes through
//     the mid-layer as GET + patch + PUT + DELETE (what Dropbox does on S3).
//   chunk store  — Cumulus-style manifests over reference-counted chunk
//     objects; a MODIFY PUTs only the new chunks.
#pragma once

#include <map>
#include <memory>
#include <optional>
#include <string>

#include "chunking/rsync.hpp"
#include "dedup/dedup_engine.hpp"
#include "storage/chunk_backend.hpp"
#include "storage/metadata_service.hpp"
#include "storage/object_store.hpp"

namespace cloudsync {

class fault_injector;

/// Server-issued handle for a resumable upload session (0 is never issued).
using resume_token = std::uint64_t;

/// What the server remembers about an upload session — exactly what a
/// restarted client learns from one metadata round trip before resuming.
struct upload_session_status {
  std::uint32_t total_chunks = 0;
  std::uint32_t acked_chunks = 0;   ///< contiguous prefix the server holds
  std::uint32_t acked_total = 0;    ///< acked chunks incl. out-of-order holes
  std::uint64_t acked_bytes = 0;    ///< wire bytes already paid for
  std::uint64_t payload_bytes = 0;  ///< declared size of the full payload
};

struct cloud_config {
  dedup_policy dedup = dedup_policy::disabled();
  /// Select the Cumulus-style chunk-store substrate instead of whole-file
  /// objects. Note: the chunk store garbage-collects superseded versions
  /// (reference counting), while the whole-object store retains full version
  /// history for rollback.
  bool use_chunk_store = false;
  std::size_t chunk_store_chunk_size = 512 * 1024;
};

class cloud {
 public:
  explicit cloud(cloud_config cfg = {});

  /// Register a client device for notification fan-out.
  device_id attach_device(user_id user) { return meta_.register_device(user); }

  /// Attach (or detach) a fault injector: commits, deltas, and deletes may
  /// then be rejected with a thrown `transient_fault` (transient server
  /// error / throttle) *before* any state changes, so a retried operation
  /// observes exactly the state the failed attempt saw. Also forwarded to
  /// the metadata service (throttled notification polls).
  void set_fault_injector(fault_injector* faults);

  /// Full-file commit: replaces (or creates) `path` with `content`.
  /// `stored_size` is the representation size the client shipped (compressed
  /// payload or deduplicated remainder) — kept for accounting. The stored
  /// version shares the caller's chunks (CoW).
  void put_file(user_id user, device_id source, const std::string& path,
                const content_ref& content, std::uint64_t stored_size,
                sim_time now);
  void put_file(user_id user, device_id source, const std::string& path,
                byte_buffer content, std::uint64_t stored_size, sim_time now) {
    put_file(user, source, path, content_ref::from_buffer(std::move(content)),
             stored_size, now);
  }

  /// IDS commit. Whole-object substrate: GET the old object, patch, PUT the
  /// new version, DELETE the old one. Chunk substrate: PUT new chunks and
  /// rewrite the manifest. Throws if the file does not exist in the cloud.
  void apply_file_delta(user_id user, device_id source,
                        const std::string& path, const file_delta& delta,
                        sim_time now);

  /// Fake deletion (attribute flip; content retained). Returns false if the
  /// path is unknown or already deleted.
  bool delete_file(user_id user, device_id source, const std::string& path,
                   sim_time now);

  // ── Resumable upload sessions ────────────────────────────────────────────
  // Ranged/chunked uploads with server-side progress, so a restarted client
  // pays only the un-acked suffix plus one metadata round trip (the paper's
  // §5 restart waste, avoided). A session tracks the contiguous prefix of
  // wire chunks it has acked; finalizing performs the ordinary commit
  // (put/delta/delete semantics unchanged) and retires the session. Every
  // session entry point is subject to the same transient server faults as
  // direct commits, checked before any state changes.

  /// Open a session for `total_chunks` chunks totalling `payload_bytes`.
  /// Returns the token the client journals for crash recovery.
  resume_token begin_upload_session(user_id user, const std::string& path,
                                    std::uint32_t total_chunks,
                                    std::uint64_t payload_bytes, sim_time now);

  /// Ack chunk `index` (`bytes` wire bytes) of an open session. Chunks may
  /// arrive in any order (a striped transfer lands them across K parallel
  /// connections); re-acking a chunk or acking past total_chunks throws
  /// std::logic_error (client bug, not a fault).
  void upload_session_chunk(resume_token token, std::uint32_t index,
                            std::uint64_t bytes, sim_time now);

  /// Progress of an open session — the recovery metadata round trip.
  upload_session_status query_upload_session(resume_token token, sim_time now);

  /// Commit the session as a full-file PUT. Requires all chunks acked.
  void finalize_session_put(resume_token token, user_id user, device_id source,
                            const std::string& path, const content_ref& content,
                            std::uint64_t stored_size, sim_time now);
  void finalize_session_put(resume_token token, user_id user, device_id source,
                            const std::string& path, byte_buffer content,
                            std::uint64_t stored_size, sim_time now) {
    finalize_session_put(token, user, source, path,
                         content_ref::from_buffer(std::move(content)),
                         stored_size, now);
  }

  /// Commit the session as an IDS delta. Requires all chunks acked.
  void finalize_session_delta(resume_token token, user_id user,
                              device_id source, const std::string& path,
                              const file_delta& delta, sim_time now);

  /// Retire a session whose side effects were applied elsewhere (BDS batch
  /// exchanges: the payload rode the session, the applies already committed).
  void finalize_session_empty(resume_token token, sim_time now);

  /// Drop a session without committing (recovery discards stale work).
  /// Idempotent; unknown tokens are ignored. Never faults — modelled as a
  /// local forget on the server (sessions expire server-side in reality).
  void abandon_upload_session(resume_token token);

  /// Open (un-finalized) sessions — the invariant checker requires zero
  /// after quiescence.
  std::size_t open_session_count() const { return sessions_.size(); }

  /// Whether `token` still names an open session (recovery checks before
  /// paying the query round trip; sessions here never expire on their own).
  bool session_open(resume_token token) const {
    return sessions_.count(token) != 0;
  }

  /// Canonical (uncompressed) content of the current version, if live.
  /// Whole-object substrate: a handle aliasing the stored version. Chunk
  /// substrate: a rope assembled over the stored chunks. Either way no bytes
  /// are copied, and the handle stays valid across later commits (it pins
  /// the chunks it references) — the old byte_view accessor could dangle.
  std::optional<content_ref> file_content(user_id user,
                                          const std::string& path) const;

  const file_manifest* manifest(user_id user, const std::string& path) const {
    return meta_.lookup(user, path);
  }

  dedup_engine& dedup() { return dedup_; }
  const dedup_engine& dedup() const { return dedup_; }
  metadata_service& metadata() { return meta_; }
  const metadata_service& metadata() const { return meta_; }
  const object_store& store() const { return store_; }
  object_store& store() { return store_; }
  bool uses_chunk_store() const { return chunks_ != nullptr; }
  const chunk_backend* chunk_store() const { return chunks_.get(); }

 private:
  struct upload_session {
    user_id user = 0;
    std::string path;
    upload_session_status status;
    /// Per-chunk ack bits (lazily sized): striped transfers land chunks out
    /// of order, so the server tracks exactly which indices it holds.
    std::vector<std::uint8_t> acked;
  };

  std::string object_key(user_id user, const std::string& path,
                         std::uint64_t version) const;
  /// Throws transient_fault when the injector decides this server operation
  /// fails; called at the top of every mutating entry point.
  void check_server_fault(sim_time now);
  upload_session& must_session(resume_token token);
  /// Validate all chunks acked, then retire the session.
  void close_session(resume_token token);
  // Commit bodies shared by the direct entry points (which fault-check first)
  // and the session finalizers (which fault-check before closing the
  // session, then must not fail). `session_chunks` > 0 means the content
  // arrived through an upload session in that many ranges: on the chunk
  // substrate the server persists each received range as its own chunk
  // object (put_ranges) instead of re-buffering the payload and re-splitting
  // it at the backend's fixed granularity.
  void put_file_unchecked(user_id user, device_id source,
                          const std::string& path, const content_ref& content,
                          std::uint64_t stored_size, sim_time now,
                          std::uint32_t session_chunks = 0);
  void apply_file_delta_unchecked(user_id user, device_id source,
                                  const std::string& path,
                                  const file_delta& delta, sim_time now);

  object_store store_;
  metadata_service meta_;
  dedup_engine dedup_;
  std::unique_ptr<chunk_backend> chunks_;  ///< null = whole-object substrate
  fault_injector* faults_ = nullptr;       ///< non-owning
  std::map<resume_token, upload_session> sessions_;
  resume_token next_token_ = 1;
};

}  // namespace cloudsync
