#include "storage/cloud.hpp"

#include <stdexcept>

#include "net/fault_injector.hpp"

namespace cloudsync {

namespace {

/// Near-equal split of `size` content bytes into `chunks` ranges. Session
/// chunk boundaries live in compressed wire space, so they cannot be mapped
/// onto the decoded content exactly; the even split models the server
/// persisting each received range without re-buffering. Returns empty (the
/// caller falls back to put_full) when there was no session or the content
/// is too small to give every range at least one byte.
std::vector<std::uint64_t> session_ranges(std::uint64_t size,
                                          std::uint32_t chunks) {
  if (chunks == 0 || size < chunks) return {};
  std::vector<std::uint64_t> ranges(chunks, size / chunks);
  for (std::uint64_t i = 0; i < size % chunks; ++i) ++ranges[i];
  return ranges;
}

}  // namespace

cloud::cloud(cloud_config cfg) : dedup_(cfg.dedup) {
  if (cfg.use_chunk_store) {
    chunks_ =
        std::make_unique<chunk_backend>(store_, cfg.chunk_store_chunk_size);
  }
}

void cloud::set_fault_injector(fault_injector* faults) {
  faults_ = faults;
  meta_.set_fault_injector(faults);
}

void cloud::check_server_fault(sim_time now) {
  if (faults_ == nullptr || !faults_->enabled()) return;
  if (const auto kind = faults_->sample_server_fault()) {
    const sim_time hint = *kind == fault_kind::server_throttle
                              ? now + faults_->throttle_retry_after()
                              : sim_time{};
    throw transient_fault(*kind, now, hint);
  }
}

std::string cloud::object_key(user_id user, const std::string& path,
                              std::uint64_t version) const {
  return "u" + std::to_string(user) + "/" + path + "/v" +
         std::to_string(version);
}

void cloud::put_file(user_id user, device_id source, const std::string& path,
                     const content_ref& content, std::uint64_t stored_size,
                     sim_time now) {
  check_server_fault(now);
  put_file_unchecked(user, source, path, content, stored_size, now);
}

void cloud::put_file_unchecked(user_id user, device_id source,
                               const std::string& path,
                               const content_ref& content,
                               std::uint64_t stored_size, sim_time now,
                               std::uint32_t session_chunks) {
  const file_manifest* old = meta_.lookup(user, path);
  const std::uint64_t version = old ? old->version + 1 : 1;

  file_manifest man;
  man.object_key = object_key(user, path, version);
  man.logical_size = content.size();
  man.stored_size = stored_size;
  man.version = version;
  man.modified_at = now;

  if (chunks_) {
    const auto ranges = session_ranges(content.size(), session_chunks);
    if (!ranges.empty()) {
      chunks_->put_ranges(man.object_key, content, ranges);
    } else {
      chunks_->put_full(man.object_key, content);
    }
    if (old && !old->deleted) chunks_->release(old->object_key);
  } else {
    // RESTful update: PUT new version, DELETE superseded object.
    store_.put(man.object_key, content);
    if (old && !old->deleted) store_.remove(old->object_key);
  }

  meta_.commit(user, source, path, std::move(man));
}

void cloud::apply_file_delta(user_id user, device_id source,
                             const std::string& path, const file_delta& delta,
                             sim_time now) {
  check_server_fault(now);
  apply_file_delta_unchecked(user, source, path, delta, now);
}

void cloud::apply_file_delta_unchecked(user_id user, device_id source,
                                       const std::string& path,
                                       const file_delta& delta, sim_time now) {
  const file_manifest* old = meta_.lookup(user, path);
  if (old == nullptr || old->deleted) {
    throw std::runtime_error("cloud: delta for unknown file: " + path);
  }

  file_manifest man;
  man.version = old->version + 1;
  man.object_key = object_key(user, path, man.version);
  man.logical_size = delta.new_file_size;
  man.stored_size = delta.literal_bytes();
  man.modified_at = now;

  if (chunks_) {
    // Chunk substrate: new chunks + manifest rewrite; no whole-file GET.
    chunks_->apply_delta(old->object_key, man.object_key, delta);
    chunks_->release(old->object_key);
  } else {
    // Mid-layer transformation of MODIFY: GET + patch + PUT + DELETE. The
    // patched version shares every unchanged block with its predecessor, so
    // the retained history costs O(changed bytes) per version.
    const auto old_content = store_.get(old->object_key);
    if (!old_content) {
      throw std::runtime_error("cloud: backing object missing: " + path);
    }
    store_.put(man.object_key, apply_delta_ref(*old_content, delta));
    store_.remove(old->object_key);
  }

  meta_.commit(user, source, path, std::move(man));
}

bool cloud::delete_file(user_id user, device_id source,
                        const std::string& path, sim_time now) {
  check_server_fault(now);
  const file_manifest* man = meta_.lookup(user, path);
  if (man == nullptr || man->deleted) return false;
  // Attribute change only: the object remains for rollback (§4.2).
  return meta_.mark_deleted(user, source, path, now);
}

resume_token cloud::begin_upload_session(user_id user, const std::string& path,
                                         std::uint32_t total_chunks,
                                         std::uint64_t payload_bytes,
                                         sim_time now) {
  check_server_fault(now);
  const resume_token token = next_token_++;
  upload_session s;
  s.user = user;
  s.path = path;
  s.status.total_chunks = total_chunks;
  s.status.payload_bytes = payload_bytes;
  sessions_.emplace(token, std::move(s));
  return token;
}

cloud::upload_session& cloud::must_session(resume_token token) {
  auto it = sessions_.find(token);
  if (it == sessions_.end()) {
    throw std::logic_error("cloud: unknown upload session");
  }
  return it->second;
}

void cloud::upload_session_chunk(resume_token token, std::uint32_t index,
                                 std::uint64_t bytes, sim_time now) {
  check_server_fault(now);
  auto& s = must_session(token);
  if (index >= s.status.total_chunks) {
    throw std::logic_error("cloud: session chunk out of range");
  }
  if (s.acked.empty()) s.acked.assign(s.status.total_chunks, 0);
  if (s.acked[index] != 0) {
    throw std::logic_error("cloud: duplicate session chunk");
  }
  s.acked[index] = 1;
  ++s.status.acked_total;
  s.status.acked_bytes += bytes;
  while (s.status.acked_chunks < s.status.total_chunks &&
         s.acked[s.status.acked_chunks] != 0) {
    ++s.status.acked_chunks;
  }
}

upload_session_status cloud::query_upload_session(resume_token token,
                                                  sim_time now) {
  check_server_fault(now);
  return must_session(token).status;
}

void cloud::close_session(resume_token token) {
  const auto& s = must_session(token);
  if (s.status.acked_total != s.status.total_chunks) {
    throw std::logic_error("cloud: finalize with un-acked chunks");
  }
  sessions_.erase(token);
}

void cloud::finalize_session_put(resume_token token, user_id user,
                                 device_id source, const std::string& path,
                                 const content_ref& content,
                                 std::uint64_t stored_size, sim_time now) {
  // Fault-check before closing the session: a rejected finalize leaves the
  // session (and its acked chunks) intact for the retry.
  check_server_fault(now);
  const std::uint32_t session_chunks = must_session(token).status.total_chunks;
  close_session(token);
  put_file_unchecked(user, source, path, content, stored_size, now,
                     session_chunks);
}

void cloud::finalize_session_delta(resume_token token, user_id user,
                                   device_id source, const std::string& path,
                                   const file_delta& delta, sim_time now) {
  check_server_fault(now);
  close_session(token);
  apply_file_delta_unchecked(user, source, path, delta, now);
}

void cloud::finalize_session_empty(resume_token token, sim_time now) {
  check_server_fault(now);
  close_session(token);
}

void cloud::abandon_upload_session(resume_token token) {
  sessions_.erase(token);
}

std::optional<content_ref> cloud::file_content(user_id user,
                                               const std::string& path) const {
  const file_manifest* man = meta_.lookup(user, path);
  if (man == nullptr || man->deleted) return std::nullopt;
  if (chunks_) {
    return chunks_->materialize(man->object_key);
  }
  return store_.get(man->object_key);
}

}  // namespace cloudsync
