#include "client/sync_protocol.hpp"

#include <mutex>
#include <stdexcept>

#include "client/sync_engine.hpp"

namespace cloudsync {

namespace {
/// The memoizable part of an IDS plan: the delta's event stream
/// (indices and offsets only) plus the identity of its serialized wire form.
/// Deliberately holds no payload bytes and no rope refs — entries live
/// process-wide, and a memo pinning content store chunks would leak them
/// past every experiment teardown (and hold multi-GB literals forever).
struct delta_skeleton {
  std::vector<delta_job::event> events;
  std::uint64_t wire_size = 0;
  std::uint64_t wire_hash = 0;
};

// Process-wide memos for incremental sync. Seeded experiments reproduce the
// same shadow and edited contents across bench cells and services, so the
// per-block MD5 signature work and the rolling-window delta search recur
// identically; both are pure functions of their keys, so sharing the results
// (also across parallel_runner workers) cannot change any output.

using signature_ptr = std::shared_ptr<const file_signature>;

content_memo<signature_ptr>& signature_memo() {
  static content_memo<signature_ptr> memo;
  return memo;
}

using skeleton_ptr = std::shared_ptr<const delta_skeleton>;

content_memo<skeleton_ptr>& delta_memo() {
  static content_memo<skeleton_ptr> memo;
  return memo;
}

/// Salt identifying the old-file side of a delta: folds the signature's full
/// block structure so two different shadows can never share a memo entry.
std::uint64_t signature_salt(const file_signature& sig) {
  std::uint64_t h = mix64(sig.file_size ^
                          sig.block_size * 0x9e3779b97f4a7c15ULL);
  for (const block_signature& b : sig.blocks) {
    h = mix64(h ^ b.weak) ^ b.strong.prefix64();
  }
  return mix64(h);
}
}  // namespace

content_cache_stats signature_memo_stats() { return signature_memo().stats(); }
content_cache_stats delta_memo_stats() { return delta_memo().stats(); }
void clear_incremental_sync_memos() {
  signature_memo().clear();
  delta_memo().clear();
}

const char* to_string(protocol_id id) {
  switch (id) {
    case protocol_id::full_file: return "full_file";
    case protocol_id::rsync: return "rsync";
    case protocol_id::cdc_dedup: return "cdc_dedup";
  }
  return "protocol?";
}

std::uint64_t shipped_content_size(const planning_env&,
                                   const content_ref& content, int level) {
  if (level <= 0 || content.empty()) return content.size();
  return content_cache::global().shipped_size_keyed(
      content.hash64(), content.size(), level,
      [&] { return wire_payload_size_ref(content, level); });
}

namespace {
/// shipped_content_size of an update's whole content, priced from the
/// shadow's last whole-file pricing when it has one. On a memo miss,
/// `priced` takes this pricing when its parse left a summary; a memo hit
/// leaves it null, so the next version parses in full.
std::uint64_t shipped_whole_content(const protocol_update& up, int level,
                                    priced_ptr& priced) {
  const content_ref& content = *up.content;
  if (level <= 0 || content.empty()) return content.size();
  return content_cache::global().shipped_size_keyed(
      content.hash64(), content.size(), level, [&] {
        const priced_version* base =
            up.shadow != nullptr ? up.shadow->priced.get() : nullptr;
        std::shared_ptr<const lzss_summary> summary;
        const std::uint64_t size =
            wire_payload_size_ref(content, level, base, &summary);
        if (summary) {
          priced = std::make_shared<const priced_version>(
              priced_version{content, std::move(summary)});
        }
        return size;
      });
}
}  // namespace

std::uint64_t shipped_delta_size(const planning_env&,
                                 const delta_blueprint& bp, int level) {
  if (level <= 0 || bp.wire_size == 0) return bp.wire_size;
  return content_cache::global().shipped_size_keyed(
      bp.wire_hash, bp.wire_size, level,
      [&] { return wire_payload_size_delta(bp.delta, level); });
}

const file_signature& shadow_signature(const planning_env& env,
                                       shadow_entry& sh) {
  const std::size_t block_size = env.profile->delta_chunk_size;
  if (!sh.sig || sh.sig_block_size != block_size) {
    sh.sig = signature_memo().get_or_compute_keyed(
        sh.content.hash64(), sh.content.size(), block_size,
        [&]() -> signature_ptr {
          return std::make_shared<const file_signature>(
              compute_signature_ref(sh.content, block_size));
        });
    sh.sig_block_size = block_size;
    sh.sig_salt = signature_salt(*sh.sig);
  }
  return *sh.sig;
}

namespace {

/// Does this service/method participate in the dedup protocol at all? Every
/// protocol's plan registers shipped content in the dedup index under the
/// same gate the inline engine used, so the index stays current no matter
/// which protocol carried the bytes (adaptive runs mix them freely).
bool dedup_participates(const planning_env& env) {
  return env.mp().dedup_enabled &&
         env.cl->dedup().policy().granularity != dedup_granularity::none;
}

/// Compressed whole-file PUT: what every service does when it has neither a
/// shadow to delta against nor a dedup index to query.
class full_file_protocol final : public sync_protocol {
 public:
  protocol_id id() const override { return protocol_id::full_file; }
  const char* name() const override { return "full_file"; }

  bool eligible(const planning_env&, const protocol_update&) const override {
    return true;  // the universal fallback
  }

  upload_plan plan(const planning_env& env,
                   const protocol_update& up) const override {
    const method_profile& mp = env.mp();
    upload_plan plan;
    plan.dedup_commit = dedup_participates(env);
    plan.payload_up =
        shipped_whole_content(up, mp.upload_compression_level, plan.priced);
    plan.metadata_up = static_cast<std::uint64_t>(
        static_cast<double>(plan.payload_up) * mp.per_payload_metadata);
    plan.act = upload_action::full;
    plan.protocol = id();
    return plan;
  }
};

/// Incremental (rsync) sync — PC clients of Dropbox/SugarSync (§4.3).
/// Requires the previous synced version locally (the shadow); web and
/// mobile clients never have one.
class rsync_protocol final : public sync_protocol {
 public:
  protocol_id id() const override { return protocol_id::rsync; }
  const char* name() const override { return "rsync"; }

  bool eligible(const planning_env& env,
                const protocol_update& up) const override {
    return !up.force_full && env.mp().incremental_sync && up.in_cloud &&
           up.has_shadow();
  }

  upload_plan plan(const planning_env& env,
                   const protocol_update& up) const override {
    const method_profile& mp = env.mp();
    const content_ref& content = *up.content;
    shadow_entry& sh = *up.shadow;
    upload_plan plan;
    plan.dedup_commit = dedup_participates(env);

    const file_signature& sig = shadow_signature(env, sh);
    auto plan_skeleton = [&]() -> skeleton_ptr {
      auto sk = std::make_shared<delta_skeleton>();
      sk->events = compute_delta_events(sig, content);
      const file_delta d =
          delta_from_events(sig.block_size, content, sk->events);
      sk->wire_size = delta_wire_size(d);
      content_hasher64 h;
      walk_delta_wire(d, [&](byte_view v) { h.update(v); });
      sk->wire_hash = h.finish();
      return sk;
    };
    // Key: the new content (hashed) + the old file's identity (salt, cached
    // alongside the signature), which together determine the delta exactly.
    // The memo stores the ref-free skeleton; the blueprint's rope refs are
    // re-bound to this plan's content and die with the plan.
    const skeleton_ptr sk = delta_memo().get_or_compute_keyed(
        content.hash64(), content.size(), sh.sig_salt, plan_skeleton);
    auto bp = std::make_shared<delta_blueprint>();
    bp->delta = delta_from_events(sig.block_size, content, sk->events);
    bp->wire_size = sk->wire_size;
    bp->wire_hash = sk->wire_hash;
    plan.blueprint = std::move(bp);
    // The delta's literal regions are compressed like any upload.
    plan.payload_up =
        shipped_delta_size(env, *plan.blueprint, mp.upload_compression_level);
    plan.metadata_up = static_cast<std::uint64_t>(
        static_cast<double>(plan.payload_up) * mp.per_payload_metadata);
    plan.act = upload_action::delta;
    plan.protocol = id();
    return plan;
  }
};

/// Full-file upload through the dedup protocol (§5.2): ship chunk
/// fingerprints, receive have/need answers, transfer only the new chunks.
/// Granularity (full-file / fixed / content-defined) comes from the cloud's
/// dedup policy.
class cdc_dedup_protocol final : public sync_protocol {
 public:
  protocol_id id() const override { return protocol_id::cdc_dedup; }
  const char* name() const override { return "cdc_dedup"; }

  bool eligible(const planning_env& env,
                const protocol_update&) const override {
    return dedup_participates(env);
  }

  upload_plan plan(const planning_env& env,
                   const protocol_update& up) const override {
    const method_profile& mp = env.mp();
    const content_ref& content = *up.content;
    upload_plan plan;
    plan.dedup_commit = true;  // eligible() implies participation

    const dedup_result res = env.cl->dedup().analyze(env.user, content);
    plan.metadata_up += res.fingerprints_sent * kFingerprintWireBytes;
    plan.metadata_down += res.fingerprints_sent * kFingerprintAnswerBytes;
    std::uint64_t payload = 0;
    for (const chunk_ref& c : res.new_chunks) {
      payload += c.size == content.size()
                     ? shipped_whole_content(up, mp.upload_compression_level,
                                             plan.priced)
                     : shipped_content_size(
                           env, content.substr(c.offset, c.size),
                           mp.upload_compression_level);
    }
    plan.payload_up = payload;
    plan.metadata_up += static_cast<std::uint64_t>(
        static_cast<double>(payload) * mp.per_payload_metadata);
    plan.act = upload_action::full;
    plan.protocol = id();
    if (content.size() > 0) {
      plan.observed_dup_fraction =
          static_cast<double>(res.duplicate_bytes) /
          static_cast<double>(content.size());
    }
    return plan;
  }
};

}  // namespace

struct protocol_registry::impl {
  mutable std::mutex mu;
  std::vector<std::unique_ptr<sync_protocol>> protocols;
};

protocol_registry::protocol_registry() : impl_(std::make_unique<impl>()) {
  // Built-ins in id order: the scan order of every selector, and therefore
  // the deterministic tiebreak (lowest id wins equal predicted cost).
  impl_->protocols.push_back(std::make_unique<full_file_protocol>());
  impl_->protocols.push_back(std::make_unique<rsync_protocol>());
  impl_->protocols.push_back(std::make_unique<cdc_dedup_protocol>());
}

protocol_registry& protocol_registry::instance() {
  static protocol_registry reg;
  return reg;
}

void protocol_registry::register_protocol(
    std::unique_ptr<sync_protocol> proto) {
  if (proto == nullptr) throw std::invalid_argument("null protocol");
  std::lock_guard<std::mutex> lock(impl_->mu);
  if (static_cast<std::size_t>(proto->id()) >= kMaxProtocols) {
    throw std::invalid_argument("protocol id beyond kMaxProtocols");
  }
  for (const auto& p : impl_->protocols) {
    if (p->id() == proto->id()) {
      throw std::invalid_argument("duplicate protocol id");
    }
  }
  impl_->protocols.push_back(std::move(proto));
}

const sync_protocol* protocol_registry::find(protocol_id id) const {
  std::lock_guard<std::mutex> lock(impl_->mu);
  for (const auto& p : impl_->protocols) {
    if (p->id() == id) return p.get();
  }
  return nullptr;
}

std::vector<const sync_protocol*> protocol_registry::all() const {
  std::lock_guard<std::mutex> lock(impl_->mu);
  std::vector<const sync_protocol*> out;
  out.reserve(impl_->protocols.size());
  for (const auto& p : impl_->protocols) out.push_back(p.get());
  return out;
}

std::size_t protocol_registry::size() const {
  std::lock_guard<std::mutex> lock(impl_->mu);
  return impl_->protocols.size();
}

const sync_protocol& select_service_default(const planning_env& env,
                                            const protocol_update& up) {
  protocol_registry& reg = protocol_registry::instance();
  // Exactly the pre-registry engine's branching: incremental sync first,
  // then the dedup protocol, then a plain compressed PUT.
  const sync_protocol* rs = reg.find(protocol_id::rsync);
  if (rs != nullptr && rs->eligible(env, up)) return *rs;
  const sync_protocol* dd = reg.find(protocol_id::cdc_dedup);
  if (dd != nullptr && dd->eligible(env, up)) return *dd;
  return *reg.find(protocol_id::full_file);
}

}  // namespace cloudsync
