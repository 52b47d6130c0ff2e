// Layer spans for the traced binary only: each wrapper opens a span around
// the real call. The layer a symbol feeds is the table in README.md; every
// WRAP(<mangled>) here becomes a --wrap option of perfbench_traced.
#include "wrap.hpp"

#include "chunking/rsync.hpp"
#include "client/protocol_cost.hpp"
#include "client/sync_engine.hpp"
#include "client/sync_protocol.hpp"
#include "compress/lzss.hpp"
#include "dedup/dedup_engine.hpp"
#include "net/tcp_model.hpp"
#include "pipeline/byte_pipeline.hpp"
#include "storage/cloud.hpp"
#include "trace/generator.hpp"
#include "util/md5.hpp"
#include "util/rng.hpp"
#include "util/sha256.hpp"

using namespace cloudsync;

namespace perfbench::wraps {

// --- util.sha256 -----------------------------------------------------------
sha256_hasher& real_sha256_update(sha256_hasher*, byte_view)
    REAL(_ZN9cloudsync13sha256_hasher6updateESt4spanIKhLm18446744073709551615EE);
sha256_hasher& wrap_sha256_update(sha256_hasher*, byte_view)
    WRAP(_ZN9cloudsync13sha256_hasher6updateESt4spanIKhLm18446744073709551615EE);
sha256_hasher& wrap_sha256_update(sha256_hasher* self, byte_view data) {
  const span s(layer::sha256, data.size());
  return real_sha256_update(self, data);
}

sha256_digest real_sha256(byte_view)
    REAL(_ZN9cloudsync6sha256ESt4spanIKhLm18446744073709551615EE);
sha256_digest wrap_sha256(byte_view)
    WRAP(_ZN9cloudsync6sha256ESt4spanIKhLm18446744073709551615EE);
sha256_digest wrap_sha256(byte_view data) {
  const span s(layer::sha256, data.size());
  return real_sha256(data);
}

// --- util.md5 --------------------------------------------------------------
md5_hasher& real_md5_update(md5_hasher*, byte_view)
    REAL(_ZN9cloudsync10md5_hasher6updateESt4spanIKhLm18446744073709551615EE);
md5_hasher& wrap_md5_update(md5_hasher*, byte_view)
    WRAP(_ZN9cloudsync10md5_hasher6updateESt4spanIKhLm18446744073709551615EE);
md5_hasher& wrap_md5_update(md5_hasher* self, byte_view data) {
  const span s(layer::md5, data.size());
  return real_md5_update(self, data);
}

md5_digest real_md5(byte_view)
    REAL(_ZN9cloudsync3md5ESt4spanIKhLm18446744073709551615EE);
md5_digest wrap_md5(byte_view)
    WRAP(_ZN9cloudsync3md5ESt4spanIKhLm18446744073709551615EE);
md5_digest wrap_md5(byte_view data) {
  const span s(layer::md5, data.size());
  return real_md5(data);
}

// --- util.payload_gen ------------------------------------------------------
byte_buffer real_synthetic_payload(rng&, std::size_t, double)
    REAL(_ZN9cloudsync17synthetic_payloadERNS_3rngEmd);
byte_buffer wrap_synthetic_payload(rng&, std::size_t, double)
    WRAP(_ZN9cloudsync17synthetic_payloadERNS_3rngEmd);
byte_buffer wrap_synthetic_payload(rng& r, std::size_t n, double ratio) {
  const span s(layer::payload_gen, n);
  return real_synthetic_payload(r, n, ratio);
}

byte_buffer real_random_bytes(rng&, std::size_t)
    REAL(_ZN9cloudsync12random_bytesERNS_3rngEm);
byte_buffer wrap_random_bytes(rng&, std::size_t)
    WRAP(_ZN9cloudsync12random_bytesERNS_3rngEm);
byte_buffer wrap_random_bytes(rng& r, std::size_t n) {
  const span s(layer::payload_gen, n);
  return real_random_bytes(r, n);
}

// --- compress.lzss_sizer ---------------------------------------------------
// The constructor allocates the sizer's ~1.4 MB history and hash chains, a
// per-call cost that dominates on small files, so it is timed with feed().
void real_lzss_ctor(lzss_stream_sizer*, std::uint64_t, lzss_params)
    REAL(_ZN9cloudsync17lzss_stream_sizerC1EmNS_11lzss_paramsE);
void wrap_lzss_ctor(lzss_stream_sizer*, std::uint64_t, lzss_params)
    WRAP(_ZN9cloudsync17lzss_stream_sizerC1EmNS_11lzss_paramsE);
void wrap_lzss_ctor(lzss_stream_sizer* self, std::uint64_t total_size,
                    lzss_params params) {
  const span s(layer::lzss_sizer, 0);
  real_lzss_ctor(self, total_size, params);
}

std::uint64_t real_lzss_finish(lzss_stream_sizer*)
    REAL(_ZN9cloudsync17lzss_stream_sizer6finishEv);
std::uint64_t wrap_lzss_finish(lzss_stream_sizer*)
    WRAP(_ZN9cloudsync17lzss_stream_sizer6finishEv);
std::uint64_t wrap_lzss_finish(lzss_stream_sizer* self) {
  const span s(layer::lzss_sizer, 0);
  return real_lzss_finish(self);
}

void real_lzss_feed(lzss_stream_sizer*, byte_view)
    REAL(_ZN9cloudsync17lzss_stream_sizer4feedESt4spanIKhLm18446744073709551615EE);
void wrap_lzss_feed(lzss_stream_sizer*, byte_view)
    WRAP(_ZN9cloudsync17lzss_stream_sizer4feedESt4spanIKhLm18446744073709551615EE);
void wrap_lzss_feed(lzss_stream_sizer* self, byte_view window) {
  const span s(layer::lzss_sizer, window.size());
  real_lzss_feed(self, window);
}

// --- chunking.signature ----------------------------------------------------
file_signature real_signature_ref(const content_ref&, std::size_t)
    REAL(_ZN9cloudsync21compute_signature_refERKNS_11content_refEm);
file_signature wrap_signature_ref(const content_ref&, std::size_t)
    WRAP(_ZN9cloudsync21compute_signature_refERKNS_11content_refEm);
file_signature wrap_signature_ref(const content_ref& data,
                                  std::size_t block_size) {
  const span s(layer::signature, data.size());
  return real_signature_ref(data, block_size);
}

// --- chunking.delta --------------------------------------------------------
std::vector<delta_job::event> real_delta_events(const file_signature&,
                                                const content_ref&,
                                                std::size_t)
    REAL(_ZN9cloudsync20compute_delta_eventsERKNS_14file_signatureERKNS_11content_refEm);
std::vector<delta_job::event> wrap_delta_events(const file_signature&,
                                                const content_ref&,
                                                std::size_t)
    WRAP(_ZN9cloudsync20compute_delta_eventsERKNS_14file_signatureERKNS_11content_refEm);
std::vector<delta_job::event> wrap_delta_events(const file_signature& sig,
                                                const content_ref& data,
                                                std::size_t window_bytes) {
  const span s(layer::delta, data.size());
  return real_delta_events(sig, data, window_bytes);
}

// --- dedup.analyze ---------------------------------------------------------
dedup_result real_dedup_analyze_ref(const dedup_engine*, user_id,
                                    const content_ref&)
    REAL(_ZNK9cloudsync12dedup_engine7analyzeEjRKNS_11content_refE);
dedup_result wrap_dedup_analyze_ref(const dedup_engine*, user_id,
                                    const content_ref&)
    WRAP(_ZNK9cloudsync12dedup_engine7analyzeEjRKNS_11content_refE);
dedup_result wrap_dedup_analyze_ref(const dedup_engine* self, user_id user,
                                    const content_ref& data) {
  const span s(layer::dedup_analyze, data.size());
  return real_dedup_analyze_ref(self, user, data);
}

dedup_result real_dedup_analyze_view(const dedup_engine*, user_id, byte_view)
    REAL(_ZNK9cloudsync12dedup_engine7analyzeEjSt4spanIKhLm18446744073709551615EE);
dedup_result wrap_dedup_analyze_view(const dedup_engine*, user_id, byte_view)
    WRAP(_ZNK9cloudsync12dedup_engine7analyzeEjSt4spanIKhLm18446744073709551615EE);
dedup_result wrap_dedup_analyze_view(const dedup_engine* self, user_id user,
                                     byte_view data) {
  const span s(layer::dedup_analyze, data.size());
  return real_dedup_analyze_view(self, user, data);
}

// --- pipeline.analyze ------------------------------------------------------
content_report real_analyze_ref(const content_ref&, const content_request&)
    REAL(_ZN9cloudsync15analyze_contentERKNS_11content_refERKNS_15content_requestE);
content_report wrap_analyze_ref(const content_ref&, const content_request&)
    WRAP(_ZN9cloudsync15analyze_contentERKNS_11content_refERKNS_15content_requestE);
content_report wrap_analyze_ref(const content_ref& data,
                                const content_request& req) {
  const span s(layer::pipeline_analyze, data.size());
  return real_analyze_ref(data, req);
}

content_report real_analyze_view(byte_view, const content_request&)
    REAL(_ZN9cloudsync15analyze_contentESt4spanIKhLm18446744073709551615EERKNS_15content_requestE);
content_report wrap_analyze_view(byte_view, const content_request&)
    WRAP(_ZN9cloudsync15analyze_contentESt4spanIKhLm18446744073709551615EERKNS_15content_requestE);
content_report wrap_analyze_view(byte_view data, const content_request& req) {
  const span s(layer::pipeline_analyze, data.size());
  return real_analyze_view(data, req);
}

// --- client.plan -----------------------------------------------------------
// The protocols' plan() is virtual and calls the shipped_*_size helpers from
// inside sync_protocol.cpp, so the planning entries other files reach are
// timed instead: protocol choice, the shipped-size helpers the engine calls,
// and the un-memoized wire sizers the protocols call on a memo miss.
const sync_protocol& real_choose(protocol_selector*, const planning_env&,
                                 const protocol_update&, selector_pick*)
    REAL(_ZN9cloudsync17protocol_selector6chooseERKNS_12planning_envERKNS_15protocol_updateEPNS_13selector_pickE);
const sync_protocol& wrap_choose(protocol_selector*, const planning_env&,
                                 const protocol_update&, selector_pick*)
    WRAP(_ZN9cloudsync17protocol_selector6chooseERKNS_12planning_envERKNS_15protocol_updateEPNS_13selector_pickE);
const sync_protocol& wrap_choose(protocol_selector* self,
                                 const planning_env& env,
                                 const protocol_update& up,
                                 selector_pick* pick) {
  const span s(layer::client_plan, 0);
  return real_choose(self, env, up, pick);
}

std::uint64_t real_shipped_content(const planning_env&, const content_ref&, int)
    REAL(_ZN9cloudsync20shipped_content_sizeERKNS_12planning_envERKNS_11content_refEi);
std::uint64_t wrap_shipped_content(const planning_env&, const content_ref&, int)
    WRAP(_ZN9cloudsync20shipped_content_sizeERKNS_12planning_envERKNS_11content_refEi);
std::uint64_t wrap_shipped_content(const planning_env& env,
                                   const content_ref& content, int level) {
  const span s(layer::client_plan, content.size());
  return real_shipped_content(env, content, level);
}

std::uint64_t real_shipped_delta(const planning_env&, const delta_blueprint&,
                                 int)
    REAL(_ZN9cloudsync18shipped_delta_sizeERKNS_12planning_envERKNS_15delta_blueprintEi);
std::uint64_t wrap_shipped_delta(const planning_env&, const delta_blueprint&,
                                 int)
    WRAP(_ZN9cloudsync18shipped_delta_sizeERKNS_12planning_envERKNS_15delta_blueprintEi);
std::uint64_t wrap_shipped_delta(const planning_env& env,
                                 const delta_blueprint& bp, int level) {
  const span s(layer::client_plan, bp.wire_size);
  return real_shipped_delta(env, bp, level);
}

std::uint64_t real_wire_size_ref(const content_ref&, int)
    REAL(_ZN9cloudsync21wire_payload_size_refERKNS_11content_refEi);
std::uint64_t wrap_wire_size_ref(const content_ref&, int)
    WRAP(_ZN9cloudsync21wire_payload_size_refERKNS_11content_refEi);
std::uint64_t wrap_wire_size_ref(const content_ref& content, int level) {
  const span s(layer::client_plan, content.size());
  return real_wire_size_ref(content, level);
}

std::uint64_t real_wire_size_delta(const file_delta&, int)
    REAL(_ZN9cloudsync23wire_payload_size_deltaERKNS_10file_deltaEi);
std::uint64_t wrap_wire_size_delta(const file_delta&, int)
    WRAP(_ZN9cloudsync23wire_payload_size_deltaERKNS_10file_deltaEi);
std::uint64_t wrap_wire_size_delta(const file_delta& delta, int level) {
  const span s(layer::client_plan, 0);
  return real_wire_size_delta(delta, level);
}

// --- net.exchange ----------------------------------------------------------
sim_time real_exchange(tcp_connection*, sim_time, std::uint64_t, std::uint64_t)
    REAL(_ZN9cloudsync14tcp_connection8exchangeENS_8sim_timeEmm);
sim_time wrap_exchange(tcp_connection*, sim_time, std::uint64_t, std::uint64_t)
    WRAP(_ZN9cloudsync14tcp_connection8exchangeENS_8sim_timeEmm);
sim_time wrap_exchange(tcp_connection* self, sim_time now,
                       std::uint64_t up_app, std::uint64_t down_app) {
  const span s(layer::net_exchange, up_app + down_app);
  return real_exchange(self, now, up_app, down_app);
}

// --- storage.put -----------------------------------------------------------
void real_put_file(cloud*, user_id, device_id, const std::string&,
                   const content_ref&, std::uint64_t, sim_time)
    REAL(_ZN9cloudsync5cloud8put_fileEjjRKNSt7__cxx1112basic_stringIcSt11char_traitsIcESaIcEEERKNS_11content_refEmNS_8sim_timeE);
void wrap_put_file(cloud*, user_id, device_id, const std::string&,
                   const content_ref&, std::uint64_t, sim_time)
    WRAP(_ZN9cloudsync5cloud8put_fileEjjRKNSt7__cxx1112basic_stringIcSt11char_traitsIcESaIcEEERKNS_11content_refEmNS_8sim_timeE);
void wrap_put_file(cloud* self, user_id user, device_id source,
                   const std::string& path, const content_ref& content,
                   std::uint64_t stored_size, sim_time at) {
  const span s(layer::storage_put, content.size());
  real_put_file(self, user, source, path, content, stored_size, at);
}

void real_apply_delta(cloud*, user_id, device_id, const std::string&,
                      const file_delta&, sim_time)
    REAL(_ZN9cloudsync5cloud16apply_file_deltaEjjRKNSt7__cxx1112basic_stringIcSt11char_traitsIcESaIcEEERKNS_10file_deltaENS_8sim_timeE);
void wrap_apply_delta(cloud*, user_id, device_id, const std::string&,
                      const file_delta&, sim_time)
    WRAP(_ZN9cloudsync5cloud16apply_file_deltaEjjRKNSt7__cxx1112basic_stringIcSt11char_traitsIcESaIcEEERKNS_10file_deltaENS_8sim_timeE);
void wrap_apply_delta(cloud* self, user_id user, device_id source,
                      const std::string& path, const file_delta& delta,
                      sim_time at) {
  const span s(layer::storage_put, 0);
  real_apply_delta(self, user, source, path, delta, at);
}

// --- trace.generate --------------------------------------------------------
trace_dataset real_generate_trace(const trace_params&)
    REAL(_ZN9cloudsync14generate_traceERKNS_12trace_paramsE);
trace_dataset wrap_generate_trace(const trace_params&)
    WRAP(_ZN9cloudsync14generate_traceERKNS_12trace_paramsE);
trace_dataset wrap_generate_trace(const trace_params& params) {
  const span s(layer::trace_generate, 0);
  return real_generate_trace(params);
}

}  // namespace perfbench::wraps
