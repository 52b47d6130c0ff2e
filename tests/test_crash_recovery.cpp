// The crash-point harness end to end: forced client crashes at every kill
// site, with resume on and off, must always reconverge and satisfy the full
// invariant suite; resuming must cost strictly fewer bytes than restarting
// from scratch; a journaled transaction that exhausts its retry budget must
// leave an `aborted` journal record behind; and the resumable-session cloud
// API must enforce its own contract.
#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

#include "core/experiment.hpp"

namespace cloudsync {
namespace {

experiment_config crash_cfg(bool resume, std::size_t chunk_bytes = 64 * KiB) {
  experiment_config cfg{dropbox()};
  cfg.method = access_method::pc_client;
  cfg.journal = true;
  cfg.recovery.resume = resume;
  cfg.recovery.chunk_bytes = chunk_bytes;
  return cfg;
}

// ---------------------------------------------------------------------------
// Kill-site matrix: every site × {resume on, off} reconverges cleanly.
// ---------------------------------------------------------------------------

struct crash_case {
  crash_site site;
  bool resume;
  int skip;  ///< skip earlier opportunities at the site (mid-chunk progress)
};

std::string case_name(const ::testing::TestParamInfo<crash_case>& info) {
  std::string name = to_string(info.param.site);
  for (char& c : name) {
    if (c == '-' || c == ' ') c = '_';
  }
  return name + (info.param.resume ? "_resume" : "_restart");
}

class CrashKillSite : public ::testing::TestWithParam<crash_case> {};

TEST_P(CrashKillSite, CreationRecoversAndConverges) {
  const crash_case& cc = GetParam();
  experiment_env env(crash_cfg(cc.resume));
  station& st = env.primary();

  // 256 KiB incompressible → a four-chunk upload session at 64 KiB chunks.
  env.faults().force_crash(cc.site, cc.skip);
  st.fs.create("kill/file", env.gen_compressed(256 * KiB), env.clock().now());
  env.settle();

  EXPECT_EQ(st.crashes, 1u);
  EXPECT_EQ(env.faults().crashes_injected(), 1);
  EXPECT_EQ(env.faults().injected(fault_kind::client_crash), 1u);

  // The restarted incarnation converged the cloud to the local content...
  ASSERT_TRUE(env.the_cloud().file_content(0, "kill/file").has_value());
  EXPECT_EQ(to_string(*env.the_cloud().file_content(0, "kill/file")),
            to_string(st.fs.read("kill/file")));
  // ...and the full invariant suite holds.
  const invariant_report report = check_invariants(env, st);
  EXPECT_TRUE(report.ok()) << report.summary();

  // Disposition: an in-flight session resumes only when resume is on; a
  // crash before the session opened (after_plan) leaves nothing to resume
  // and the startup rescan re-queues the path.
  if (cc.site == crash_site::after_plan) {
    EXPECT_EQ(st.aggregate_counters().resumes, 0u);
  } else if (cc.resume) {
    EXPECT_EQ(st.aggregate_counters().resumes, 1u);
    EXPECT_EQ(st.aggregate_counters().recovery_restarts, 0u);
  } else {
    EXPECT_EQ(st.aggregate_counters().resumes, 0u);
    EXPECT_EQ(st.aggregate_counters().recovery_restarts, 1u);
  }
  // Recovery left no open session behind either way.
  EXPECT_EQ(env.the_cloud().open_session_count(), 0u);
}

INSTANTIATE_TEST_SUITE_P(
    AllSites, CrashKillSite,
    ::testing::Values(crash_case{crash_site::after_plan, true, 0},
                      crash_case{crash_site::after_plan, false, 0},
                      crash_case{crash_site::mid_chunk, true, 2},
                      crash_case{crash_site::mid_chunk, false, 2},
                      crash_case{crash_site::before_commit, true, 0},
                      crash_case{crash_site::before_commit, false, 0}),
    case_name);

// ---------------------------------------------------------------------------
// Resume efficiency: continuing a session is strictly cheaper than
// re-uploading from scratch (the paper's §5 restart waste, avoided).
// ---------------------------------------------------------------------------

std::uint64_t crashed_creation_traffic(bool resume, crash_site site,
                                       int skip) {
  experiment_env env(crash_cfg(resume));
  station& st = env.primary();
  env.faults().force_crash(site, skip);
  st.fs.create("kill/file", env.gen_compressed(256 * KiB), env.clock().now());
  env.settle();
  EXPECT_EQ(st.crashes, 1u);
  EXPECT_TRUE(check_invariants(env, st).ok());
  return st.aggregate_meter().total();
}

TEST(CrashResume, ResumedBytesBelowFullRestartBytes) {
  // Crash before chunk 2 of 4: half the payload is acked. The resumed run
  // pays the un-acked half plus a query round trip; the restarted run pays
  // the whole payload again.
  const std::uint64_t resumed =
      crashed_creation_traffic(true, crash_site::mid_chunk, 2);
  const std::uint64_t restarted =
      crashed_creation_traffic(false, crash_site::mid_chunk, 2);
  EXPECT_LT(resumed, restarted);
  // The saving is at least the two already-acked 64 KiB chunks minus the
  // recovery round trip — call it one chunk to be safe.
  EXPECT_GT(restarted - resumed, 64 * KiB);
}

TEST(CrashResume, BeforeCommitResumePaysOnlyControlTraffic) {
  // All chunks acked: the resumed run re-sends no payload at all.
  const std::uint64_t resumed =
      crashed_creation_traffic(true, crash_site::before_commit, 0);
  const std::uint64_t restarted =
      crashed_creation_traffic(false, crash_site::before_commit, 0);
  EXPECT_LT(resumed + 192 * KiB, restarted);
}

TEST(CrashResume, ResumeTrafficIsMeteredInItsOwnCategory) {
  experiment_env env(crash_cfg(true));
  station& st = env.primary();
  env.faults().force_crash(crash_site::mid_chunk, 2);
  st.fs.create("kill/file", env.gen_compressed(256 * KiB), env.clock().now());
  env.settle();
  const traffic_meter aggregate = st.aggregate_meter();
  // Session control bytes (open / chunk acks / finalize / recovery query)
  // live under traffic_category::resume, in both directions.
  EXPECT_GT(aggregate.get(direction::up, traffic_category::resume), 0u);
  EXPECT_GT(aggregate.get(direction::down, traffic_category::resume), 0u);
}

// ---------------------------------------------------------------------------
// Delta-sync transactions crash and resume too (shadow restored from the
// cloud's current version before re-planning).
// ---------------------------------------------------------------------------

TEST(CrashResume, DeltaUploadResumesMidChunk) {
  // Small chunks so even a one-byte edit's delta spans several wire chunks.
  experiment_env env(crash_cfg(true, /*chunk_bytes=*/2 * KiB));
  station& st = env.primary();
  st.fs.create("kill/delta", env.gen_compressed(256 * KiB), env.clock().now());
  env.settle();
  ASSERT_EQ(st.crashes, 0u);

  env.faults().force_crash(crash_site::mid_chunk, 1);
  modify_random_byte(st.fs, "kill/delta", env.random(), env.clock().now());
  env.settle();

  EXPECT_EQ(st.crashes, 1u);
  EXPECT_EQ(st.aggregate_counters().resumes, 1u);
  EXPECT_EQ(to_string(*env.the_cloud().file_content(0, "kill/delta")),
            to_string(st.fs.read("kill/delta")));
  const invariant_report report = check_invariants(env, st);
  EXPECT_TRUE(report.ok()) << report.summary();
}

TEST(CrashResume, LocalEditDuringCrashDiscardsStaleSession) {
  // The file changes again while the client is down: the journaled plan no
  // longer matches the local content, so recovery must discard the session
  // and ship the new content instead of resuming a stale payload.
  experiment_env env(crash_cfg(true));
  station& st = env.primary();
  env.faults().force_crash(crash_site::mid_chunk, 2);
  st.fs.create("kill/file", env.gen_compressed(256 * KiB), env.clock().now());
  // 1 s after the creation event the client is mid-upload and dies; the
  // restart comes 5 s later. Edit in between, while no client is alive.
  env.clock().schedule_at(env.clock().now() + sim_time::from_sec(3),
                          [&env, &st] {
                            modify_random_byte(st.fs, "kill/file",
                                               env.random(),
                                               env.clock().now());
                          });
  env.settle();

  EXPECT_EQ(st.crashes, 1u);
  // Stale plan: nothing safe to resume.
  EXPECT_EQ(st.aggregate_counters().resumes, 0u);
  EXPECT_EQ(to_string(*env.the_cloud().file_content(0, "kill/file")),
            to_string(st.fs.read("kill/file")));
  const invariant_report report = check_invariants(env, st);
  EXPECT_TRUE(report.ok()) << report.summary();
}

// ---------------------------------------------------------------------------
// Sampled crash schedules: the whole harness loop (crash → restart →
// recover → maybe crash again) terminates, converges, and is deterministic.
// ---------------------------------------------------------------------------

TEST(CrashExperiment, SampledCrashesConvergeAndAreDeterministic) {
  experiment_config cfg = crash_cfg(true);
  cfg.faults = fault_plan::crashes(0.2, /*seed=*/7);
  cfg.seed = 99;

  const experiment_result a = run_create_modify_experiment(cfg, 4, 128 * KiB);
  EXPECT_GT(a.crashes, 0u);  // a 20% per-site schedule must hit something
  EXPECT_TRUE(a.invariants.ok()) << a.invariants.summary();
  EXPECT_EQ(a.journal_begun,
            a.journal_committed + a.journal_aborted +
                (a.journal_begun - a.journal_committed - a.journal_aborted))
      << "counter sanity";
  EXPECT_GT(a.counters.resumes + a.counters.recovery_restarts, 0u);
  EXPECT_GT(a.meter.by_category(traffic_category::resume), 0u);

  const experiment_result b = run_create_modify_experiment(cfg, 4, 128 * KiB);
  EXPECT_TRUE(a == b);
}

TEST(CrashExperiment, ComposedTransientAndCrashPlanStillConverges) {
  // Satellite: merged() composes a transient-fault plan with a crash plan in
  // one env — retries and crash recovery interleave and still converge.
  experiment_config cfg = crash_cfg(true);
  cfg.faults = fault_plan::merged(fault_plan::degraded(0.3, /*seed=*/11),
                                  fault_plan::crashes(0.15, /*seed=*/5));
  cfg.seed = 42;

  const experiment_result res = run_create_modify_experiment(cfg, 3, 128 * KiB);
  EXPECT_TRUE(res.invariants.ok()) << res.invariants.summary();
  EXPECT_GT(res.crashes, 0u);
}

TEST(CrashExperiment, JournalOffIgnoresCrashPlan) {
  // Without a journal there is nothing to recover from, so kill sites are
  // not armed: a crash plan on a journal-less env must inject nothing.
  experiment_config cfg{dropbox()};
  cfg.method = access_method::pc_client;
  cfg.journal = false;
  cfg.faults = fault_plan::crashes(1.0, /*seed=*/3);
  experiment_env env(cfg);
  station& st = env.primary();
  st.fs.create("plain/file", env.gen_compressed(64 * KiB), env.clock().now());
  env.settle();

  EXPECT_EQ(st.crashes, 0u);
  EXPECT_EQ(env.faults().injected(fault_kind::client_crash), 0u);
  EXPECT_EQ(to_string(*env.the_cloud().file_content(0, "plain/file")),
            to_string(st.fs.read("plain/file")));
}

// ---------------------------------------------------------------------------
// Satellite: a journaled transaction that exhausts its retry budget leaves
// an `aborted` record (with the reason) until the path is re-attempted.
// ---------------------------------------------------------------------------

TEST(JournalAbort, GiveUpLeavesAbortedRecordUntilRetry) {
  experiment_config cfg = crash_cfg(true);
  experiment_env env(cfg);
  station& st = env.primary();
  ASSERT_EQ(env.config().retry.max_attempts, 6);

  // Exactly one transaction's worth of failures: the session open gives up,
  // the record aborts, and the change requeues with a cooldown.
  env.faults().force_exchange_failures(6);
  st.fs.create("stubborn", env.gen_compressed(64 * KiB), env.clock().now());

  // Run up to (but not past) the requeue cooldown: the aborted record is the
  // only journal state left by the failed transaction.
  env.clock().run_until(env.clock().now() + sim_time::from_sec(40));
  const auto open = st.journal.open_records();
  ASSERT_EQ(open.size(), 1u);
  EXPECT_EQ(open[0].state, journal_state::aborted);
  EXPECT_EQ(open[0].path, "stubborn");
  EXPECT_NE(open[0].note.find("retry budget"), std::string::npos)
      << open[0].note;
  EXPECT_EQ(st.journal.aborted_count(), 1u);
  EXPECT_FALSE(env.the_cloud().file_content(0, "stubborn").has_value());

  // The requeued attempt supersedes the aborted record and lands.
  env.settle();
  EXPECT_EQ(st.journal.aborted_count(), 1u);
  EXPECT_EQ(st.journal.open_records().size(), 0u);
  EXPECT_EQ(to_string(*env.the_cloud().file_content(0, "stubborn")),
            to_string(st.fs.read("stubborn")));
  const invariant_report report = check_invariants(env, st);
  EXPECT_TRUE(report.ok()) << report.summary();
}

// ---------------------------------------------------------------------------
// The resumable-session cloud API enforces its contract directly.
// ---------------------------------------------------------------------------

TEST(UploadSessions, ContractEnforcement) {
  cloud cl{cloud_config{}};
  const sim_time t = sim_time::from_sec(1);
  const resume_token tok = cl.begin_upload_session(0, "p", 3, 3000, t);
  ASSERT_NE(tok, 0u);
  EXPECT_TRUE(cl.session_open(tok));
  EXPECT_EQ(cl.open_session_count(), 1u);

  // Chunks may arrive out of order (striped transfers), but never twice and
  // never out of bounds.
  cl.upload_session_chunk(tok, 1, 1000, t);
  EXPECT_THROW(cl.upload_session_chunk(tok, 1, 1000, t), std::logic_error);
  EXPECT_THROW(cl.upload_session_chunk(tok, 3, 1000, t), std::logic_error);

  {
    // Out-of-order landing: the contiguous prefix lags the acked total.
    const upload_session_status st = cl.query_upload_session(tok, t);
    EXPECT_EQ(st.total_chunks, 3u);
    EXPECT_EQ(st.acked_chunks, 0u);
    EXPECT_EQ(st.acked_total, 1u);
    EXPECT_EQ(st.acked_bytes, 1000u);
    EXPECT_EQ(st.payload_bytes, 3000u);
  }

  cl.upload_session_chunk(tok, 0, 1000, t);
  EXPECT_THROW(cl.upload_session_chunk(tok, 0, 1000, t), std::logic_error);

  {
    // Chunk 0 closed the hole: the prefix catches up through chunk 1.
    const upload_session_status st = cl.query_upload_session(tok, t);
    EXPECT_EQ(st.acked_chunks, 2u);
    EXPECT_EQ(st.acked_total, 2u);
    EXPECT_EQ(st.acked_bytes, 2000u);
  }

  // Finalizing before all chunks acked is a client bug.
  byte_buffer content(3000, std::uint8_t{7});
  EXPECT_THROW(
      cl.finalize_session_put(tok, 0, 1, "p", content, 3000, t),
      std::logic_error);

  cl.upload_session_chunk(tok, 2, 1000, t);
  cl.finalize_session_put(tok, 0, 1, "p", content, 3000, t);
  EXPECT_FALSE(cl.session_open(tok));
  EXPECT_EQ(cl.open_session_count(), 0u);
  ASSERT_TRUE(cl.file_content(0, "p").has_value());
  EXPECT_EQ(cl.file_content(0, "p")->size(), 3000u);

  // Operating on a retired session throws; abandoning one is a no-op.
  EXPECT_THROW(cl.upload_session_chunk(tok, 0, 1, t), std::logic_error);
  EXPECT_THROW(cl.query_upload_session(tok, t), std::logic_error);
  cl.abandon_upload_session(tok);

  // Abandon drops progress without committing.
  const resume_token tok2 = cl.begin_upload_session(0, "q", 1, 10, t);
  cl.abandon_upload_session(tok2);
  EXPECT_FALSE(cl.session_open(tok2));
  EXPECT_FALSE(cl.file_content(0, "q").has_value());
}

TEST(UploadSessions, FinalizePersistsReceivedRangesOnChunkStore) {
  cloud_config cc;
  cc.use_chunk_store = true;
  cc.chunk_store_chunk_size = 4096;
  cloud cl{cc};
  const sim_time t = sim_time::from_sec(1);

  // 10'000 content bytes arriving through a 3-chunk session land as one
  // chunk object per received range (near-equal content split — session
  // boundaries live in compressed wire space), not re-split at the
  // backend's own 4 KiB granularity.
  const byte_buffer content(10'000, std::uint8_t{7});
  const resume_token tok = cl.begin_upload_session(0, "p", 3, 9'000, t);
  cl.upload_session_chunk(tok, 0, 3000, t);
  cl.upload_session_chunk(tok, 1, 3000, t);
  cl.upload_session_chunk(tok, 2, 3000, t);
  cl.finalize_session_put(tok, 0, 1, "p", content, 9'000, t);

  const file_manifest* man = cl.manifest(0, "p");
  ASSERT_NE(man, nullptr);
  const chunk_manifest* cm = cl.chunk_store()->find(man->object_key);
  ASSERT_NE(cm, nullptr);
  ASSERT_EQ(cm->extents.size(), 3u);
  EXPECT_EQ(cm->extents[0].length, 3334u);  // 10'000 = 3334 + 3333 + 3333
  EXPECT_EQ(cm->extents[1].length, 3333u);
  EXPECT_EQ(cm->extents[2].length, 3333u);
  ASSERT_TRUE(cl.file_content(0, "p").has_value());
  EXPECT_EQ(*cl.file_content(0, "p"), content);

  // A direct (session-less) put of the same bytes uses the fixed split.
  cl.put_file(0, 1, "q", content, 10'000, t);
  const chunk_manifest* direct =
      cl.chunk_store()->find(cl.manifest(0, "q")->object_key);
  ASSERT_NE(direct, nullptr);
  ASSERT_EQ(direct->extents.size(), 3u);  // 4096 + 4096 + 1808
  EXPECT_EQ(direct->extents[0].length, 4096u);
}

}  // namespace
}  // namespace cloudsync
