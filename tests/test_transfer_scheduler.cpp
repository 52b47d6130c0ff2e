// The fault-adaptive parallel transfer scheduler: clean-link byte
// invisibility, the controller's escalation lattice, striped dispatch with
// parity/hedge accounting, mid-stripe crash recovery through the journal's
// out-of-order ack mask, and determinism across thread counts.
#include <gtest/gtest.h>

#include <vector>

#include "core/experiment.hpp"
#include "core/parallel_runner.hpp"

namespace cloudsync {
namespace {

constexpr std::uint64_t kFileBytes = 96 * KiB;
constexpr std::size_t kChunkBytes = 8 * KiB;  // 12 chunks per upload

experiment_config transfer_cfg(double intensity, bool enabled, bool pinned,
                               int k, int r, std::uint64_t seed = 1234) {
  experiment_config cfg{dropbox()};
  cfg.method = access_method::pc_client;
  cfg.link = link_config::beijing();
  cfg.seed = seed;
  cfg.journal = true;
  cfg.recovery.chunk_bytes = kChunkBytes;
  if (intensity > 0) cfg.faults = fault_plan::degraded(intensity);
  cfg.transfer.enabled = enabled;
  if (pinned) {
    cfg.transfer.pinned = true;
    cfg.transfer.pin = {k, r, sim_time::from_sec(2)};
  }
  return cfg;
}

// ---------------------------------------------------------------------------
// Clean link: enabling the adaptive scheduler must be byte-invisible.
// ---------------------------------------------------------------------------

TEST(TransferScheduler, CleanLinkIsByteInvisible) {
  const experiment_result off = run_transfer_experiment(
      transfer_cfg(0.0, /*enabled=*/false, false, 0, 0), 4, kFileBytes);
  const experiment_result on = run_transfer_experiment(
      transfer_cfg(0.0, /*enabled=*/true, false, 0, 0), 4, kFileBytes);

  // Everything on the wire and in sim time matches; only the scheduler's
  // own observation counters may differ from the scheduler-off baseline.
  EXPECT_TRUE(off.identity() == on.identity());
  EXPECT_EQ(on.meter.by_category(traffic_category::redundancy), 0u);
  // The controller never escalated, so nothing was striped, hedged or
  // reconstructed — the baseline's zeros.
  EXPECT_EQ(on.sched.stripes, off.sched.stripes);
  EXPECT_EQ(on.sched.hedges_fired, off.sched.hedges_fired);
  EXPECT_EQ(on.sched.reconstructions, off.sched.reconstructions);
  EXPECT_EQ(on.sched.stripes, 0u);
  EXPECT_GT(on.sched.decisions, 0u);
  EXPECT_EQ(on.sched.escalations, 0u);
  // The controller observed the clean exchanges without spending anything.
  EXPECT_GT(on.sched.observed_success, 0u);
  EXPECT_EQ(on.sched.observed_faults, 0u);
}

// ---------------------------------------------------------------------------
// Controller lattice: observed fault rate drives (K, R) escalation.
// ---------------------------------------------------------------------------

TEST(TransferScheduler, ControllerEscalatesWithFaultRate) {
  traffic_meter meter;
  transfer_policy pol;
  pol.enabled = true;
  transfer_scheduler sched(link_config::beijing(), tcp_config{}, meter, pol,
                           shard_retry_policy{}, shard_wire_costs{}, nullptr);

  // Below min_samples the decision stays single-connection.
  for (int i = 0; i < 4; ++i) sched.observe_fault();
  EXPECT_FALSE(sched.decide().striped());

  // A clean window keeps it single too.
  for (int i = 0; i < 64; ++i) {
    sched.observe_success(sim_time::from_msec(800));
  }
  EXPECT_FALSE(sched.decide().striped());

  // 3/64 faulted ≈ 4.7% → (2,1).
  for (int i = 0; i < 3; ++i) sched.observe_fault();
  transfer_decision d = sched.decide();
  EXPECT_EQ(d.connections, 2);
  EXPECT_EQ(d.parity, 1);
  // Hedge timeout: p95 of the 800ms successes × 2, floored at 250ms.
  EXPECT_GE(d.hedge_timeout, sim_time::from_msec(250));
  EXPECT_GE(d.hedge_timeout, sim_time::from_msec(1600) * 0.99);

  // 8/64 = 12.5% → (3,1).
  for (int i = 0; i < 5; ++i) sched.observe_fault();
  d = sched.decide();
  EXPECT_EQ(d.connections, 3);
  EXPECT_EQ(d.parity, 1);

  // 14/64 ≈ 22% → (4,2).
  for (int i = 0; i < 6; ++i) sched.observe_fault();
  d = sched.decide();
  EXPECT_EQ(d.connections, 4);
  EXPECT_EQ(d.parity, 2);
  EXPECT_GT(sched.stats().escalations, 0u);
}

TEST(TransferScheduler, PinnedDecisionClampsToPolicyBounds) {
  traffic_meter meter;
  transfer_policy pol;
  pol.enabled = true;
  pol.pinned = true;
  pol.pin = {16, 9, sim_time::from_sec(1)};  // beyond max_connections/parity
  transfer_scheduler sched(link_config::beijing(), tcp_config{}, meter, pol,
                           shard_retry_policy{}, shard_wire_costs{}, nullptr);
  const transfer_decision d = sched.decide();
  EXPECT_EQ(d.connections, pol.max_connections);
  EXPECT_EQ(d.parity, pol.max_parity);
}

// ---------------------------------------------------------------------------
// Striped dispatch on a fault-free wire: exact metering and in-order
// delivery.
// ---------------------------------------------------------------------------

TEST(TransferScheduler, StripedSendMetersParityAsRedundancy) {
  traffic_meter meter;
  transfer_policy pol;
  pol.enabled = true;
  shard_wire_costs costs{48, 32, 0, 0};
  transfer_scheduler sched(link_config::minnesota(), tcp_config{}, meter, pol,
                           shard_retry_policy{}, costs, nullptr);

  std::vector<chunk_range> chunks;
  for (std::uint32_t i = 0; i < 12; ++i) chunks.push_back({i, 8 * KiB});
  std::vector<std::uint32_t> delivered;
  // Hedge timeout far above any exchange time: nothing is "slow", so the
  // meter arithmetic below is exact.
  const transfer_decision d{4, 2, sim_time::from_sec(60)};
  const striped_outcome out = sched.send_striped(
      sim_time::from_sec(1), chunks, d,
      [&](std::uint32_t idx, std::uint64_t, sim_time) {
        delivered.push_back(idx);
      },
      [](sim_time) {});

  EXPECT_TRUE(out.complete);
  EXPECT_GT(out.done, sim_time::from_sec(1));
  // Chunks arrive in index order within each stripe of 4.
  ASSERT_EQ(delivered.size(), 12u);
  for (std::uint32_t i = 0; i < 12; ++i) EXPECT_EQ(delivered[i], i);

  const transfer_stats& st = sched.stats();
  EXPECT_EQ(st.stripes, 3u);
  EXPECT_EQ(st.data_shards, 12u);
  EXPECT_EQ(st.parity_shards, 6u);
  EXPECT_EQ(st.shard_faults, 0u);
  EXPECT_EQ(st.hedges_fired, 0u);  // nothing was slow or faulted

  // Payload = the 12 data chunks; redundancy = the 6 parity shards (each
  // sized to the widest data shard); framing = one control/ack per shard
  // exchange.
  EXPECT_EQ(meter.by_category(traffic_category::payload), 12 * 8 * KiB);
  EXPECT_EQ(meter.by_category(traffic_category::redundancy), 6 * 8 * KiB);
  EXPECT_EQ(meter.by_category(traffic_category::resume), 18 * (48 + 32));
  EXPECT_EQ(sched.per_connection().size(), 4u);
  for (const connection_stats& cs : sched.per_connection()) {
    EXPECT_GT(cs.dispatches, 0u);
    EXPECT_EQ(cs.faults, 0u);
    EXPECT_EQ(cs.loss_estimate(), 0.0);
    EXPECT_GT(cs.rtt_estimate(), sim_time{});
  }
}

// ---------------------------------------------------------------------------
// Faulted runs: stripes fire, redundancy is metered, everything converges.
// ---------------------------------------------------------------------------

TEST(TransferScheduler, DegradedLinkStripesHedgesAndConverges) {
  experiment_env env(transfer_cfg(1.0, true, /*pinned=*/true, 4, 2));
  station& st = env.primary();

  for (int i = 0; i < 3; ++i) {
    const std::string path = "xfer/f" + std::to_string(i);
    const sim_time at =
        std::max(env.clock().now(), st.client->busy_until()) +
        sim_time::from_sec(5);
    env.clock().schedule_at(at, [&st, &env, path, at] {
      st.fs.create(path, env.gen_compressed(kFileBytes), at);
    });
    env.settle();
  }

  ASSERT_NE(st.client->transfer_sched(), nullptr);
  const transfer_stats& ts = st.client->transfer_sched()->stats();
  EXPECT_GT(ts.stripes, 0u);
  EXPECT_GT(ts.parity_shards, 0u);
  EXPECT_GT(ts.shard_faults, 0u);  // degraded(1.0) on Beijing faults plenty
  EXPECT_GT(st.aggregate_meter().by_category(traffic_category::redundancy),
            0u);

  // The striped uploads still converged and kept every invariant.
  const invariant_report report = check_invariants(env, st);
  EXPECT_TRUE(report.ok()) << report.summary();
  EXPECT_EQ(env.the_cloud().open_session_count(), 0u);
  EXPECT_EQ(st.journal.committed_count(), 3u);
}

// The scheduler's connections ride fault domains 1..K; the environment's
// main (domain 0) schedule must be untouched by striping, so the serial
// fallback path stays byte-identical whether or not striping ran before it.
TEST(TransferScheduler, SchedulerUsesOwnFaultDomains) {
  experiment_env env(transfer_cfg(1.0, true, /*pinned=*/true, 4, 2));
  station& st = env.primary();
  const sim_time at = env.clock().now() + sim_time::from_sec(5);
  env.clock().schedule_at(at, [&st, &env, at] {
    st.fs.create("xfer/f", env.gen_compressed(kFileBytes), at);
  });
  env.settle();

  EXPECT_GT(st.client->transfer_sched()->stats().stripes, 0u);
  EXPECT_GE(env.faults().domain_count(), 4u);
  // Child domains injected faults of their own...
  EXPECT_GT(env.faults().injected_total_all_domains(),
            env.faults().injected_total());
}

// ---------------------------------------------------------------------------
// Mid-stripe crash: the journal's out-of-order ack mask resumes correctly.
// ---------------------------------------------------------------------------

TEST(TransferScheduler, MidStripeCrashResumesThroughJournalMask) {
  experiment_config cfg = transfer_cfg(0.0, true, /*pinned=*/true, 4, 2);
  experiment_env env(cfg);
  station& st = env.primary();

  // Kill the client at the third mid_chunk site: the first stripe has
  // partially acked, leaving holes in the journal mask.
  env.faults().force_crash(crash_site::mid_chunk, /*skip=*/2);
  st.fs.create("kill/striped", env.gen_compressed(kFileBytes),
               env.clock().now());
  env.settle();

  EXPECT_EQ(st.crashes, 1u);
  ASSERT_TRUE(env.the_cloud().file_content(0, "kill/striped").has_value());
  EXPECT_EQ(to_string(*env.the_cloud().file_content(0, "kill/striped")),
            to_string(st.fs.read("kill/striped")));
  const invariant_report report = check_invariants(env, st);
  EXPECT_TRUE(report.ok()) << report.summary();
  EXPECT_EQ(env.the_cloud().open_session_count(), 0u);
  EXPECT_EQ(st.aggregate_counters().resumes, 1u);  // continued, not restarted
}

// ---------------------------------------------------------------------------
// Determinism: thread counts and scheduler enablement must not leak into
// unrelated results.
// ---------------------------------------------------------------------------

// The retry backoff-jitter stream is pinned: a journal-less failure run is
// bit-identical whether the scheduler is compiled in, enabled, or absent
// (without sessions there is nothing to stripe, and observation draws no
// RNG), and whether the grid runs on 1 or 4 threads.
TEST(TransferScheduler, BackoffJitterStreamUnchangedByScheduler) {
  experiment_config off{dropbox()};
  off.method = access_method::pc_client;
  off.link = link_config::beijing();
  off.faults = fault_plan::degraded(1.0);
  experiment_config on = off;
  on.transfer.enabled = true;

  const experiment_result a = run_create_modify_experiment(off, 4, 128 * KiB);
  const experiment_result b = run_create_modify_experiment(on, 4, 128 * KiB);
  EXPECT_TRUE(a.identity() == b.identity());
}

// Striped cells evaluated under the parallel runner are bit-identical to a
// serial evaluation (this is also the tsan exercise for the scheduler).
TEST(TransferScheduler, ParallelGridMatchesSerial) {
  const std::vector<experiment_config> cfgs = {
      transfer_cfg(0.0, true, false, 0, 0),
      transfer_cfg(0.6, true, false, 0, 0, 4711),
      transfer_cfg(0.6, true, true, 4, 2, 4711),
      transfer_cfg(1.0, true, true, 2, 1, 9001),
  };
  auto eval = [&](unsigned threads) {
    std::vector<experiment_result> out(cfgs.size());
    parallel_runner pool(threads);
    pool.run_indexed(cfgs.size(), [&](std::size_t i) {
      out[i] = run_transfer_experiment(cfgs[i], 3, kFileBytes);
    });
    return out;
  };
  const std::vector<experiment_result> serial = eval(1);
  const std::vector<experiment_result> parallel = eval(4);
  for (std::size_t i = 0; i < cfgs.size(); ++i) {
    EXPECT_TRUE(serial[i] == parallel[i]) << "cell " << i;
  }
  // The faulted striped cells actually exercised the machinery.
  EXPECT_GT(serial[2].sched.stripes, 0u);
  EXPECT_GT(serial[2].meter.by_category(traffic_category::redundancy), 0u);
}

}  // namespace
}  // namespace cloudsync
