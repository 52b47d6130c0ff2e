// Fault injection and the retry/backoff robustness layer: the fault_plan /
// fault_injector contract (determinism, inertness when disabled), and the
// sync engine's behaviour under pinned fault schedules — retries, delta→full
// fallback, requeue-and-recover, and poll failures.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "core/experiment.hpp"

namespace cloudsync {
namespace {

experiment_config cfg_for(service_profile p) {
  experiment_config cfg{std::move(p)};
  cfg.method = access_method::pc_client;
  return cfg;
}

byte_buffer patterned(std::size_t n) {
  byte_buffer b(n);
  for (std::size_t i = 0; i < n; ++i) {
    b[i] = static_cast<std::uint8_t>((i * 131 + 17) & 0xff);
  }
  return b;
}

// ---------------------------------------------------------------------------
// fault_plan
// ---------------------------------------------------------------------------

TEST(FaultPlan, DisabledByDefault) {
  EXPECT_FALSE(fault_plan{}.enabled());
  EXPECT_FALSE(fault_plan::none().enabled());
  EXPECT_FALSE(fault_plan::degraded(0.0).enabled());
}

TEST(FaultPlan, DegradedScalesLinearly) {
  const fault_plan full = fault_plan::degraded(1.0);
  const fault_plan half = fault_plan::degraded(0.5);
  EXPECT_TRUE(full.enabled());
  EXPECT_DOUBLE_EQ(half.outages_per_hour, full.outages_per_hour / 2);
  EXPECT_DOUBLE_EQ(half.reset_prob, full.reset_prob / 2);
  EXPECT_DOUBLE_EQ(half.abort_prob, full.abort_prob / 2);
  EXPECT_DOUBLE_EQ(half.server_error_prob, full.server_error_prob / 2);
  EXPECT_DOUBLE_EQ(half.throttle_prob, full.throttle_prob / 2);
}

TEST(TransientFault, CarriesKindTimeAndRetryHint) {
  const transient_fault f(fault_kind::server_throttle, sim_time::from_sec(3),
                          sim_time::from_sec(9));
  EXPECT_EQ(f.kind(), fault_kind::server_throttle);
  EXPECT_EQ(f.at(), sim_time::from_sec(3));
  EXPECT_EQ(f.retry_after(), sim_time::from_sec(9));
  EXPECT_STREQ(f.what(), "server throttle");
  // Default hint: retry immediately.
  EXPECT_EQ(transient_fault(fault_kind::server_error, sim_time{}).retry_after(),
            sim_time{});
}

// ---------------------------------------------------------------------------
// fault_injector
// ---------------------------------------------------------------------------

TEST(FaultInjector, DisabledPlanIsInert) {
  fault_injector inj(fault_plan::none(), /*env_seed=*/1234);
  EXPECT_FALSE(inj.enabled());
  for (int s = 0; s < 100; ++s) {
    EXPECT_FALSE(inj.outage_end(sim_time::from_sec(s * 3600.0)).has_value());
    EXPECT_FALSE(inj.sample_exchange_fault().has_value());
    EXPECT_FALSE(inj.sample_server_fault().has_value());
  }
  EXPECT_EQ(inj.injected_total(), 0u);
}

TEST(FaultInjector, DeterministicAcrossInstances) {
  const fault_plan plan = fault_plan::degraded(0.7, /*seed=*/42);
  fault_injector a(plan, /*env_seed=*/7);
  fault_injector b(plan, /*env_seed=*/7);
  // Identical outage schedules...
  for (int m = 0; m < 48 * 60; ++m) {
    const sim_time t = sim_time::from_sec(m * 60.0);
    EXPECT_EQ(a.outage_end(t), b.outage_end(t)) << "minute " << m;
  }
  // ...and identical per-event fault streams.
  for (int i = 0; i < 500; ++i) {
    EXPECT_EQ(a.sample_exchange_fault(), b.sample_exchange_fault());
    EXPECT_EQ(a.sample_server_fault(), b.sample_server_fault());
    EXPECT_DOUBLE_EQ(a.jitter01(), b.jitter01());
  }
  EXPECT_EQ(a.injected_total(), b.injected_total());
}

TEST(FaultInjector, EnvSeedChangesTheStream) {
  const fault_plan plan = fault_plan::degraded(0.7);
  fault_injector a(plan, /*env_seed=*/7);
  fault_injector b(plan, /*env_seed=*/8);
  bool differs = false;
  for (int i = 0; i < 16 && !differs; ++i) {
    differs = a.jitter01() != b.jitter01();
  }
  EXPECT_TRUE(differs);
}

TEST(FaultInjector, OutageWindowsAreConsistent) {
  fault_plan plan;
  plan.outages_per_hour = 12.0;
  plan.outage_mean_duration = sim_time::from_sec(6);
  fault_injector inj(plan, /*env_seed=*/99);

  std::size_t hits = 0;
  for (int s = 0; s < 48 * 3600; s += 300) {
    const sim_time now = sim_time::from_sec(static_cast<double>(s));
    const auto end = inj.outage_end(now);
    if (!end) continue;
    ++hits;
    EXPECT_GT(*end, now);
    // The instant the window closes, the link is up again (windows are
    // disjoint, so the next window — if any — starts strictly later).
    const auto after = inj.outage_end(*end);
    if (after.has_value()) {
      EXPECT_GT(*after, *end);
    }
    // Every instant inside the window reports the same end.
    EXPECT_EQ(inj.outage_end(*end - sim_time::from_usec(1)), end);
  }
  // ~12 six-second outages per hour over 48 h: a 5-minute scan must land in
  // at least a few of them for any seed.
  EXPECT_GT(hits, 0u);
  // Far beyond the horizon the link is always up.
  EXPECT_FALSE(inj.outage_end(sim_time::from_sec(1000.0 * 3600)).has_value());
}

TEST(FaultInjector, ForcedCountsArmAndExpire) {
  fault_injector inj(fault_plan::none(), 0);
  EXPECT_FALSE(inj.enabled());

  inj.force_server_failures(2);
  EXPECT_TRUE(inj.enabled());
  EXPECT_EQ(inj.sample_server_fault(), fault_kind::server_error);
  EXPECT_EQ(inj.sample_server_fault(), fault_kind::server_error);
  EXPECT_FALSE(inj.sample_server_fault().has_value());
  EXPECT_FALSE(inj.enabled());

  inj.force_exchange_failures(1);
  EXPECT_TRUE(inj.enabled());
  EXPECT_EQ(inj.sample_exchange_fault(), fault_kind::connection_reset);
  EXPECT_FALSE(inj.sample_exchange_fault().has_value());
  EXPECT_FALSE(inj.enabled());

  EXPECT_EQ(inj.injected(fault_kind::server_error), 2u);
  EXPECT_EQ(inj.injected(fault_kind::connection_reset), 1u);
  EXPECT_EQ(inj.injected_total(), 3u);
}

// ---------------------------------------------------------------------------
// Composable plans: merged() and the crash-plan primitives
// ---------------------------------------------------------------------------

TEST(FaultPlanMerged, WithNoneIsIdentity) {
  const fault_plan a = fault_plan::degraded(0.6, /*seed=*/17);
  const fault_plan m = fault_plan::merged(a, fault_plan::none());

  EXPECT_EQ(m.seed, a.seed);
  EXPECT_DOUBLE_EQ(m.outages_per_hour, a.outages_per_hour);
  EXPECT_EQ(m.outage_mean_duration, a.outage_mean_duration);
  EXPECT_EQ(m.outage_horizon, a.outage_horizon);
  EXPECT_DOUBLE_EQ(m.reset_prob, a.reset_prob);
  EXPECT_DOUBLE_EQ(m.abort_prob, a.abort_prob);
  EXPECT_DOUBLE_EQ(m.server_error_prob, a.server_error_prob);
  EXPECT_DOUBLE_EQ(m.throttle_prob, a.throttle_prob);
  EXPECT_EQ(m.throttle_retry_after, a.throttle_retry_after);
  EXPECT_DOUBLE_EQ(m.crash_prob, a.crash_prob);
  EXPECT_EQ(m.fail_first_server_ops, a.fail_first_server_ops);
  EXPECT_EQ(m.fail_first_exchanges, a.fail_first_exchanges);

  // Identity must hold behaviourally too: the merged plan replays a's exact
  // fault schedule through a fresh injector.
  fault_injector ia(a, /*env_seed=*/5);
  fault_injector im(m, /*env_seed=*/5);
  for (int i = 0; i < 300; ++i) {
    EXPECT_EQ(ia.sample_exchange_fault(), im.sample_exchange_fault());
    EXPECT_EQ(ia.sample_server_fault(), im.sample_server_fault());
  }
  for (int minute = 0; minute < 120; ++minute) {
    const sim_time t = sim_time::from_sec(minute * 60.0);
    EXPECT_EQ(ia.outage_end(t), im.outage_end(t));
  }
}

TEST(FaultPlanMerged, RatesAddAndProbabilitiesCombineIndependently) {
  fault_plan a;
  a.outages_per_hour = 2.0;
  a.reset_prob = 0.2;
  a.crash_prob = 0.1;
  a.fail_first_exchanges = 3;
  fault_plan b;
  b.outages_per_hour = 1.0;
  b.reset_prob = 0.5;
  b.crash_prob = 0.3;
  b.fail_first_exchanges = 2;

  const fault_plan m = fault_plan::merged(a, b);
  EXPECT_DOUBLE_EQ(m.outages_per_hour, 3.0);
  // Independent events: 1 − (1−a)(1−b).
  EXPECT_DOUBLE_EQ(m.reset_prob, 1.0 - (1.0 - 0.2) * (1.0 - 0.5));
  EXPECT_DOUBLE_EQ(m.crash_prob, 1.0 - (1.0 - 0.1) * (1.0 - 0.3));
  EXPECT_EQ(m.fail_first_exchanges, 5);
  EXPECT_TRUE(m.enabled());
}

TEST(FaultPlanMerged, InactiveSideDoesNotLeakDurationDefaults) {
  fault_plan custom;
  custom.outages_per_hour = 1.0;
  custom.outage_mean_duration = sim_time::from_sec(99);
  custom.throttle_prob = 0.1;
  custom.throttle_retry_after = sim_time::from_sec(77);

  // b never uses its duration/hint fields (all its rates are zero), so its
  // defaults must not override custom's values — in either argument order.
  const fault_plan left = fault_plan::merged(custom, fault_plan::none());
  const fault_plan right = fault_plan::merged(fault_plan::none(), custom);
  EXPECT_EQ(left.outage_mean_duration, sim_time::from_sec(99));
  EXPECT_EQ(right.outage_mean_duration, sim_time::from_sec(99));
  EXPECT_EQ(left.throttle_retry_after, sim_time::from_sec(77));
  EXPECT_EQ(right.throttle_retry_after, sim_time::from_sec(77));
}

TEST(FaultPlanCrashes, SampledCrashesAreDeterministicAndBounded) {
  fault_plan plan = fault_plan::crashes(0.5, /*seed=*/21);
  plan.max_crashes = 4;
  EXPECT_TRUE(plan.enabled());

  fault_injector a(plan, /*env_seed=*/9);
  fault_injector b(plan, /*env_seed=*/9);
  int fired = 0;
  for (int i = 0; i < 200; ++i) {
    const bool ca = a.should_crash(crash_site::mid_chunk);
    EXPECT_EQ(ca, b.should_crash(crash_site::mid_chunk)) << "draw " << i;
    fired += ca ? 1 : 0;
  }
  // max_crashes bounds the cascade even at 50% per site.
  EXPECT_EQ(fired, 4);
  EXPECT_EQ(a.crashes_injected(), 4);
  EXPECT_EQ(a.injected(fault_kind::client_crash), 4u);
}

TEST(FaultInjector, ForcedCrashFiresOnceAtItsSiteOnly) {
  fault_injector inj(fault_plan::none(), 0);
  inj.force_crash(crash_site::before_commit, /*skip=*/1);
  EXPECT_TRUE(inj.enabled());

  // Other sites never trigger a forced crash (and consume no RNG).
  EXPECT_FALSE(inj.should_crash(crash_site::after_plan));
  EXPECT_FALSE(inj.should_crash(crash_site::mid_chunk));
  // First opportunity at the armed site is skipped, the second fires.
  EXPECT_FALSE(inj.should_crash(crash_site::before_commit));
  EXPECT_TRUE(inj.should_crash(crash_site::before_commit));
  // One-shot: disarmed afterwards.
  EXPECT_FALSE(inj.should_crash(crash_site::before_commit));
  EXPECT_FALSE(inj.enabled());
  EXPECT_EQ(inj.crashes_injected(), 1);
}

// ---------------------------------------------------------------------------
// Per-connection fault domains (the transfer scheduler's parallel flows)
// ---------------------------------------------------------------------------

TEST(FaultInjector, DomainZeroIsTheInjectorItself) {
  fault_injector inj(fault_plan::degraded(0.5), /*env_seed=*/7);
  EXPECT_EQ(&inj.domain(0), &inj);
  EXPECT_EQ(inj.domain_count(), 0u);
}

TEST(FaultInjector, DomainsAreStableAndDeterministic) {
  const fault_plan plan = fault_plan::degraded(0.5, /*seed=*/42);
  fault_injector a(plan, /*env_seed=*/7);
  fault_injector b(plan, /*env_seed=*/7);

  // Repeated lookups return the same child; creating domain 3 materializes
  // the lower-numbered ones too.
  fault_injector& a3 = a.domain(3);
  EXPECT_EQ(&a.domain(3), &a3);
  EXPECT_EQ(a.domain_count(), 3u);

  // Two injectors built from the same (plan, env seed) grow identical
  // domain streams.
  for (std::uint32_t d = 1; d <= 3; ++d) {
    for (int i = 0; i < 200; ++i) {
      EXPECT_EQ(a.domain(d).sample_exchange_fault(),
                b.domain(d).sample_exchange_fault())
          << "domain " << d << " draw " << i;
    }
  }
  EXPECT_EQ(a.injected_total_all_domains(), b.injected_total_all_domains());
}

TEST(FaultInjector, DomainsAreIndependentSchedules) {
  fault_injector inj(fault_plan::degraded(1.0, /*seed=*/42), /*env_seed=*/7);
  // Sibling domains must not share a fault stream: collect each domain's
  // fault/no-fault pattern over a window and require at least one mismatch.
  std::vector<std::vector<bool>> pattern(3);
  for (std::uint32_t d = 1; d <= 3; ++d) {
    for (int i = 0; i < 64; ++i) {
      pattern[d - 1].push_back(
          inj.domain(d).sample_exchange_fault().has_value());
    }
  }
  EXPECT_NE(pattern[0], pattern[1]);
  EXPECT_NE(pattern[1], pattern[2]);
}

TEST(FaultInjector, DomainDrawsNeverTouchTheMainStream) {
  const fault_plan plan = fault_plan::degraded(0.7, /*seed=*/42);
  fault_injector pristine(plan, /*env_seed=*/7);
  fault_injector used(plan, /*env_seed=*/7);
  // Hammer the child domains of one injector...
  for (std::uint32_t d = 1; d <= 4; ++d) {
    for (int i = 0; i < 500; ++i) {
      used.domain(d).sample_exchange_fault();
      used.domain(d).jitter01();
    }
  }
  // ...and the main (domain-0) streams still march in lockstep: existing
  // single-connection identities survive scheduler activity.
  for (int i = 0; i < 500; ++i) {
    EXPECT_EQ(pristine.sample_exchange_fault(), used.sample_exchange_fault());
    EXPECT_DOUBLE_EQ(pristine.jitter01(), used.jitter01());
  }
}

TEST(FaultInjector, ChildDomainsDropForcedAndCrashFaults) {
  // Count-based forced faults and crash probability belong to the main
  // schedule; children only inherit the stochastic link/server rates.
  fault_plan plan = fault_plan::degraded(0.5, /*seed=*/42);
  plan.fail_first_exchanges = 3;
  fault_injector inj(plan, /*env_seed=*/7);
  EXPECT_EQ(inj.domain(1).plan().fail_first_exchanges, 0);
  EXPECT_EQ(inj.domain(1).plan().fail_first_server_ops, 0);
  EXPECT_EQ(inj.domain(1).plan().crash_prob, 0.0);
  EXPECT_EQ(inj.plan().fail_first_exchanges, 3);
}

// ---------------------------------------------------------------------------
// Sync engine under faults
// ---------------------------------------------------------------------------

// A minimal clock+cloud+client rig wired by hand, so the same workload can
// run once with no injector and once with a wired-but-disabled one.
struct manual_rig {
  sim_clock clock;
  cloud cl{cloud_config{}};
  memfs fs;
  std::unique_ptr<sync_client> client;

  explicit manual_rig(fault_injector* inj) {
    sync_options opts;
    opts.profile = dropbox();
    opts.method = access_method::pc_client;
    opts.faults = inj;
    client = std::make_unique<sync_client>(clock, fs, cl, 0, std::move(opts));
    cl.set_fault_injector(inj);
  }

  void settle() {
    for (int guard = 0; guard < 100; ++guard) {
      clock.run_all();
      clock.advance_to(std::max(clock.now(), client->busy_until()));
      if (!client->has_pending() && clock.pending() == 0) return;
    }
  }

  void run_workload() {
    fs.create("w/file", patterned(64 * KiB), clock.now());
    settle();
    byte_buffer v2 = patterned(64 * KiB);
    v2[1000] ^= 0xff;
    fs.write("w/file", std::move(v2), clock.now());
    settle();
  }
};

TEST(SyncWithFaults, WiredButDisabledInjectorIsByteIdentical) {
  // The tentpole invariant: attaching an injector with an all-zero plan must
  // not change a single metered byte or timestamp.
  manual_rig plain(nullptr);
  fault_injector inert(fault_plan::none(), /*env_seed=*/1234);
  manual_rig wired(&inert);

  plain.run_workload();
  wired.run_workload();

  EXPECT_TRUE(plain.client->meter() == wired.client->meter())
      << "plain:\n" << plain.client->meter().summary() << "wired:\n"
      << wired.client->meter().summary();
  EXPECT_EQ(plain.client->busy_until(), wired.client->busy_until());
  EXPECT_TRUE(plain.client->counters() == wired.client->counters());
  EXPECT_EQ(plain.client->handshake_count(), wired.client->handshake_count());
  EXPECT_EQ(wired.client->counters().retries, 0u);
  EXPECT_EQ(inert.injected_total(), 0u);
}

TEST(SyncWithFaults, ExchangeFaultsRetryUntilSuccess) {
  experiment_env env(cfg_for(dropbox()));
  station& st = env.primary();
  st.fs.create("f", patterned(128 * KiB), env.clock().now());
  env.settle();
  ASSERT_TRUE(env.the_cloud().file_content(0, "f").has_value());

  const auto snap = st.client->meter().snap();
  env.faults().force_exchange_failures(2);
  modify_random_byte(st.fs, "f", env.random(), env.clock().now());
  env.settle();

  // Both connection resets were retried within the same transaction.
  EXPECT_EQ(st.client->counters().retries, 2u);
  EXPECT_EQ(st.client->counters().requeues, 0u);
  EXPECT_EQ(st.client->counters().fallbacks, 0u);
  EXPECT_EQ(env.faults().injected(fault_kind::connection_reset), 2u);
  // The wasted control segments were metered as retry traffic.
  EXPECT_GT(st.client->meter().by_category(traffic_category::retry), 0u);
  EXPECT_GT(experiment_env::traffic_since(st, snap), 0u);
  // And the cloud still converged to the local content.
  EXPECT_EQ(to_string(*env.the_cloud().file_content(0, "f")),
            to_string(st.fs.read("f")));
}

TEST(SyncWithFaults, ServerRejectionsFallBackToFullUpload) {
  experiment_env env(cfg_for(dropbox()));  // delta-sync service
  station& st = env.primary();
  const byte_buffer original = make_compressed_file(env.random(), 256 * KiB);
  st.fs.create("big", original, env.clock().now());
  env.settle();

  const auto snap = st.client->meter().snap();
  // Exactly delta_fallback_after rejections: the delta path is abandoned and
  // the change re-ships as a full upload.
  ASSERT_EQ(env.config().retry.delta_fallback_after, 2);
  env.faults().force_server_failures(2);
  modify_random_byte(st.fs, "big", env.random(), env.clock().now());
  env.settle();

  EXPECT_EQ(st.client->counters().fallbacks, 1u);
  EXPECT_GE(st.client->counters().retries, 2u);
  EXPECT_EQ(st.client->counters().requeues, 0u);
  // A one-byte edit normally ships one ~10 KB chunk; the fallback re-ships
  // the whole (incompressible) file.
  EXPECT_GT(experiment_env::traffic_since(st, snap), 200 * KiB);
  EXPECT_EQ(to_string(*env.the_cloud().file_content(0, "big")),
            to_string(st.fs.read("big")));
}

TEST(SyncWithFaults, GiveUpRequeuesAndEventuallySyncs) {
  experiment_env env(cfg_for(google_drive()));
  station& st = env.primary();
  ASSERT_EQ(env.config().retry.max_attempts, 6);

  // 12 consecutive exchange failures = two full rounds of exhausted attempts
  // (each requeued with a cooldown), then the third round succeeds.
  env.faults().force_exchange_failures(12);
  st.fs.create("stubborn", patterned(32 * KiB), env.clock().now());
  env.settle();

  EXPECT_EQ(st.client->counters().retries, 12u);
  EXPECT_EQ(st.client->counters().requeues, 2u);
  ASSERT_TRUE(env.the_cloud().file_content(0, "stubborn").has_value());
  EXPECT_EQ(to_string(*env.the_cloud().file_content(0, "stubborn")),
            to_string(st.fs.read("stubborn")));
  // Nothing left dirty once it finally landed.
  EXPECT_FALSE(st.client->has_pending());
}

TEST(SyncWithFaults, PollFailureLeavesQueueIntact) {
  experiment_env env(cfg_for(dropbox()));
  station& a = env.primary();
  station& b = env.add_station(0);  // second device, same account

  a.fs.create("shared/doc", patterned(4 * KiB), env.clock().now());
  env.settle();

  // The first poll is rejected by the server; the notification queue must
  // survive untouched.
  env.faults().force_server_failures(1);
  EXPECT_EQ(b.client->poll_remote_changes(), 0u);
  EXPECT_EQ(b.client->counters().poll_failures, 1u);
  EXPECT_FALSE(b.fs.exists("shared/doc"));
  EXPECT_GT(b.client->meter().by_category(traffic_category::retry), 0u);

  // The retried poll drains everything the failed one left behind.
  EXPECT_GE(b.client->poll_remote_changes(), 1u);
  env.settle();
  ASSERT_TRUE(b.fs.exists("shared/doc"));
  EXPECT_EQ(to_string(b.fs.read("shared/doc")),
            to_string(a.fs.read("shared/doc")));
}

}  // namespace
}  // namespace cloudsync
