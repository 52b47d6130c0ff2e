// Engine-level integration of the client cache tier: the uncapped-cache
// byte-identity invariant, cache-aware delta planning (evicted shadow ->
// full-file fallback), rehydration metering, write-back flushing through
// the journal/crash machinery, pinning under capacity pressure, and the
// thread-count determinism of cache-enabled fleet replays. Unit tests for
// the cache itself live in test_block_cache.cpp.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/experiment.hpp"
#include "core/fleet.hpp"
#include "core/invariants.hpp"
#include "core/parallel_runner.hpp"

namespace cloudsync {
namespace {

experiment_config tier_cfg(std::uint64_t capacity,
                           cache_eviction policy = cache_eviction::lru,
                           cache_write_mode mode =
                               cache_write_mode::write_through,
                           double window_sec = 4.0) {
  experiment_config cfg{dropbox()};
  cfg.method = access_method::pc_client;
  cfg.cache_tier = true;
  cfg.cache.capacity_bytes = capacity;
  cfg.cache.block_bytes = 8 * KiB;
  cfg.cache.policy = policy;
  cfg.cache.write_mode = mode;
  cfg.cache.coalesce_window = sim_time::from_sec(window_sec);
  return cfg;
}

// ---------------------------------------------------------------------------
// Uncapped identity: the tier is invisible until capacity forces its hand.
// ---------------------------------------------------------------------------

TEST(BlockCacheTier, UncappedWriteThroughIsByteIdenticalToCacheless) {
  experiment_config cacheless{dropbox()};
  cacheless.method = access_method::pc_client;
  const experiment_result base = run_cache_experiment(
      cacheless, cache_workload::looping_scan, 6, 32 * KiB);
  for (const cache_eviction policy : {cache_eviction::lru,
                                      cache_eviction::arc}) {
    SCOPED_TRACE(to_string(policy));
    const experiment_result cached = run_cache_experiment(
        tier_cfg(0, policy), cache_workload::looping_scan, 6, 32 * KiB);
    // Everything on the wire and in sim time matches the cacheless run.
    EXPECT_TRUE(base.identity() == cached.identity());
    // An uncapped cache never misses after install and never rehydrates.
    EXPECT_EQ(cached.meter.by_category(traffic_category::rehydrate), 0u);
    EXPECT_EQ(cached.cache.evictions, 0u);
    EXPECT_DOUBLE_EQ(cached.cache.hit_ratio(), 1.0);
  }
}

// ---------------------------------------------------------------------------
// Cache-aware planning: no resident old version -> no delta basis.
// ---------------------------------------------------------------------------

TEST(BlockCacheTier, EvictedShadowFallsBackToFullFileUpload) {
  experiment_env env(tier_cfg(0));
  station& st = env.primary();
  st.fs.create("doc", env.gen_text(64 * KiB), env.clock().now());
  env.settle();
  ASSERT_TRUE(st.cache != nullptr);
  ASSERT_TRUE(st.cache->tracks("doc"));

  // Purge the device cache, then edit: planning probes residency, finds the
  // old version gone, and must ship the whole file instead of a delta.
  st.cache->drop_clean_blocks();
  modify_random_byte(st.fs, "doc", env.random(), env.clock().now());
  env.settle();

  EXPECT_GE(st.cache->stats().plan_fallbacks, 1u);
  EXPECT_EQ(to_string(*env.the_cloud().file_content(0, "doc")),
            to_string(st.fs.read("doc")));
  // The full-file fallback re-installed the new version: resident again.
  EXPECT_TRUE(st.cache->probe_resident("doc"));
}

TEST(BlockCacheTier, ResidentShadowStillPlansDelta) {
  // Control for the fallback test: with the old version resident, the same
  // edit ships as a delta — full-file fallback would cost far more than
  // the whole file's bytes in payload.
  auto payload_up = [](bool purge) {
    experiment_env env(tier_cfg(0));
    station& st = env.primary();
    st.fs.create("doc", env.gen_text(64 * KiB), env.clock().now());
    env.settle();
    if (purge) st.cache->drop_clean_blocks();
    const traffic_meter::snapshot snap = st.client->meter().snap();
    modify_random_byte(st.fs, "doc", env.random(), env.clock().now());
    env.settle();
    EXPECT_EQ(to_string(*env.the_cloud().file_content(0, "doc")),
              to_string(st.fs.read("doc")));
    return st.client->meter().total_since(snap);
  };
  const std::uint64_t delta_bytes = payload_up(false);
  const std::uint64_t full_bytes = payload_up(true);
  EXPECT_LT(delta_bytes, full_bytes);
}

// ---------------------------------------------------------------------------
// Rehydration: reads of evicted blocks fetch from the cloud, metered.
// ---------------------------------------------------------------------------

TEST(BlockCacheTier, ColdReadRehydratesAndMetersTraffic) {
  experiment_env env(tier_cfg(0));
  station& st = env.primary();
  st.fs.create("cold", env.gen_compressed(64 * KiB), env.clock().now());
  env.settle();
  ASSERT_EQ(st.cache->drop_clean_blocks(), 8u);  // 64 KiB / 8 KiB blocks

  const content_ref got = st.client->read_file("cold");
  EXPECT_EQ(to_string(got), to_string(st.fs.read("cold")));
  EXPECT_EQ(st.cache->stats().rehydrated_blocks, 8u);
  EXPECT_GT(st.client->meter().get(direction::down,
                                   traffic_category::rehydrate),
            0u);
  EXPECT_GT(st.client->meter().get(direction::up,
                                   traffic_category::rehydrate),
            0u);
  // Resident again: the next read is free.
  const traffic_meter::snapshot snap = st.client->meter().snap();
  st.client->read_file("cold");
  EXPECT_EQ(st.client->meter().total_since(snap), 0u);
}

TEST(BlockCacheTier, CachelessRunNeverMetersRehydrate) {
  experiment_config cfg{dropbox()};
  cfg.method = access_method::pc_client;
  const experiment_result r = run_cache_experiment(
      cfg, cache_workload::looping_scan, 4, 32 * KiB);
  EXPECT_EQ(r.meter.by_category(traffic_category::rehydrate), 0u);
}

// ---------------------------------------------------------------------------
// Pinning under pressure, end to end.
// ---------------------------------------------------------------------------

TEST(BlockCacheTier, PinnedPathStaysResidentThroughCapacityPressure) {
  // Capacity fits two 32 KiB files; five files cycle through. The pinned
  // one must remain fully resident no matter what the scan does.
  experiment_env env(tier_cfg(64 * KiB));
  station& st = env.primary();
  for (int i = 0; i < 5; ++i) {
    st.fs.create("f" + std::to_string(i), env.gen_compressed(32 * KiB),
                 env.clock().now());
  }
  env.settle();
  // Pin then hydrate: blocks evicted during the initial sync churn come
  // back once, and from here on eviction must route around them.
  st.cache->pin("f0");
  st.client->read_file("f0");
  ASSERT_TRUE(st.cache->probe_resident("f0"));
  for (int round = 0; round < 3; ++round) {
    for (int i = 1; i < 5; ++i) st.client->read_file("f" + std::to_string(i));
  }
  EXPECT_GT(st.cache->stats().evictions, 0u);
  EXPECT_TRUE(st.cache->probe_resident("f0")) << "pinned path was evicted";
  EXPECT_EQ(st.cache->pinned_paths(), 1u);
}

// ---------------------------------------------------------------------------
// Write-back: coalescing pays, and flushes ride the journal + crash
// machinery without losing or duplicating dirty blocks.
// ---------------------------------------------------------------------------

TEST(BlockCacheTier, WriteBackCoalescesAndBeatsWriteThrough) {
  service_profile profile = with_defer(dropbox(), defer_config::none());
  auto run = [&](cache_write_mode mode) {
    experiment_config cfg{profile};
    cfg.method = access_method::pc_client;
    cfg.cache_tier = true;
    cfg.cache.block_bytes = 8 * KiB;
    cfg.cache.write_mode = mode;
    cfg.cache.coalesce_window = sim_time::from_sec(5.0);
    return run_cache_experiment(cfg, cache_workload::frequent_mods, 4,
                                32 * KiB);
  };
  const experiment_result wt = run(cache_write_mode::write_through);
  const experiment_result wb = run(cache_write_mode::write_back);
  EXPECT_LT(wb.counters.commits, wt.counters.commits);
  EXPECT_LT(wb.tue(), wt.tue());
  EXPECT_GT(wb.cache.dirty_coalesced, 0u);
  EXPECT_GT(wb.cache.flushes, 0u);
}

TEST(BlockCacheTier, WriteBackQueueDrainsOnSettle) {
  experiment_env env(tier_cfg(0, cache_eviction::lru,
                              cache_write_mode::write_back, 6.0));
  station& st = env.primary();
  st.fs.create("doc", env.gen_text(32 * KiB), env.clock().now());
  env.settle();
  modify_random_byte(st.fs, "doc", env.random(), env.clock().now());
  // The write was intercepted into the dirty queue, not synced yet.
  EXPECT_EQ(st.client->write_back_pending(), 1u);
  EXPECT_EQ(st.cache->dirty_paths(), 1u);
  env.settle();
  EXPECT_EQ(st.client->write_back_pending(), 0u);
  EXPECT_EQ(st.cache->dirty_paths(), 0u);
  EXPECT_EQ(to_string(*env.the_cloud().file_content(0, "doc")),
            to_string(st.fs.read("doc")));
}

class BlockCacheCrash : public ::testing::TestWithParam<bool> {};

TEST_P(BlockCacheCrash, WriteBackFlushCrashRecoversWithoutLossOrDuplication) {
  const bool resume = GetParam();
  experiment_config cfg = tier_cfg(0, cache_eviction::lru,
                                   cache_write_mode::write_back, 4.0);
  cfg.journal = true;
  cfg.recovery.resume = resume;
  cfg.recovery.chunk_bytes = 2 * KiB;
  experiment_env env(cfg);
  station& st = env.primary();
  st.fs.create("wb/doc", env.gen_compressed(128 * KiB), env.clock().now());
  env.settle();
  ASSERT_EQ(st.crashes, 0u);

  // Edit through the write-back window, then die mid-flush: the coalesced
  // dirty blocks are in a journaled upload when the client vanishes.
  env.faults().force_crash(crash_site::mid_chunk, 1);
  modify_random_byte(st.fs, "wb/doc", env.random(), env.clock().now());
  env.settle();

  EXPECT_EQ(st.crashes, 1u);
  // No lost dirty blocks: the cloud holds exactly the local content.
  EXPECT_EQ(to_string(*env.the_cloud().file_content(0, "wb/doc")),
            to_string(st.fs.read("wb/doc")));
  // No duplicated dirty blocks: the journal records exactly one commit per
  // transaction (check_no_duplicate_commits), and nothing is left queued.
  const invariant_report report = check_invariants(env, st);
  EXPECT_TRUE(report.ok()) << report.summary();
  EXPECT_EQ(st.client->write_back_pending(), 0u);
  EXPECT_EQ(st.cache->dirty_blocks(), 0u);
  // The station-durable cache adopted the synced version.
  EXPECT_TRUE(st.cache->probe_resident("wb/doc"));
}

INSTANTIATE_TEST_SUITE_P(ResumeOnOff, BlockCacheCrash, ::testing::Bool(),
                         [](const ::testing::TestParamInfo<bool>& info) {
                           return info.param ? std::string("resume")
                                             : std::string("restart");
                         });

// ---------------------------------------------------------------------------
// Determinism: cache-enabled runs are identical across thread counts.
// ---------------------------------------------------------------------------

TEST(BlockCacheFleet, ReplayByteIdenticalAcrossThreadCounts) {
  fleet_config cfg;
  cfg.trace.scale = 0.004;
  cfg.max_files_per_service = 25;
  cfg.trace.max_file_bytes = 256 * KiB;
  cfg.cache_tier = true;
  cfg.cache.capacity_bytes = 256 * KiB;
  cfg.cache.block_bytes = 16 * KiB;
  cfg.cache.policy = cache_eviction::arc;

  fleet_config serial = cfg;
  serial.replay_threads = 1;
  fleet_config threaded = cfg;
  threaded.replay_threads = 4;

  const auto a = replay_trace_fleet(serial);
  const auto b = replay_trace_fleet(threaded);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].service, b[i].service);
    EXPECT_EQ(a[i].sync_traffic, b[i].sync_traffic) << a[i].service;
    EXPECT_EQ(a[i].commits, b[i].commits) << a[i].service;
    EXPECT_EQ(a[i].update_bytes, b[i].update_bytes) << a[i].service;
    EXPECT_EQ(a[i].backend_retained_bytes, b[i].backend_retained_bytes)
        << a[i].service;
  }
}

TEST(BlockCacheConcurrent, ParallelWriteBackEnvsAreIndependent) {
  // Four identical write-back experiments on four worker threads (each env
  // owns its world; the content store and memo caches are the only shared
  // state). Run under tsan in CI; identical results prove independence.
  constexpr std::size_t kRuns = 4;
  std::vector<experiment_result> results(kRuns);
  parallel_runner pool(4);
  pool.run_indexed(kRuns, [&](std::size_t i) {
    results[i] = run_cache_experiment(
        tier_cfg(96 * KiB, cache_eviction::arc, cache_write_mode::write_back,
                 5.0),
        cache_workload::frequent_mods, 4, 32 * KiB);
  });
  for (std::size_t i = 1; i < kRuns; ++i) {
    EXPECT_TRUE(results[0] == results[i]) << i;
  }
}

// ---------------------------------------------------------------------------
// Capacity sweep invariants, in miniature (the bench runs the full grid).
// ---------------------------------------------------------------------------

TEST(BlockCacheTier, HitRatioGrowsWithCapacityUnderLru) {
  double prev = -1.0;
  for (const std::uint64_t cap : {48 * KiB, 96 * KiB, 0 * KiB}) {
    const experiment_result r = run_cache_experiment(
        tier_cfg(cap), cache_workload::looping_scan, 6, 32 * KiB);
    EXPECT_GE(r.cache.hit_ratio() + 1e-12, prev) << "capacity " << cap;
    prev = r.cache.hit_ratio();
  }
}

}  // namespace
}  // namespace cloudsync
