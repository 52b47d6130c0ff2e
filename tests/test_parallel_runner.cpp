// The parallel runner must behave like a reordered serial loop: every index
// runs exactly once, exceptions propagate, and — because each experiment owns
// its whole simulation world and the shared memos are pure — parallel runs
// are bit-identical to serial ones.
#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <stdexcept>
#include <vector>

#include "cloudsync.hpp"

namespace cloudsync {
namespace {

TEST(ParallelRunner, RunsEveryIndexExactlyOnce) {
  parallel_runner pool(4);
  std::vector<std::atomic<int>> seen(137);
  pool.run_indexed(seen.size(), [&](std::size_t i) { ++seen[i]; });
  for (const auto& s : seen) EXPECT_EQ(s.load(), 1);
}

TEST(ParallelRunner, SingleThreadRunsInline) {
  parallel_runner pool(1);
  EXPECT_EQ(pool.thread_count(), 1u);
  // Inline execution implies strict index order.
  std::vector<std::size_t> order;
  pool.run_indexed(10, [&](std::size_t i) { order.push_back(i); });
  std::vector<std::size_t> expect(10);
  std::iota(expect.begin(), expect.end(), 0);
  EXPECT_EQ(order, expect);
}

TEST(ParallelRunner, EmptyAndSingleJobAreFine) {
  parallel_runner pool(4);
  int calls = 0;
  pool.run_indexed(0, [&](std::size_t) { ++calls; });
  EXPECT_EQ(calls, 0);
  pool.run_indexed(1, [&](std::size_t) { ++calls; });
  EXPECT_EQ(calls, 1);
}

TEST(ParallelRunner, ReusableAcrossRuns) {
  parallel_runner pool(3);
  std::atomic<int> total{0};
  for (int round = 0; round < 5; ++round) {
    pool.run_indexed(20, [&](std::size_t) { ++total; });
  }
  EXPECT_EQ(total.load(), 100);
}

TEST(ParallelRunner, PropagatesException) {
  parallel_runner pool(4);
  EXPECT_THROW(pool.run_indexed(16,
                                [&](std::size_t i) {
                                  if (i == 7) {
                                    throw std::runtime_error("boom");
                                  }
                                }),
               std::runtime_error);
  // The pool survives an exception and can run again.
  std::atomic<int> ok{0};
  pool.run_indexed(8, [&](std::size_t) { ++ok; });
  EXPECT_EQ(ok.load(), 8);
}

TEST(ParallelRunner, ParallelMapPreservesIndexOrder) {
  parallel_runner pool(4);
  const std::vector<int> out =
      parallel_map_n<int>(pool, 50, [](std::size_t i) {
        return static_cast<int>(i * i);
      });
  ASSERT_EQ(out.size(), 50u);
  for (std::size_t i = 0; i < out.size(); ++i) {
    EXPECT_EQ(out[i], static_cast<int>(i * i));
  }
}

TEST(ParallelRunner, ThreadCountAutoDetectIsPositive) {
  EXPECT_GE(parallel_runner::default_thread_count(), 1u);
  parallel_runner pool(0);
  EXPECT_GE(pool.thread_count(), 1u);
}

/// The acceptance property: a grid evaluated on 4 threads, sharing the
/// process-wide memos, must be bit-identical to the same grid serial. The
/// memo-free run this test once compared against is pinned by the memo_grid
/// golden digest.
TEST(ParallelDeterminism, GridMatchesSerialUncachedExactly) {
  std::vector<std::function<std::uint64_t()>> jobs;
  for (const service_profile& s : all_services()) {
    experiment_config cfg;
    cfg.profile = s;
    jobs.push_back([cfg] { return measure_creation_traffic(cfg, 64 * 1024); });
    jobs.push_back(
        [cfg] { return measure_modification_traffic(cfg, 32 * 1024); });
  }

  std::vector<std::uint64_t> serial(jobs.size());
  for (std::size_t i = 0; i < jobs.size(); ++i) serial[i] = jobs[i]();

  // Cold again, so the threads race each other's misses on shared keys.
  content_cache::global().clear();
  global_fingerprint_cache().clear();
  clear_incremental_sync_memos();
  clear_generation_memo();
  parallel_runner pool(4);
  std::vector<std::uint64_t> parallel(jobs.size());
  pool.run_indexed(jobs.size(),
                   [&](std::size_t i) { parallel[i] = jobs[i](); });

  EXPECT_EQ(parallel, serial);
}

TEST(ParallelDeterminism, FleetReplayIdenticalAtAnyThreadCount) {
  fleet_config cfg;
  cfg.trace.scale = 0.004;
  cfg.max_files_per_service = 25;
  cfg.trace.max_file_bytes = 256 * 1024;

  cfg.replay_threads = 1;
  const std::vector<fleet_service_report> serial = replay_trace_fleet(cfg);
  cfg.replay_threads = 4;
  const std::vector<fleet_service_report> parallel = replay_trace_fleet(cfg);

  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(serial[i].service, parallel[i].service);
    EXPECT_EQ(serial[i].files, parallel[i].files);
    EXPECT_EQ(serial[i].users, parallel[i].users);
    EXPECT_EQ(serial[i].update_bytes, parallel[i].update_bytes);
    EXPECT_EQ(serial[i].sync_traffic, parallel[i].sync_traffic);
    EXPECT_EQ(serial[i].commits, parallel[i].commits);
    EXPECT_DOUBLE_EQ(serial[i].mean_staleness_sec,
                     parallel[i].mean_staleness_sec);
    EXPECT_DOUBLE_EQ(serial[i].bill.total_usd(), parallel[i].bill.total_usd());
  }
}

}  // namespace
}  // namespace cloudsync
