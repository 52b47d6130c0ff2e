// Fleet replay: the macro-level pipeline over the synthetic trace.
#include <gtest/gtest.h>

#include "core/fleet.hpp"

namespace cloudsync {
namespace {

fleet_config small_config() {
  fleet_config cfg;
  cfg.trace.scale = 0.004;  // ~900 files generated
  cfg.max_files_per_service = 40;
  cfg.trace.max_file_bytes = 512 * KiB;
  return cfg;
}

TEST(Fleet, ReportsAllSixServices) {
  const auto reports = replay_trace_fleet(small_config());
  ASSERT_EQ(reports.size(), 6u);
  EXPECT_EQ(reports[0].service, "Google Drive");
  EXPECT_EQ(reports[2].service, "Dropbox");
  for (const fleet_service_report& r : reports) {
    EXPECT_GT(r.files, 0u) << r.service;
    EXPECT_GT(r.users, 0u) << r.service;
    EXPECT_GT(r.update_bytes, 0u) << r.service;
    EXPECT_GT(r.sync_traffic, 0u) << r.service;
    EXPECT_GT(r.commits, 0u) << r.service;
    // Compression + dedup can push TUE below 1 (traffic < raw update size),
    // but never implausibly far.
    EXPECT_GE(r.tue(), 0.5) << r.service;
  }
}

TEST(Fleet, Deterministic) {
  const auto a = replay_trace_fleet(small_config());
  const auto b = replay_trace_fleet(small_config());
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].sync_traffic, b[i].sync_traffic) << a[i].service;
    EXPECT_EQ(a[i].commits, b[i].commits) << a[i].service;
  }
}

TEST(Fleet, CostFollowsTraffic) {
  const auto reports = replay_trace_fleet(small_config());
  for (const fleet_service_report& r : reports) {
    if (r.sync_traffic > 100 * MiB) {
      EXPECT_GT(r.bill.total_usd(), 0.0) << r.service;
    }
    EXPECT_GE(r.bill.total_usd(), 0.0) << r.service;
  }
}

TEST(Fleet, CapsRespected) {
  fleet_config cfg = small_config();
  cfg.max_files_per_service = 10;
  const auto reports = replay_trace_fleet(cfg);
  for (const fleet_service_report& r : reports) {
    EXPECT_LE(r.files, 10u) << r.service;
  }
}

TEST(Fleet, MechanismsReduceTue) {
  // On the same mixed workload, Dropbox (BDS + IDS + dedup + compression)
  // must beat Box (none of the four) on TUE.
  const auto reports = replay_trace_fleet(small_config());
  double dropbox_tue = 0, box_tue = 0;
  for (const fleet_service_report& r : reports) {
    if (r.service == "Dropbox") dropbox_tue = r.tue();
    if (r.service == "Box") box_tue = r.tue();
  }
  EXPECT_LT(dropbox_tue, box_tue);
}

}  // namespace
}  // namespace cloudsync
