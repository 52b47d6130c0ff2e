// Paper-level integration tests: each checks that a packaged experiment
// reproduces the *shape* of the corresponding published result.
#include <gtest/gtest.h>

#include <functional>
#include <vector>

#include "core/experiment.hpp"
#include "core/parallel_runner.hpp"

namespace cloudsync {
namespace {

experiment_config cfg_for(service_profile p,
                          access_method m = access_method::pc_client) {
  experiment_config cfg{std::move(p)};
  cfg.method = m;
  return cfg;
}

// --- Experiment 1: file creation (Table 6 / Fig 3) --------------------------

TEST(Exp1Creation, OneByteFileCostsRoughlyTableSixOverhead) {
  // Table 6, 1 B column (PC client): GD ≈ 9 K, DB ≈ 38 K, U1 ≈ 2 K.
  const std::uint64_t gd = measure_creation_traffic(cfg_for(google_drive()), 1);
  const std::uint64_t db = measure_creation_traffic(cfg_for(dropbox()), 1);
  const std::uint64_t u1 = measure_creation_traffic(cfg_for(ubuntu_one()), 1);
  EXPECT_NEAR(static_cast<double>(gd), 9e3, 4e3);
  EXPECT_NEAR(static_cast<double>(db), 38e3, 8e3);
  EXPECT_NEAR(static_cast<double>(u1), 2e3, 1.5e3);
  // Ordering: Ubuntu One leanest, Dropbox heaviest (of these three).
  EXPECT_LT(u1, gd);
  EXPECT_LT(gd, db);
}

TEST(Exp1Creation, TenMegabyteFileNearPayload) {
  // Table 6, 10 M column: all services land at 10.5-12.5 MB.
  for (const service_profile& s : all_services()) {
    const std::uint64_t traffic =
        measure_creation_traffic(cfg_for(s), 10 * MiB);
    EXPECT_GT(traffic, 10 * MiB) << s.name;
    EXPECT_LT(traffic, 13 * MiB) << s.name;
  }
}

TEST(Exp1Creation, TueFallsWithFileSize) {
  // Fig 3: small files → huge TUE; >= 1 MB → TUE < 1.4.
  const experiment_config cfg = cfg_for(google_drive());
  const double tue_1k =
      tue(measure_creation_traffic(cfg, 1 * KiB), 1 * KiB);
  const double tue_100k =
      tue(measure_creation_traffic(cfg, 100 * KiB), 100 * KiB);
  const double tue_1m =
      tue(measure_creation_traffic(cfg, 1 * MiB), 1 * MiB);
  EXPECT_GT(tue_1k, 5.0);
  EXPECT_LT(tue_100k, 1.5);
  EXPECT_GT(tue_100k, 1.0);
  EXPECT_LT(tue_1m, 1.4);
  EXPECT_GT(tue_1k, tue_100k);
  EXPECT_GT(tue_100k, tue_1m);
}

TEST(Exp1Creation, WebAndMobileAnchorsMatchTableSix) {
  // Table 6, 1 B column, web row: GD 6 K, OD 28 K, U1 37 K.
  EXPECT_NEAR(static_cast<double>(measure_creation_traffic(
                  cfg_for(google_drive(), access_method::web_browser), 1)),
              6e3, 2.5e3);
  EXPECT_NEAR(static_cast<double>(measure_creation_traffic(
                  cfg_for(onedrive(), access_method::web_browser), 1)),
              28e3, 6e3);
  EXPECT_NEAR(static_cast<double>(measure_creation_traffic(
                  cfg_for(ubuntu_one(), access_method::web_browser), 1)),
              37e3, 7e3);
  // Mobile row: GD 32 K, DB 18 K, Box 16 K.
  EXPECT_NEAR(static_cast<double>(measure_creation_traffic(
                  cfg_for(google_drive(), access_method::mobile_app), 1)),
              32e3, 6e3);
  EXPECT_NEAR(static_cast<double>(measure_creation_traffic(
                  cfg_for(dropbox(), access_method::mobile_app), 1)),
              18e3, 5e3);
  EXPECT_NEAR(static_cast<double>(measure_creation_traffic(
                  cfg_for(box(), access_method::mobile_app), 1)),
              16e3, 5e3);
}

TEST(Exp1Creation, MobileOverheadExceedsPcForMostServices) {
  // The paper's observation that mobile users suffer the most per-event
  // overhead (true for GD, OD, U1, SS; Dropbox/Box invert it).
  for (const char* name :
       {"Google Drive", "OneDrive", "Ubuntu One", "SugarSync"}) {
    const service_profile s = *find_service(name);
    const std::uint64_t pc = measure_creation_traffic(
        cfg_for(s, access_method::pc_client), 1);
    const std::uint64_t mobile = measure_creation_traffic(
        cfg_for(s, access_method::mobile_app), 1);
    EXPECT_GT(mobile, pc) << name;
  }
}

// --- Experiment 1': batched creation (Table 7) -------------------------------

TEST(Exp1bBds, DropboxAndUbuntuOnePcAreEfficient) {
  const std::uint64_t update = 100 * KiB;
  const double tue_db = tue(
      measure_batch_creation_traffic(cfg_for(dropbox()), 100, KiB), update);
  const double tue_u1 = tue(
      measure_batch_creation_traffic(cfg_for(ubuntu_one()), 100, KiB), update);
  // Table 7: 1.2 and 1.4.
  EXPECT_LT(tue_db, 2.0);
  EXPECT_LT(tue_u1, 2.2);
}

TEST(Exp1bBds, NonBdsServicesWasteTraffic) {
  const std::uint64_t update = 100 * KiB;
  for (const char* name : {"Google Drive", "OneDrive", "Box", "SugarSync"}) {
    const double t = tue(measure_batch_creation_traffic(
                             cfg_for(*find_service(name)), 100, KiB),
                         update);
    // Table 7: 9-13 for PC clients.
    EXPECT_GT(t, 6.0) << name;
    EXPECT_LT(t, 25.0) << name;
  }
}

TEST(Exp1bBds, WebBdsIsPartialForDropbox) {
  const std::uint64_t update = 100 * KiB;
  const double pc = tue(
      measure_batch_creation_traffic(cfg_for(dropbox()), 100, KiB), update);
  const double web =
      tue(measure_batch_creation_traffic(
              cfg_for(dropbox(), access_method::web_browser), 100, KiB),
          update);
  EXPECT_GT(web, pc);   // partial BDS is worse than PC BDS
  EXPECT_LT(web, 12.0);  // but far better than no BDS (Table 7: 6.0)
}

// --- Experiment 2: deletion ---------------------------------------------------

TEST(Exp2Deletion, NegligibleForAllServicesAndSizes) {
  for (const service_profile& s : all_services()) {
    for (std::uint64_t z : {std::uint64_t{1} * KiB, std::uint64_t{1} * MiB}) {
      const std::uint64_t traffic =
          measure_deletion_traffic(cfg_for(s), z);
      EXPECT_LT(traffic, 100 * KiB) << s.name << " z=" << z;
    }
  }
}

// --- Experiment 3: modification & sync granularity (Fig 4) -------------------

TEST(Exp3Modification, IdsIsFlatFullFileGrows) {
  const experiment_config db = cfg_for(dropbox());
  const experiment_config gd = cfg_for(google_drive());

  const std::uint64_t db_100k = measure_modification_traffic(db, 100 * KiB);
  const std::uint64_t db_1m = measure_modification_traffic(db, 1 * MiB);
  const std::uint64_t gd_100k = measure_modification_traffic(gd, 100 * KiB);
  const std::uint64_t gd_1m = measure_modification_traffic(gd, 1 * MiB);

  // Dropbox PC: ~50 KB regardless of size (Fig 4a).
  EXPECT_LT(db_100k, 120 * KiB);
  EXPECT_LT(db_1m, 120 * KiB);
  EXPECT_LT(db_1m, db_100k * 3);  // flat
  // Google Drive: grows with the file (full-file sync).
  EXPECT_GT(gd_1m, 1 * MiB);
  EXPECT_GT(gd_1m, gd_100k * 5);
}

TEST(Exp3Modification, MobileAppsAlwaysFullFile) {
  // Fig 4(c): even Dropbox re-uploads everything from mobile.
  const std::uint64_t traffic = measure_modification_traffic(
      cfg_for(dropbox(), access_method::mobile_app), 1 * MiB);
  EXPECT_GT(traffic, 900 * KiB);
}

TEST(Exp3Modification, WebAlwaysFullFile) {
  const std::uint64_t traffic = measure_modification_traffic(
      cfg_for(sugarsync(), access_method::web_browser), 1 * MiB);
  EXPECT_GT(traffic, 900 * KiB);
}

// --- Experiment 4: compression (Table 8) -------------------------------------

TEST(Exp4Compression, UploadMatchesTable8Pattern) {
  const std::uint64_t x = 4 * MiB;
  const std::uint64_t gd =
      measure_text_upload_traffic(cfg_for(google_drive()), x);
  const std::uint64_t db = measure_text_upload_traffic(cfg_for(dropbox()), x);
  const std::uint64_t u1 =
      measure_text_upload_traffic(cfg_for(ubuntu_one()), x);
  // Non-compressing services ship ~the full size.
  EXPECT_GT(gd, x);
  // Dropbox and Ubuntu One compress on PC upload.
  EXPECT_LT(db, gd * 8 / 10);
  EXPECT_LT(u1, gd * 8 / 10);
}

TEST(Exp4Compression, WebUploadNeverCompressed) {
  const std::uint64_t x = 2 * MiB;
  for (const char* name : {"Dropbox", "Ubuntu One"}) {
    const std::uint64_t t = measure_text_upload_traffic(
        cfg_for(*find_service(name), access_method::web_browser), x);
    EXPECT_GT(t, x) << name;
  }
}

TEST(Exp4Compression, MobileCompressionIsWeakerThanPc) {
  const std::uint64_t x = 4 * MiB;
  const std::uint64_t pc = measure_text_upload_traffic(cfg_for(dropbox()), x);
  const std::uint64_t mobile = measure_text_upload_traffic(
      cfg_for(dropbox(), access_method::mobile_app), x);
  EXPECT_GT(mobile, pc);
  EXPECT_LT(mobile, x * 115 / 100);  // still compressed a little
}

TEST(Exp4Compression, DownloadCompressedByDropboxEverywhere) {
  const std::uint64_t x = 2 * MiB;
  for (access_method m : all_access_methods) {
    const std::uint64_t dn =
        measure_text_download_traffic(cfg_for(dropbox(), m), x);
    EXPECT_LT(dn, x * 8 / 10) << to_string(m);
  }
  // Ubuntu One mobile download is NOT compressed (Table 8: 10.6 MB).
  const std::uint64_t u1_mobile = measure_text_download_traffic(
      cfg_for(ubuntu_one(), access_method::mobile_app), x);
  EXPECT_GT(u1_mobile, x);
}

// --- Experiment 6: frequent modifications (Fig 6) ----------------------------

TEST(Exp6FrequentMods, FullFileNoDeferOveruses) {
  // Box, "4 KB / 8 sec" to 128 KB total (period beyond its commit
  // processing): every append re-uploads the whole growing file.
  const auto res =
      run_append_experiment(cfg_for(box()), 4.0, 8.0, 128 * KiB);
  EXPECT_GT(res.tue(), 10.0);
  EXPECT_GT(res.counters.commits, 20u);
}

TEST(Exp6FrequentMods, IdsKeepsTueModerate) {
  const auto box_res =
      run_append_experiment(cfg_for(box()), 4.0, 8.0, 128 * KiB);
  const auto db_res =
      run_append_experiment(cfg_for(dropbox()), 4.0, 8.0, 128 * KiB);
  EXPECT_LT(db_res.tue(), box_res.tue());
}

TEST(Exp6FrequentMods, FixedDeferAbsorbsFastUpdates) {
  // Google Drive, X = 2 < T = 4.2: the debounce timer keeps resetting, so
  // nearly everything batches into one sync — TUE ≈ 1.
  const auto res =
      run_append_experiment(cfg_for(google_drive()), 2.0, 2.0, 64 * KiB);
  EXPECT_LT(res.tue(), 3.0);
  EXPECT_LE(res.counters.commits, 3u);
}

TEST(Exp6FrequentMods, FixedDeferFailsBeyondT) {
  // X = 6 > T = 4.2: every append syncs separately again (Fig 6a).
  const auto fast =
      run_append_experiment(cfg_for(google_drive()), 2.0, 2.0, 64 * KiB);
  const auto slow =
      run_append_experiment(cfg_for(google_drive()), 6.0, 6.0, 64 * KiB);
  EXPECT_GT(slow.tue(), fast.tue() * 3);
}

TEST(Exp6FrequentMods, AsdKeepsTueNearOneEverywhere) {
  // The paper's proposal: ASD batches any steady modification stream.
  const service_profile gd_asd =
      with_defer(google_drive(), defer_config::asd());
  for (double x : {2.0, 6.0, 10.0}) {
    const auto res =
        run_append_experiment(cfg_for(gd_asd), x, x, 64 * KiB);
    EXPECT_LT(res.tue(), 4.0) << "X=" << x;
  }
}

// --- Experiment 7: network & hardware (Figs 7, 8) ----------------------------

TEST(Exp7Network, PoorNetworkSavesTraffic) {
  experiment_config mn = cfg_for(box());
  experiment_config bj = cfg_for(box());
  bj.link = link_config::beijing();
  const auto mn_res = run_append_experiment(mn, 1.0, 1.0, 64 * KiB);
  const auto bj_res = run_append_experiment(bj, 1.0, 1.0, 64 * KiB);
  EXPECT_LT(bj_res.tue(), mn_res.tue());
  EXPECT_LT(bj_res.counters.commits, mn_res.counters.commits);
}

TEST(Exp7Network, SimpleOperationsUnaffectedByNetwork) {
  experiment_config mn = cfg_for(google_drive());
  experiment_config bj = mn;
  bj.link = link_config::beijing();
  const std::uint64_t t_mn = measure_creation_traffic(mn, 1 * MiB);
  const std::uint64_t t_bj = measure_creation_traffic(bj, 1 * MiB);
  // Same bytes on the wire regardless of bandwidth/latency.
  EXPECT_NEAR(static_cast<double>(t_mn), static_cast<double>(t_bj),
              static_cast<double>(t_mn) * 0.02);
}

TEST(Exp7Hardware, SlowerHardwareSavesTraffic) {
  experiment_config fast = cfg_for(dropbox());
  fast.hardware = hardware_profile::m3();
  experiment_config slow = cfg_for(dropbox());
  slow.hardware = hardware_profile::m2();
  // Sub-second modification stream: M2's ~0.5 s indexing batches it.
  const auto fast_res = run_append_experiment(fast, 0.4, 0.4, 128 * KiB);
  const auto slow_res = run_append_experiment(slow, 0.4, 0.4, 128 * KiB);
  EXPECT_LT(slow_res.counters.commits, fast_res.counters.commits);
  EXPECT_LT(slow_res.total_traffic(), fast_res.total_traffic());
}

TEST(Exp7Bandwidth, HigherBandwidthMeansHigherTue) {
  experiment_config lo = cfg_for(dropbox());
  lo.link.up_bytes_per_sec = mbps_to_bytes_per_sec(1.6);
  experiment_config hi = cfg_for(dropbox());
  hi.link.up_bytes_per_sec = mbps_to_bytes_per_sec(20.0);
  const auto lo_res = run_append_experiment(lo, 1.0, 1.0, 128 * KiB);
  const auto hi_res = run_append_experiment(hi, 1.0, 1.0, 128 * KiB);
  EXPECT_GE(hi_res.tue(), lo_res.tue());
}

TEST(Exp7Latency, LongerLatencyMeansLowerTue) {
  experiment_config near = cfg_for(dropbox());
  near.link.rtt = sim_time::from_msec(40);
  experiment_config far = cfg_for(dropbox());
  far.link.rtt = sim_time::from_msec(1000);
  const auto near_res = run_append_experiment(near, 0.5, 0.5, 128 * KiB);
  const auto far_res = run_append_experiment(far, 0.5, 0.5, 128 * KiB);
  EXPECT_LE(far_res.tue(), near_res.tue());
}

// --- Determinism across grid threads -----------------------------------------

// The create-then-modify and append workloads are functions of their config
// alone: one grid evaluated on 1 and on 4 parallel_runner threads yields the
// same whole result in every cell (the tsan preset runs this too).
TEST(PackagedExperiments, ResultsIdenticalAcrossThreadCounts) {
  experiment_config degraded = cfg_for(dropbox());
  degraded.link = link_config::beijing();
  degraded.faults = fault_plan::degraded(0.5);

  experiment_config crashing = cfg_for(dropbox());
  crashing.journal = true;
  crashing.seed = 99;
  crashing.faults = fault_plan::merged(fault_plan::degraded(0.3, /*seed=*/11),
                                       fault_plan::crashes(0.2, /*seed=*/7));

  const struct {
    const char* name;
    std::function<experiment_result()> run;
  } cells[] = {
      {"create_modify_degraded",
       [&] { return run_create_modify_experiment(degraded, 4, 128 * KiB); }},
      {"create_modify_crashing",
       [&] { return run_create_modify_experiment(crashing, 4, 128 * KiB); }},
      {"append",
       [] {
         return run_append_experiment(cfg_for(dropbox()), 1.0, 1.0, 64 * KiB);
       }},
  };
  const auto evaluate = [&](unsigned threads) {
    std::vector<experiment_result> out(std::size(cells));
    parallel_runner pool(threads);
    pool.run_indexed(std::size(cells),
                     [&](std::size_t i) { out[i] = cells[i].run(); });
    return out;
  };
  const std::vector<experiment_result> serial = evaluate(1);
  const std::vector<experiment_result> parallel = evaluate(4);
  for (std::size_t i = 0; i < std::size(cells); ++i) {
    SCOPED_TRACE(cells[i].name);
    EXPECT_TRUE(serial[i] == parallel[i]);
    EXPECT_TRUE(serial[i].invariants.ok()) << serial[i].invariants.summary();
  }
  // The crashing cell really crashed and recovered.
  EXPECT_GT(serial[1].crashes, 0u);
}

}  // namespace
}  // namespace cloudsync
