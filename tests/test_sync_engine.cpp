// Sync engine integration: end-to-end state convergence and the mechanics
// behind the paper's findings (IDS, BDS, dedup participation, batching).
#include <gtest/gtest.h>

#include "core/experiment.hpp"

namespace cloudsync {
namespace {

experiment_config cfg_for(service_profile p,
                          access_method m = access_method::pc_client) {
  experiment_config cfg{std::move(p)};
  cfg.method = m;
  return cfg;
}

TEST(SyncEngine, CreationReachesCloud) {
  experiment_env env(cfg_for(google_drive()));
  station& st = env.primary();
  st.fs.create("docs/a.txt", to_buffer("hello cloud"), env.clock().now());
  env.settle();

  const auto content = env.the_cloud().file_content(0, "docs/a.txt");
  ASSERT_TRUE(content.has_value());
  EXPECT_EQ(to_string(*content), "hello cloud");
  EXPECT_EQ(st.client->counters().commits, 1u);
  EXPECT_GT(st.client->meter().total(), 0u);
}

TEST(SyncEngine, ModificationUpdatesCloud) {
  experiment_env env(cfg_for(google_drive()));
  station& st = env.primary();
  st.fs.create("f", to_buffer("version one"), env.clock().now());
  env.settle();
  st.fs.write("f", to_buffer("version two, longer"), env.clock().now());
  env.settle();
  EXPECT_EQ(to_string(*env.the_cloud().file_content(0, "f")),
            "version two, longer");
  EXPECT_EQ(env.the_cloud().manifest(0, "f")->version, 2u);
}

TEST(SyncEngine, DeletionIsFake) {
  experiment_env env(cfg_for(box()));
  station& st = env.primary();
  st.fs.create("f", to_buffer("data"), env.clock().now());
  env.settle();
  const std::string key = env.the_cloud().manifest(0, "f")->object_key;
  st.fs.remove("f", env.clock().now());
  env.settle();
  EXPECT_FALSE(env.the_cloud().file_content(0, "f").has_value());
  EXPECT_EQ(env.the_cloud().store().version_count(key), 1u);  // retained
}

TEST(SyncEngine, CreateThenDeleteBeforeSyncIsFree) {
  // Under a deferment window, create+delete cancels out entirely.
  experiment_env env(cfg_for(onedrive()));  // 10.5 s defer
  station& st = env.primary();
  const auto snap = st.client->meter().snap();
  env.clock().schedule_at(sim_time::from_sec(1), [&] {
    st.fs.create("tmp", to_buffer("scratch"), env.clock().now());
  });
  env.clock().schedule_at(sim_time::from_sec(2), [&] {
    st.fs.remove("tmp", env.clock().now());
  });
  env.settle();
  EXPECT_EQ(experiment_env::traffic_since(st, snap), 0u);
  EXPECT_FALSE(env.the_cloud().file_content(0, "tmp").has_value());
}

TEST(SyncEngine, RenameMovesCloudFile) {
  experiment_env env(cfg_for(box()));
  station& st = env.primary();
  st.fs.create("old", to_buffer("content"), env.clock().now());
  env.settle();
  st.fs.rename("old", "new", env.clock().now());
  env.settle();
  EXPECT_FALSE(env.the_cloud().file_content(0, "old").has_value());
  EXPECT_EQ(to_string(*env.the_cloud().file_content(0, "new")), "content");
}

TEST(SyncEngine, IdsShipsDeltaNotFile) {
  experiment_env env(cfg_for(dropbox()));
  station& st = env.primary();
  const byte_buffer original = make_compressed_file(env.random(), 1 * MiB);
  st.fs.create("big", original, env.clock().now());
  env.settle();

  const auto snap = st.client->meter().snap();
  modify_random_byte(st.fs, "big", env.random(), env.clock().now());
  env.settle();
  const std::uint64_t traffic = experiment_env::traffic_since(st, snap);
  // One ~10 KB chunk + ~40 KB overhead — never the megabyte.
  EXPECT_LT(traffic, 120 * KiB);
  // Cloud converged to the modified content.
  EXPECT_EQ(to_string(*env.the_cloud().file_content(0, "big")),
            to_string(st.fs.read("big")));
}

TEST(SyncEngine, FullFileServiceReuploadsEverything) {
  experiment_env env(cfg_for(google_drive()));
  station& st = env.primary();
  const byte_buffer original = make_compressed_file(env.random(), 1 * MiB);
  st.fs.create("big", original, env.clock().now());
  env.settle();

  const auto snap = st.client->meter().snap();
  modify_random_byte(st.fs, "big", env.random(), env.clock().now());
  env.settle();
  EXPECT_GT(experiment_env::traffic_since(st, snap), 1 * MiB);
}

TEST(SyncEngine, DedupSkipsDuplicateUpload) {
  experiment_env env(cfg_for(ubuntu_one()));
  station& st = env.primary();
  const byte_buffer data = make_compressed_file(env.random(), 512 * KiB);
  st.fs.create("one", data, env.clock().now());
  env.settle();

  const auto snap = st.client->meter().snap();
  st.fs.create("two", data, env.clock().now());  // identical content
  env.settle();
  // Full-file dedup: second upload costs only metadata.
  EXPECT_LT(experiment_env::traffic_since(st, snap), 50 * KiB);
  EXPECT_TRUE(env.the_cloud().file_content(0, "two").has_value());
}

TEST(SyncEngine, CrossUserDedupOnUbuntuOne) {
  experiment_env env(cfg_for(ubuntu_one()));
  station& a = env.primary();
  station& b = env.add_station(1);
  const byte_buffer data = make_compressed_file(env.random(), 512 * KiB);
  a.fs.create("f", data, env.clock().now());
  env.settle();

  const auto snap = b.client->meter().snap();
  b.fs.create("f", data, env.clock().now());
  env.settle();
  EXPECT_LT(experiment_env::traffic_since(b, snap), 50 * KiB);
}

TEST(SyncEngine, NoCrossUserDedupOnDropbox) {
  experiment_env env(cfg_for(dropbox()));
  station& a = env.primary();
  station& b = env.add_station(1);
  const byte_buffer data = make_compressed_file(env.random(), 512 * KiB);
  a.fs.create("f", data, env.clock().now());
  env.settle();

  const auto snap = b.client->meter().snap();
  b.fs.create("f", data, env.clock().now());
  env.settle();
  EXPECT_GT(experiment_env::traffic_since(b, snap), 512 * KiB);
}

TEST(SyncEngine, CompressionShrinksTextUpload) {
  experiment_env dropbox_env(cfg_for(dropbox()));
  experiment_env gdrive_env(cfg_for(google_drive()));
  const std::uint64_t x = 2 * MiB;

  station& db = dropbox_env.primary();
  db.fs.create("t.txt", make_text_file(dropbox_env.random(), x),
               dropbox_env.clock().now());
  dropbox_env.settle();

  station& gd = gdrive_env.primary();
  gd.fs.create("t.txt", make_text_file(gdrive_env.random(), x),
               gdrive_env.clock().now());
  gdrive_env.settle();

  EXPECT_LT(db.client->meter().total(), gd.client->meter().total() * 3 / 4);
}

TEST(SyncEngine, DownloadRestoresRemoteFile) {
  experiment_env env(cfg_for(google_drive()));
  station& st = env.primary();
  st.fs.create("f", to_buffer("remote data"), env.clock().now());
  env.settle();

  const auto snap = st.client->meter().snap();
  st.client->download("f");
  env.settle();
  EXPECT_GT(experiment_env::traffic_since(st, snap), 0u);
}

TEST(SyncEngine, MultiDeviceNotificationFlow) {
  experiment_env env(cfg_for(box()));
  station& laptop = env.primary();
  station& desktop = env.add_station(0);  // same user, second device

  laptop.fs.create("shared.doc", to_buffer("v1 content"), env.clock().now());
  env.settle();

  EXPECT_EQ(env.the_cloud().metadata().pending_notifications(
                0, desktop.client->device()),
            1u);
  const std::size_t applied = desktop.client->poll_remote_changes();
  env.settle();
  EXPECT_EQ(applied, 1u);
  EXPECT_GT(desktop.client->meter().total(direction::down), 0u);
}

TEST(SyncEngine, FixedDeferBatchesRapidUpdates) {
  // Google Drive defers 4.2 s: five appends 1 s apart → one commit.
  experiment_env env(cfg_for(google_drive()));
  station& st = env.primary();
  st.fs.create("doc", byte_buffer{}, env.clock().now());
  env.settle();
  const std::uint64_t commits_before = st.client->counters().commits;

  for (int i = 1; i <= 5; ++i) {
    env.clock().schedule_at(sim_time::from_sec(10 + i), [&] {
      append_random(st.fs, "doc", env.random(), 1024, env.clock().now());
    });
  }
  env.settle();
  EXPECT_EQ(st.client->counters().commits - commits_before, 1u);
  EXPECT_EQ(env.the_cloud().file_content(0, "doc")->size(), 5 * 1024u);
}

TEST(SyncEngine, NoDeferSyncsEachUpdate) {
  // Box (no defer): five appends spaced beyond its ~6 s commit-processing
  // time → five separate commits.
  experiment_env env(cfg_for(box()));
  station& st = env.primary();
  st.fs.create("doc", byte_buffer{}, env.clock().now());
  env.settle();
  const std::uint64_t commits_before = st.client->counters().commits;

  for (int i = 1; i <= 5; ++i) {
    env.clock().schedule_at(sim_time::from_sec(10 + 10 * i), [&] {
      append_random(st.fs, "doc", env.random(), 1024, env.clock().now());
    });
  }
  env.settle();
  EXPECT_EQ(st.client->counters().commits - commits_before, 5u);
}

TEST(SyncEngine, SlowCommitEngineBatchesFastStreams) {
  // Box's ~6 s commit processing coalesces a 1-per-second stream.
  experiment_env env(cfg_for(box()));
  station& st = env.primary();
  st.fs.create("doc", byte_buffer{}, env.clock().now());
  env.settle();
  const std::uint64_t commits_before = st.client->counters().commits;
  for (int i = 1; i <= 12; ++i) {
    env.clock().schedule_at(sim_time::from_sec(30 + i), [&] {
      append_random(st.fs, "doc", env.random(), 1024, env.clock().now());
    });
  }
  env.settle();
  const std::uint64_t commits =
      st.client->counters().commits - commits_before;
  EXPECT_LT(commits, 6u);
  EXPECT_GE(commits, 2u);
  EXPECT_EQ(env.the_cloud().file_content(0, "doc")->size(), 12 * 1024u);
}

TEST(SyncEngine, SlowNetworkBatchesNaturally) {
  // §6.2 Condition 1: on a slow link, a large transfer in flight forces the
  // following updates to coalesce.
  experiment_config cfg = cfg_for(box());
  cfg.link = link_config::beijing();
  experiment_env env(cfg);
  station& st = env.primary();
  st.fs.create("doc", byte_buffer{}, env.clock().now());
  env.settle();
  const std::uint64_t commits_before = st.client->counters().commits;

  // 500 KB first append takes ~2.5 s at 1.6 Mbps; the next appends (1 s
  // apart) land while it is in flight.
  env.clock().schedule_at(sim_time::from_sec(10), [&] {
    append_random(st.fs, "doc", env.random(), 500 * KiB, env.clock().now());
  });
  for (int i = 1; i <= 3; ++i) {
    env.clock().schedule_at(sim_time::from_sec(10 + i), [&] {
      append_random(st.fs, "doc", env.random(), 1024, env.clock().now());
    });
  }
  env.settle();
  EXPECT_LT(st.client->counters().commits - commits_before, 4u);
  EXPECT_EQ(env.the_cloud().file_content(0, "doc")->size(),
            500 * KiB + 3 * 1024);
}

TEST(SyncEngine, ShadowTracksRenamedFiles) {
  experiment_env env(cfg_for(dropbox()));
  station& st = env.primary();
  const byte_buffer data = make_compressed_file(env.random(), 200 * KiB);
  st.fs.create("a", data, env.clock().now());
  env.settle();
  st.fs.rename("a", "b", env.clock().now());
  env.settle();
  // After the rename, a modification to "b" must still be delta-synced
  // against its shadow.
  const auto snap = st.client->meter().snap();
  modify_random_byte(st.fs, "b", env.random(), env.clock().now());
  env.settle();
  EXPECT_LT(experiment_env::traffic_since(st, snap), 120 * KiB);
}

TEST(SyncEngine, UdsByteCounterBatchesUntilThreshold) {
  // UDS-style deferment: 1 KB appends every second, 16 KB threshold →
  // commits every ~16 appends, TUE near 1 (paper §6.1 Case 1).
  byte_counter_defer::params uds;
  uds.threshold_bytes = 16 * KiB;
  uds.max_wait = sim_time::from_sec(120);
  service_profile profile = with_defer(box(), defer_config::uds(uds));
  profile.commit_processing = sim_time{};

  experiment_config cfg = cfg_for(profile);
  const auto res = run_append_experiment(cfg, 1.0, 1.0, 64 * KiB);
  EXPECT_LE(res.counters.commits, 6u);
  EXPECT_LT(res.tue(), 8.0);
}

TEST(SyncEngine, UdsMaxWaitBoundsLatency) {
  // A single small update must not wait forever: the max_wait deadline
  // commits it.
  byte_counter_defer::params uds;
  uds.threshold_bytes = 1 * MiB;
  uds.max_wait = sim_time::from_sec(10);
  const service_profile profile = with_defer(box(), defer_config::uds(uds));

  experiment_env env(cfg_for(profile));
  station& st = env.primary();
  env.clock().schedule_at(sim_time::from_sec(1), [&] {
    st.fs.create("note.txt", to_buffer("tiny"), env.clock().now());
  });
  env.settle();
  EXPECT_TRUE(env.the_cloud().file_content(0, "note.txt").has_value());
  // Committed at the deadline (~11 s), not at the byte threshold (never).
  EXPECT_GE(env.clock().now(), sim_time::from_sec(11));
}

TEST(SyncEngine, ChunkStoreSubstrateConvergesWithIds) {
  experiment_config cfg = cfg_for(dropbox());
  cfg.use_chunk_store = true;
  experiment_env env(cfg);
  station& st = env.primary();
  const byte_buffer original = make_compressed_file(env.random(), 1 * MiB);
  st.fs.create("big", original, env.clock().now());
  env.settle();

  modify_random_byte(st.fs, "big", env.random(), env.clock().now());
  env.settle();
  EXPECT_EQ(to_string(*env.the_cloud().file_content(0, "big")),
            to_string(st.fs.read("big")));
  EXPECT_TRUE(env.the_cloud().uses_chunk_store());
}

TEST(SyncEngine, DownloadMaterialisesLocally) {
  experiment_env env(cfg_for(box()));
  station& laptop = env.primary();
  station& desktop = env.add_station(0);
  laptop.fs.create("doc.txt", to_buffer("from laptop"), env.clock().now());
  env.settle();

  EXPECT_FALSE(desktop.fs.exists("doc.txt"));
  desktop.client->poll_remote_changes();
  env.settle();
  ASSERT_TRUE(desktop.fs.exists("doc.txt"));
  EXPECT_EQ(to_string(desktop.fs.read("doc.txt")), "from laptop");
  // The materialised download must not bounce back as an upload.
  EXPECT_FALSE(desktop.client->has_pending());
}

TEST(SyncEngine, RemoteDeletionRemovesLocalCopy) {
  experiment_env env(cfg_for(box()));
  station& laptop = env.primary();
  station& desktop = env.add_station(0);
  laptop.fs.create("doc.txt", to_buffer("v1"), env.clock().now());
  env.settle();
  desktop.client->poll_remote_changes();
  env.settle();
  ASSERT_TRUE(desktop.fs.exists("doc.txt"));

  laptop.fs.remove("doc.txt", env.clock().now());
  env.settle();
  desktop.client->poll_remote_changes();
  env.settle();
  EXPECT_FALSE(desktop.fs.exists("doc.txt"));
}

TEST(SyncEngine, ConcurrentEditsMakeConflictedCopy) {
  // OneDrive's 10.5 s defer gives the desktop time to edit before its own
  // version uploads; the laptop's version lands in the cloud first.
  experiment_env env(cfg_for(onedrive()));
  station& laptop = env.primary();
  station& desktop = env.add_station(0);

  laptop.fs.create("notes.txt", to_buffer("base"), env.clock().now());
  env.settle();
  desktop.client->poll_remote_changes();
  env.settle();

  // Laptop edits and syncs.
  laptop.fs.write("notes.txt", to_buffer("laptop version"),
                  env.clock().now());
  env.settle();
  // Desktop edits locally (still pending)…
  desktop.fs.write("notes.txt", to_buffer("desktop version"),
                   env.clock().now());
  // …then learns about the remote change before its own commit fires.
  desktop.client->poll_remote_changes();
  env.settle();

  EXPECT_EQ(desktop.client->counters().conflicts, 1u);
  EXPECT_EQ(to_string(desktop.fs.read("notes.txt")), "laptop version");
  ASSERT_TRUE(desktop.fs.exists("notes.txt (conflicted copy)"));
  EXPECT_EQ(to_string(desktop.fs.read("notes.txt (conflicted copy)")),
            "desktop version");
  // The conflicted copy syncs to the cloud like any user file.
  EXPECT_TRUE(env.the_cloud()
                  .file_content(0, "notes.txt (conflicted copy)")
                  .has_value());
}

TEST(SyncEngine, StaleBaseUploadDivertsToConflictedCopy) {
  // Device B edits on top of v1 while device A has already pushed v2: B's
  // commit must not clobber v2 (parent-revision check) — B's content lands
  // as a conflicted copy instead.
  experiment_env env(cfg_for(box()));
  station& a = env.primary();
  station& b = env.add_station(0);

  a.fs.create("doc", to_buffer("v1"), env.clock().now());
  env.settle();
  b.client->poll_remote_changes();  // B adopts v1 as its base
  env.settle();

  a.fs.write("doc", to_buffer("v2 from A"), env.clock().now());
  env.settle();
  // B edits without polling first.
  b.fs.write("doc", to_buffer("B's stale edit"), env.clock().now());
  env.settle();

  EXPECT_EQ(to_string(*env.the_cloud().file_content(0, "doc")), "v2 from A");
  EXPECT_EQ(b.client->counters().conflicts, 1u);
  const auto conflict =
      env.the_cloud().file_content(0, "doc (conflicted copy)");
  ASSERT_TRUE(conflict.has_value());
  EXPECT_EQ(to_string(*conflict), "B's stale edit");
}

TEST(SyncEngine, FreshBaseUploadOverwritesNormally) {
  // The same flow with a poll in between must NOT conflict.
  experiment_env env(cfg_for(box()));
  station& a = env.primary();
  station& b = env.add_station(0);
  a.fs.create("doc", to_buffer("v1"), env.clock().now());
  env.settle();
  b.client->poll_remote_changes();
  env.settle();
  a.fs.write("doc", to_buffer("v2 from A"), env.clock().now());
  env.settle();
  b.client->poll_remote_changes();  // B refreshes its base to v2
  env.settle();
  b.fs.write("doc", to_buffer("v3 from B"), env.clock().now());
  env.settle();
  EXPECT_EQ(to_string(*env.the_cloud().file_content(0, "doc")), "v3 from B");
  EXPECT_EQ(b.client->counters().conflicts, 0u);
}

TEST(SyncEngine, PeriodicPollKeepsSecondDeviceInSync) {
  experiment_env env(cfg_for(box()));
  station& laptop = env.primary();
  station& desktop = env.add_station(0);
  desktop.client->enable_periodic_poll(sim_time::from_sec(30),
                                       sim_time::from_sec(600));

  env.clock().schedule_at(sim_time::from_sec(10), [&] {
    laptop.fs.create("a.txt", to_buffer("first"), env.clock().now());
  });
  env.clock().schedule_at(sim_time::from_sec(120), [&] {
    laptop.fs.write("a.txt", to_buffer("second version"), env.clock().now());
  });
  env.settle();

  // The desktop polled its way through both versions; its download traffic
  // covers both payloads plus the periodic poll exchanges.
  EXPECT_GT(desktop.client->meter().total(direction::down),
            std::string("first").size() + std::string("second version").size());
  EXPECT_GT(desktop.client->counters().exchanges, 10u);  // ~20 polls
  EXPECT_EQ(env.the_cloud().metadata().pending_notifications(
                0, desktop.client->device()),
            0u);
}

TEST(SyncEngine, PeriodicPollStopsAtHorizon) {
  experiment_env env(cfg_for(box()));
  station& st = env.primary();
  st.client->enable_periodic_poll(sim_time::from_sec(10),
                                  sim_time::from_sec(100));
  env.settle();
  EXPECT_LE(env.clock().now(), sim_time::from_sec(101));
  EXPECT_LE(st.client->counters().exchanges, 11u);
}

TEST(SyncEngine, WarmConnectionSkipsMeteringHandshake) {
  experiment_env env(cfg_for(google_drive()));
  EXPECT_EQ(env.primary().client->meter().total(), 0u);
  EXPECT_EQ(env.primary().client->handshake_count(), 1u);
}

}  // namespace
}  // namespace cloudsync
