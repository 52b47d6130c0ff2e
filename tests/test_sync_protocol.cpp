// The pluggable protocol registry and the adaptive selector: registration
// order, the service-default ordering (the byte-identity anchor), forced-
// mode fallback, deterministic tiebreaks, and end-to-end selection through
// the experiment harness at different grid thread counts.
#include <gtest/gtest.h>

#include "core/experiment.hpp"
#include "core/parallel_runner.hpp"
#include "fs/file_ops.hpp"

namespace cloudsync {
namespace {

service_profile lab_profile() {
  service_profile s = dropbox();
  s.name = "lab";
  s.delta_chunk_size = 4 * KiB;
  s.dedup = {dedup_granularity::content_defined, 4 * MiB,
             /*cross_user=*/false, cdc_params{}};
  return s;
}

struct fixture {
  service_profile profile = lab_profile();
  cloud cl;
  planning_env env;
  std::string path = "f";

  fixture() : cl(cloud_config{lab_profile().dedup}) {
    env.profile = &profile;
    env.method = access_method::pc_client;
    env.cl = &cl;
  }

  protocol_update update_for(const content_ref& content,
                             shadow_entry* shadow) {
    protocol_update up;
    up.path = &path;
    up.content = &content;
    up.in_cloud = shadow != nullptr;
    up.shadow = shadow;
    return up;
  }
};

TEST(SyncProtocol, RegistryHoldsBuiltinsInIdOrder) {
  protocol_registry& reg = protocol_registry::instance();
  ASSERT_GE(reg.size(), 3u);
  const auto all = reg.all();
  EXPECT_EQ(all[0]->id(), protocol_id::full_file);
  EXPECT_EQ(all[1]->id(), protocol_id::rsync);
  EXPECT_EQ(all[2]->id(), protocol_id::cdc_dedup);
  for (const sync_protocol* p : all) {
    EXPECT_EQ(reg.find(p->id()), p);
    EXPECT_STRNE(p->name(), "");
  }
}

TEST(SyncProtocol, ServiceDefaultReproducesLegacyOrdering) {
  fixture fx;
  rng r(5);
  const byte_buffer data = make_text_file(r, 16 * KiB);
  const content_ref content = content_ref::from_buffer(byte_buffer(data));
  shadow_entry sh;
  sh.content = content;

  // Shadow present + incremental sync: rsync first.
  protocol_update with_shadow = fx.update_for(content, &sh);
  EXPECT_EQ(select_service_default(fx.env, with_shadow).id(),
            protocol_id::rsync);

  // No shadow: dedup participation comes next.
  protocol_update fresh = fx.update_for(content, nullptr);
  EXPECT_EQ(select_service_default(fx.env, fresh).id(),
            protocol_id::cdc_dedup);

  // force_full vetoes the delta path even with a shadow.
  protocol_update vetoed = fx.update_for(content, &sh);
  vetoed.force_full = true;
  EXPECT_EQ(select_service_default(fx.env, vetoed).id(),
            protocol_id::cdc_dedup);

  // Neither mechanism available: full_file is the floor.
  fx.profile.method(access_method::pc_client).incremental_sync = false;
  fx.profile.method(access_method::pc_client).dedup_enabled = false;
  EXPECT_EQ(select_service_default(fx.env, with_shadow).id(),
            protocol_id::full_file);
}

TEST(SyncProtocol, ForcedModeFallsBackWhenIneligible) {
  fixture fx;
  rng r(9);
  const byte_buffer data = make_text_file(r, 16 * KiB);
  const content_ref content = content_ref::from_buffer(byte_buffer(data));

  protocol_options opts;
  opts.mode = protocol_mode::forced;
  opts.forced = protocol_id::rsync;
  protocol_selector sel(opts, link_config::minnesota());

  // No shadow: rsync is ineligible, the service default (cdc here) ships.
  protocol_update fresh = fx.update_for(content, nullptr);
  selector_pick pick;
  EXPECT_EQ(sel.choose(fx.env, fresh, &pick).id(), protocol_id::cdc_dedup);
  EXPECT_FALSE(pick.predicted);

  // With a shadow the forced protocol applies.
  shadow_entry sh;
  sh.content = content;
  protocol_update with_shadow = fx.update_for(content, &sh);
  EXPECT_EQ(sel.choose(fx.env, with_shadow, &pick).id(), protocol_id::rsync);

  const auto& picks = sel.stats().picks;
  EXPECT_EQ(picks[static_cast<std::size_t>(protocol_id::cdc_dedup)], 1u);
  EXPECT_EQ(picks[static_cast<std::size_t>(protocol_id::rsync)], 1u);
}

TEST(SyncProtocol, AdaptiveTieBreaksToLowestId) {
  // An empty file predicts zero app bytes for both full_file and cdc_dedup
  // (no fingerprints, no payload) — a perfect tie. Strict-less-than keeps
  // the first protocol in registration order: full_file, deterministically.
  fixture fx;
  const content_ref empty;
  protocol_options opts;
  opts.mode = protocol_mode::adaptive;
  protocol_selector sel(opts, link_config::minnesota());

  protocol_update up = fx.update_for(empty, nullptr);
  selector_pick pick;
  EXPECT_EQ(sel.choose(fx.env, up, &pick).id(), protocol_id::full_file);
  EXPECT_TRUE(pick.predicted);
  EXPECT_DOUBLE_EQ(pick.predicted_app_up, 0.0);
}

TEST(SyncProtocol, FullFilePlanMatchesEngineSizing) {
  fixture fx;
  rng r(21);
  const byte_buffer data = make_text_file(r, 16 * KiB);
  const content_ref content = content_ref::from_buffer(byte_buffer(data));
  protocol_update up = fx.update_for(content, nullptr);

  const sync_protocol* full =
      protocol_registry::instance().find(protocol_id::full_file);
  ASSERT_NE(full, nullptr);
  ASSERT_TRUE(full->eligible(fx.env, up));
  const upload_plan plan = full->plan(fx.env, up);
  EXPECT_EQ(plan.act, upload_action::full);
  EXPECT_EQ(plan.protocol, protocol_id::full_file);
  const int level = fx.env.mp().upload_compression_level;
  EXPECT_EQ(plan.payload_up, shipped_content_size(fx.env, content, level));
  EXPECT_TRUE(plan.dedup_commit);  // lab cloud runs a dedup index
  EXPECT_LT(plan.predicted_app_up, 0.0);  // no prediction outside adaptive
}

TEST(SyncProtocol, RsyncPlanCarriesBlueprint) {
  fixture fx;
  rng r(25);
  const byte_buffer old_data = make_text_file(r, 16 * KiB);
  byte_buffer new_data = old_data;
  new_data[100] ^= 0x5a;
  const content_ref content =
      content_ref::from_buffer(byte_buffer(new_data));
  shadow_entry sh;
  sh.content = content_ref::from_buffer(byte_buffer(old_data));
  protocol_update up = fx.update_for(content, &sh);

  const sync_protocol* rsync =
      protocol_registry::instance().find(protocol_id::rsync);
  ASSERT_NE(rsync, nullptr);
  ASSERT_TRUE(rsync->eligible(fx.env, up));
  const upload_plan plan = rsync->plan(fx.env, up);
  EXPECT_EQ(plan.act, upload_action::delta);
  EXPECT_EQ(plan.protocol, protocol_id::rsync);
  ASSERT_NE(plan.blueprint, nullptr);
  EXPECT_EQ(plan.payload_up,
            shipped_delta_size(fx.env, *plan.blueprint,
                               fx.env.mp().upload_compression_level));
  // A one-byte edit deltas to a fraction of the file.
  EXPECT_LT(plan.payload_up, new_data.size() / 2);
}

TEST(SyncProtocol, AdaptiveExperimentCalibratesAndCommits) {
  experiment_config cfg{lab_profile()};
  cfg.method = access_method::pc_client;
  cfg.protocol.mode = protocol_mode::adaptive;
  const experiment_result r = run_protocol_experiment(
      cfg, protocol_workload::duplicate_copy, 3, 32 * KiB);

  EXPECT_GT(r.counters.commits, 0u);
  EXPECT_GT(r.total_traffic(), 0u);
  const protocol_selector_stats& s = r.selector;
  EXPECT_GT(s.observations, 0u);
  EXPECT_LT(s.median_abs_rel_error(), 0.5);
  std::uint64_t picks = 0;
  for (const std::uint64_t p : s.picks) picks += p;
  EXPECT_EQ(picks, s.observations);
  for (std::size_t p = 0; p < protocol_registry::instance().size(); ++p) {
    EXPECT_GE(s.correction[p], 0.1);
    EXPECT_LE(s.correction[p], 10.0);
  }
  // The duplicate copies must ride the dedup index, not re-upload.
  EXPECT_GT(s.picks[static_cast<std::size_t>(protocol_id::cdc_dedup)], 0u);
}

TEST(SyncProtocol, SelectionDeterministicAcrossGridThreads) {
  // The same adaptive cell evaluated on a 1-thread and a 4-thread grid must
  // meter identical bytes per (direction, category) and make identical
  // picks — selection state is per-client, never cross-run.
  const auto run_cell = [](protocol_workload wl) {
    experiment_config cfg{lab_profile()};
    cfg.method = access_method::pc_client;
    cfg.protocol.mode = protocol_mode::adaptive;
    return run_protocol_experiment(cfg, wl, 3, 32 * KiB);
  };
  const protocol_workload cells[] = {
      protocol_workload::small_edits, protocol_workload::fresh_rewrites,
      protocol_workload::duplicate_copy, protocol_workload::small_edits};

  std::vector<experiment_result> serial(std::size(cells));
  parallel_runner one(1);
  one.run_indexed(std::size(cells),
                  [&](std::size_t i) { serial[i] = run_cell(cells[i]); });
  std::vector<experiment_result> parallel(std::size(cells));
  parallel_runner four(4);
  four.run_indexed(std::size(cells),
                   [&](std::size_t i) { parallel[i] = run_cell(cells[i]); });

  for (std::size_t i = 0; i < std::size(cells); ++i) {
    EXPECT_TRUE(serial[i] == parallel[i]) << "cell " << i;
  }
}

TEST(SyncProtocol, ForcedExperimentShipsEveryProtocol) {
  // Forcing each protocol on the same workload must converge (same commits)
  // while shifting traffic between payload and metadata as the protocol
  // dictates: full-file ships the most payload, cdc the most metadata.
  const auto run_forced = [](protocol_id id) {
    experiment_config cfg{lab_profile()};
    cfg.method = access_method::pc_client;
    cfg.protocol.mode = protocol_mode::forced;
    cfg.protocol.forced = id;
    return run_protocol_experiment(cfg, protocol_workload::small_edits, 3,
                                   32 * KiB);
  };
  const experiment_result full = run_forced(protocol_id::full_file);
  const experiment_result rsync = run_forced(protocol_id::rsync);
  const experiment_result cdc = run_forced(protocol_id::cdc_dedup);

  EXPECT_EQ(full.counters.commits, rsync.counters.commits);
  EXPECT_EQ(full.counters.commits, cdc.counters.commits);
  EXPECT_GT(full.meter.get(direction::up, traffic_category::payload),
            rsync.meter.get(direction::up, traffic_category::payload));
  EXPECT_GT(cdc.meter.get(direction::down, traffic_category::metadata),
            full.meter.get(direction::down, traffic_category::metadata));
  EXPECT_LT(rsync.total_traffic(), full.total_traffic());
}

}  // namespace
}  // namespace cloudsync
