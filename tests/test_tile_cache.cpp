// Tiling stage (core/stages/tiling_stage.h): first-touch tile accounting.
// The load-bearing property is bit-identical SessionResult/FleetResult
// whether tiling is off or shared, at any worker_threads /
// parallel_sessions value; shared tiling must also cut encode bytes when
// viewports overlap, and fleets must aggregate their slots' tile reports.
#include "pointcloud/tile_report.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <string>

#include "core/checkpoint.h"
#include "core/fleet.h"
#include "core/session.h"
#include "session_compare.h"

namespace volcast {
namespace {

// --- tiling stage / session determinism ----------------------------------

core::SessionConfig fast_config() {
  core::SessionConfig config;
  config.user_count = 4;
  config.duration_s = 1.0;
  config.master_points = 30'000;
  config.video_frames = 20;
  config.worker_threads = 1;
  config.audience_spread_rad = 0.4;  // clustered viewports: heavy overlap
  return config;
}

core::SessionResult run_with_tiling(core::SessionConfig config,
                                    const std::string& policy) {
  config.policy_overrides["tiling"] = policy;
  core::Session session(std::move(config));
  return session.run();
}

/// Compares every field but the tile report, which legitimately differs
/// between tiling policies.
void expect_identical_but_tiles(const core::SessionResult& off,
                                core::SessionResult shared) {
  shared.tiles = off.tiles;
  core::expect_identical(off, shared);
}

TEST(TilingStage, SharedMatchesOffOnEverySimulationField) {
  // Tile assembly is a server-side accounting layer: switching it from
  // per-user encode to encode-once/serve-many must not move a single QoE
  // or link-layer bit.
  const core::SessionResult off = run_with_tiling(fast_config(), "off");
  const core::SessionResult shared = run_with_tiling(fast_config(), "shared");
  expect_identical_but_tiles(off, shared);

  // Same tiles assembled either way; shared turns repeats into stitches.
  EXPECT_EQ(off.tiles.requests, shared.tiles.requests);
  EXPECT_GT(off.tiles.requests, 0u);
  EXPECT_EQ(off.tiles.stitched_tiles, 0u);
  EXPECT_EQ(off.tiles.encoded_tiles, off.tiles.requests);
  EXPECT_GT(shared.tiles.stitched_tiles, 0u);
  EXPECT_EQ(shared.tiles.encoded_tiles + shared.tiles.stitched_tiles,
            shared.tiles.requests);
  EXPECT_LT(shared.tiles.encoded_bytes, off.tiles.encoded_bytes);
}

TEST(TilingStage, ReportIsIdenticalAtAnyWorkerThreadCount) {
  core::SessionConfig serial = fast_config();
  core::SessionConfig parallel = fast_config();
  parallel.worker_threads = 4;
  const core::SessionResult a = run_with_tiling(std::move(serial), "shared");
  const core::SessionResult b = run_with_tiling(std::move(parallel), "shared");
  core::expect_identical(a, b);
}

TEST(TilingStage, EightUsersTwoClustersEncodeAtLeastTwiceCheaper) {
  // The acceptance bar: 8 users whose viewports collapse into at most two
  // clusters must cut per-user encode cost >= 2x vs the per-user-encode
  // baseline. The arc is 1.5 rad: narrow enough that viewports overlap
  // heavily, wide enough that the users do not stand inside each other's
  // body-blockage shadow (packing 8 people into a 0.4 rad arc blacks out
  // the links entirely and nothing gets scheduled at all).
  core::SessionConfig config = fast_config();
  config.user_count = 8;
  config.audience_spread_rad = 1.5;
  const core::SessionResult off = run_with_tiling(config, "off");
  const core::SessionResult shared = run_with_tiling(config, "shared");
  expect_identical_but_tiles(off, shared);
  ASSERT_GT(off.tiles.encoded_bytes, 0u);
  EXPECT_GE(static_cast<double>(off.tiles.encoded_bytes),
            2.0 * static_cast<double>(shared.tiles.encoded_bytes));
}

// --- fleet tiling --------------------------------------------------------

core::FleetConfig fast_fleet(std::size_t sessions) {
  core::FleetConfig fc;
  fc.session = fast_config();
  fc.session.user_count = 2;
  fc.session.content_seed = 0x5eedc0de;
  fc.session.policy_overrides["tiling"] = "shared";
  fc.sessions = sessions;
  fc.parallel_sessions = 1;
  return fc;
}

TEST(FleetTileCache, SharedCacheIsIdenticalAtAnyParallelism) {
  core::FleetConfig serial = fast_fleet(8);
  core::FleetConfig parallel = fast_fleet(8);
  parallel.parallel_sessions = 8;
  core::expect_fleet_identical(core::run_fleet(serial),
                               core::run_fleet(parallel));
}

TEST(FleetTileCache, SlotsShareContentAndAggregateTiles) {
  const core::FleetResult fleet = core::run_fleet(fast_fleet(4));
  vv::TileReport sum;
  for (const core::SessionResult& s : fleet.sessions) {
    EXPECT_GT(s.tiles.stitched_tiles, 0u);
    sum.requests += s.tiles.requests;
    sum.encoded_tiles += s.tiles.encoded_tiles;
    sum.stitched_tiles += s.tiles.stitched_tiles;
    sum.encoded_bytes += s.tiles.encoded_bytes;
    sum.stitched_bytes += s.tiles.stitched_bytes;
  }
  EXPECT_EQ(fleet.tiles.requests, sum.requests);
  EXPECT_EQ(fleet.tiles.encoded_tiles, sum.encoded_tiles);
  EXPECT_EQ(fleet.tiles.stitched_tiles, sum.stitched_tiles);
  EXPECT_EQ(fleet.tiles.encoded_bytes, sum.encoded_bytes);
  EXPECT_EQ(fleet.tiles.stitched_bytes, sum.stitched_bytes);
}

TEST(FleetTileCache, KillAndResumeWithSharedCacheIsBitIdentical) {
  const std::string path =
      (std::filesystem::temp_directory_path() / "volcast_tile_ckpt.bin")
          .string();
  std::remove(path.c_str());

  core::FleetConfig killed = fast_fleet(6);
  killed.checkpoint_file = path;
  killed.kill_after_slots = 3;
  EXPECT_THROW((void)core::run_fleet(killed), core::FleetKilled);

  // The resumed run restores 3 slots verbatim and re-runs the rest, each
  // with fresh first-touch state — still bit-identical to an uninterrupted
  // run.
  core::FleetConfig resumed = fast_fleet(6);
  resumed.resume_file = path;
  const core::FleetResult a = core::run_fleet(resumed);
  const core::FleetResult b = core::run_fleet(fast_fleet(6));
  core::expect_fleet_identical(a, b);
  std::remove(path.c_str());
}

TEST(FleetTileCache, ContentSeedJoinsTheCheckpointFingerprint) {
  core::FleetConfig a = fast_fleet(2);
  core::FleetConfig b = fast_fleet(2);
  b.session.content_seed = a.session.content_seed + 1;
  EXPECT_NE(core::fleet_fingerprint(a), core::fleet_fingerprint(b));
}

}  // namespace
}  // namespace volcast
