// Cross-module integration tests: the full pipeline assembled by hand —
// content -> store -> traces -> visibility -> grouping -> beams ->
// schedule -> player — asserting the invariants that hold across module
// boundaries (the ones unit tests cannot see).
#include <gtest/gtest.h>

#include <vector>

#include "common/units.h"
#include "core/beam_designer.h"
#include "core/grouping.h"
#include "core/testbed.h"
#include "pointcloud/video_store.h"
#include "sim/player.h"
#include "trace/user_study.h"
#include "viewport/similarity.h"
#include "visibility_union.h"

namespace volcast {
namespace {

struct Pipeline {
  vv::VideoGenerator generator;
  vv::CellGrid grid;
  vv::VideoStore store;
  trace::UserStudy study;
  core::Testbed testbed;
  core::BeamDesigner designer{testbed};

  Pipeline()
      : generator([] {
          vv::VideoConfig vc;
          vc.points_per_frame = 30'000;
          vc.frame_count = 10;
          return vc;
        }()),
        grid(generator.content_bounds(), 0.5),
        store(generator, grid,
              [] {
                vv::VideoStoreConfig sc;
                sc.tiers = {{"low", 18'000}, {"high", 30'000}};
                sc.sample_frames = 1;
                return sc;
              }()),
        study([] {
          trace::UserStudyConfig uc;
          uc.smartphone_users = 0;
          uc.headset_users = 4;
          uc.samples_per_user = 60;
          return uc;
        }()) {}

  [[nodiscard]] std::vector<view::VisibilityMap> maps_at(
      std::size_t frame) const {
    std::vector<std::uint32_t> occupancy(grid.cell_count());
    for (vv::CellId c = 0; c < grid.cell_count(); ++c)
      occupancy[c] = store.cell_points(frame, 1, c);
    view::VisibilityOptions options;
    options.intrinsics =
        view::device_intrinsics(trace::DeviceType::kHeadset);
    std::vector<view::VisibilityMap> maps;
    for (std::size_t u = 0; u < study.user_count(); ++u)
      maps.push_back(view::compute_visibility(
          grid, occupancy, study.trace(u).poses[frame], options));
    return maps;
  }

  [[nodiscard]] double visible_bits(const view::VisibilityMap& map,
                                    std::size_t frame,
                                    std::size_t tier) const {
    double bits = 0.0;
    for (vv::CellId c = 0; c < grid.cell_count(); ++c)
      if (map.lod(c) > 0.0)
        bits +=
            byte_bits(static_cast<double>(store.cell_bytes(frame, tier, c))) *
            map.lod(c);
    return bits;
  }
};

TEST(Integration, VisibilityNeverExceedsFrameBytes) {
  Pipeline p;
  for (std::size_t f = 0; f < 10; f += 3) {
    const auto maps = p.maps_at(f);
    const double frame_bits =
        byte_bits(static_cast<double>(p.store.frame_bytes(f, 1)));
    for (const auto& map : maps) {
      const double bits = p.visible_bits(map, f, 1);
      EXPECT_GT(bits, 0.0);
      EXPECT_LE(bits, frame_bits + 1.0);
    }
  }
}

TEST(Integration, OverlapBitsBoundedByMemberDemands) {
  Pipeline p;
  const auto maps = p.maps_at(0);
  const view::VisibilityMap* pair[] = {&maps[0], &maps[1]};
  view::VisibilityMap inter;
  view::intersection(pair, inter);
  const double overlap = p.visible_bits(inter, 0, 1);
  // The multicast blob is never bigger than what the hungrier member
  // would fetch anyway at the shared LoD... the group-max LoD can exceed a
  // member's own LoD, so bound by the union instead.
  const view::VisibilityMap both[] = {maps[0], maps[1]};
  const double uni = p.visible_bits(view::union_of(both), 0, 1);
  EXPECT_LE(overlap, uni + 1.0);
  EXPECT_GE(overlap, 0.0);
}

TEST(Integration, GroupedScheduleBeatsUnicastAirtime) {
  Pipeline p;
  const auto maps = p.maps_at(0);

  // One link table toward every user, as a session tick prices them.
  std::vector<geo::Vec3> positions;
  for (std::size_t u = 0; u < maps.size(); ++u)
    positions.push_back(p.testbed.to_room(p.study.trace(u).poses[0].position));
  mmwave::LinkTable links = p.designer.link_table(positions, {});
  std::vector<core::UserState> users(maps.size());
  core::GroupBeam beam;
  for (std::size_t u = 0; u < maps.size(); ++u) {
    p.designer.design_unicast(links, u, {}, beam);
    users[u] = {u, &maps[u], p.visible_bits(maps[u], 0, 1),
                beam.multicast_rate_mbps};
  }

  auto group_rate = [&](std::span<const std::size_t> idx) {
    p.designer.design_multicast(links, idx, {}, {}, beam);
    return beam.multicast_rate_mbps;
  };
  auto overlap_bits = [&](std::span<const std::size_t> idx) {
    std::vector<const view::VisibilityMap*> group_maps;
    for (auto i : idx) group_maps.push_back(&maps[i]);
    view::VisibilityMap overlap;
    view::intersection(group_maps, overlap);
    return p.visible_bits(overlap, 0, 1);
  };

  core::GrouperConfig greedy;
  core::GrouperConfig unicast;
  unicast.policy = core::GroupingPolicy::kUnicastOnly;
  const auto grouped =
      core::form_groups(users, greedy, group_rate, overlap_bits);
  const auto baseline =
      core::form_groups(users, unicast, group_rate, overlap_bits);
  EXPECT_LE(grouped.schedule.airtime_s(),
            baseline.schedule.airtime_s() + 1e-9);
}

TEST(Integration, ScheduleFeedsPlayerAtThirtyFps) {
  Pipeline p;
  sim::Player player(30.0);
  double stall_after_start = 0.0;
  bool started = false;
  for (int tick = 0; tick < 60; ++tick) {
    const std::size_t frame = static_cast<std::size_t>(tick) % 10;
    const auto maps = p.maps_at(frame);
    const double bits = p.visible_bits(maps[0], frame, 1);
    player.deliver({frame, 1, bits});
    if (started) {
      const double before = player.stall_time_s();
      player.advance(1.0 / 30.0);
      stall_after_start += player.stall_time_s() - before;
    } else {
      player.advance(1.0 / 30.0);
      started = player.playing();
    }
  }
  EXPECT_DOUBLE_EQ(stall_after_start, 0.0);
  EXPECT_GT(player.played_frames(), 50.0);
}

TEST(Integration, BeamRatesSupportMeasuredDemands) {
  // End-to-end sanity: the demands the store/visibility produce are
  // deliverable within a frame interval at the rates the radio produces.
  Pipeline p;
  const auto maps = p.maps_at(0);
  std::vector<geo::Vec3> positions;
  for (std::size_t u = 0; u < maps.size(); ++u)
    positions.push_back(p.testbed.to_room(p.study.trace(u).poses[0].position));
  mmwave::LinkTable links = p.designer.link_table(positions, {});
  double total_airtime = 0.0;
  core::GroupBeam beam;
  for (std::size_t u = 0; u < maps.size(); ++u) {
    p.designer.design_unicast(links, u, {}, beam);
    ASSERT_GT(beam.multicast_rate_mbps, 0.0);
    total_airtime +=
        tx_time_s(p.visible_bits(maps[u], 0, 1), beam.multicast_rate_mbps);
  }
  EXPECT_LT(total_airtime, 1.0 / 30.0);
}

}  // namespace
}  // namespace volcast
