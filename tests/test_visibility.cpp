#include "viewport/visibility.h"

#include <gtest/gtest.h>

#include "pointcloud/video_generator.h"

namespace volcast::view {
namespace {

using vv::CellGrid;
using vv::CellId;

/// A simple 4x4x4 grid over the unit-ish box with uniform occupancy.
struct Scene {
  CellGrid grid{geo::Aabb({-0.8, -0.8, 0.0}, {0.8, 0.8, 1.9}), 0.5};
  std::vector<std::uint32_t> occupancy;

  Scene() : occupancy(grid.cell_count(), 100) {}
};

geo::Pose viewer_at(const geo::Vec3& pos, const geo::Vec3& target) {
  return geo::Pose::look_at(pos, target);
}

TEST(VisibilityMap, SetAndQuery) {
  VisibilityMap map(8);
  EXPECT_EQ(map.cell_count(), 8u);
  EXPECT_EQ(map.visible_count(), 0u);
  map.set(3, 0.5);
  EXPECT_TRUE(map.visible(3));
  EXPECT_DOUBLE_EQ(map.lod(3), 0.5);
  EXPECT_FALSE(map.visible(2));
  map.set(3, 0.0);
  EXPECT_FALSE(map.visible(3));
}

TEST(VisibilityMap, VisibleCellsAscending) {
  VisibilityMap map(10);
  map.set(7);
  map.set(2);
  map.set(4);
  map.set(4, 0.5);  // re-setting a visible cell does not count it twice
  EXPECT_EQ(map.visible_count(), 3u);
  for (CellId c = 0; c < map.cell_count(); ++c) {
    const double want = c == 2 || c == 7 ? 1.0 : c == 4 ? 0.5 : 0.0;
    EXPECT_DOUBLE_EQ(map.lod(c), want) << "cell " << c;
  }
  map.set(7, 0.0);  // a zero density hides the cell
  map.set(2, 0.0);
  map.set(2, 0.0);  // hiding a hidden cell does not count it twice
  EXPECT_EQ(map.visible_count(), 1u);
  EXPECT_TRUE(map.visible(4));
}

TEST(VisibilityMap, OutOfRangeThrows) {
  VisibilityMap map(4);
  EXPECT_THROW(map.set(4), std::out_of_range);
  EXPECT_THROW((void)map.visible(99), std::out_of_range);
}

TEST(ComputeVisibility, ViewerFacingContentSeesCells) {
  Scene scene;
  const auto pose = viewer_at({3.0, 0.0, 1.2}, {0.0, 0.0, 1.0});
  const auto map =
      compute_visibility(scene.grid, scene.occupancy, pose, {});
  EXPECT_GT(map.visible_count(), 0u);
}

TEST(ComputeVisibility, ViewerFacingAwaySeesNothing) {
  Scene scene;
  const auto pose = viewer_at({3.0, 0.0, 1.2}, {10.0, 0.0, 1.2});
  const auto map =
      compute_visibility(scene.grid, scene.occupancy, pose, {});
  EXPECT_EQ(map.visible_count(), 0u);
}

TEST(ComputeVisibility, EmptyCellsNeverVisible) {
  Scene scene;
  scene.occupancy.assign(scene.grid.cell_count(), 0);
  scene.occupancy[5] = 50;
  const auto pose = viewer_at({3.0, 0.0, 1.0}, {0.0, 0.0, 1.0});
  const auto map =
      compute_visibility(scene.grid, scene.occupancy, pose, {});
  for (CellId c = 0; c < scene.grid.cell_count(); ++c) {
    if (c != 5) {
      EXPECT_FALSE(map.visible(c));
    }
  }
}

TEST(ComputeVisibility, MismatchedOccupancyReturnsEmpty) {
  Scene scene;
  std::vector<std::uint32_t> wrong(3, 1);
  const auto pose = viewer_at({3.0, 0.0, 1.2}, {0.0, 0.0, 1.0});
  EXPECT_EQ(compute_visibility(scene.grid, wrong, pose, {}).visible_count(),
            0u);
}

TEST(ComputeVisibility, OcclusionHidesBackCells) {
  Scene scene;
  const auto pose = viewer_at({3.0, 0.0, 1.2}, {0.0, 0.0, 1.2});
  VisibilityOptions with;
  VisibilityOptions without;
  without.occlusion_culling = false;
  const auto occluded =
      compute_visibility(scene.grid, scene.occupancy, pose, with);
  const auto all =
      compute_visibility(scene.grid, scene.occupancy, pose, without);
  EXPECT_LT(occluded.visible_count(), all.visible_count());
  // Occlusion culling only removes cells, never adds.
  for (CellId c = 0; c < scene.grid.cell_count(); ++c) {
    if (occluded.visible(c)) {
      EXPECT_TRUE(all.visible(c));
    }
  }
}

TEST(ComputeVisibility, DistanceLodReducesFarDensity) {
  Scene scene;
  VisibilityOptions opt;
  opt.occlusion_culling = false;  // isolate the distance term
  const auto near_map = compute_visibility(
      scene.grid, scene.occupancy,
      viewer_at({1.5, 0.0, 1.0}, {0.0, 0.0, 1.0}), opt);
  const auto far_map = compute_visibility(
      scene.grid, scene.occupancy,
      viewer_at({8.0, 0.0, 1.0}, {0.0, 0.0, 1.0}), opt);
  // Far cells get lower LoD than the same cells seen near.
  double near_sum = 0.0;
  double far_sum = 0.0;
  int shared = 0;
  for (CellId c = 0; c < scene.grid.cell_count(); ++c) {
    if (near_map.visible(c) && far_map.visible(c)) {
      near_sum += near_map.lod(c);
      far_sum += far_map.lod(c);
      ++shared;
    }
  }
  ASSERT_GT(shared, 0);
  EXPECT_LT(far_sum, near_sum);
}

TEST(ComputeVisibility, LodNeverBelowFloor) {
  Scene scene;
  VisibilityOptions opt;
  opt.lod_min = 0.25;
  opt.occlusion_culling = false;
  const auto map = compute_visibility(
      scene.grid, scene.occupancy,
      viewer_at({15.0, 0.0, 1.0}, {0.0, 0.0, 1.0}), opt);
  for (CellId c = 0; c < scene.grid.cell_count(); ++c) {
    if (map.visible(c)) {
      EXPECT_GE(map.lod(c), 0.25);
    }
  }
}

TEST(ComputeVisibility, BodyOcclusionHidesCellsBehindPerson) {
  Scene scene;
  const auto pose = viewer_at({3.0, 0.0, 1.2}, {0.0, 0.0, 1.2});
  const BodyObstacle blocker{{1.5, 0.0, 0.0}, 0.3, 1.8};
  const BodyObstacle bystander{{3.0, 3.0, 0.0}, 0.3, 1.8};
  const auto clear =
      compute_visibility(scene.grid, scene.occupancy, pose, {});
  const std::vector<BodyObstacle> blockers{blocker};
  const auto blocked = compute_visibility(scene.grid, scene.occupancy, pose,
                                          {}, blockers);
  const std::vector<BodyObstacle> bystanders{bystander};
  const auto unaffected = compute_visibility(scene.grid, scene.occupancy,
                                             pose, {}, bystanders);
  EXPECT_LT(blocked.visible_count(), clear.visible_count());
  EXPECT_EQ(unaffected.visible_count(), clear.visible_count());
}

TEST(ComputeVisibility, ViewportCullingOffSeesAllOccupied) {
  Scene scene;
  VisibilityOptions opt;
  opt.viewport_culling = false;
  opt.occlusion_culling = false;
  opt.distance_lod = false;
  const auto map = compute_visibility(
      scene.grid, scene.occupancy,
      viewer_at({3.0, 0.0, 1.2}, {10.0, 0.0, 1.2}), opt);
  EXPECT_EQ(map.visible_count(), scene.grid.cell_count());
}

TEST(DeviceIntrinsics, HeadsetNarrowerThanPhone) {
  const auto hm = device_intrinsics(trace::DeviceType::kHeadset);
  const auto ph = device_intrinsics(trace::DeviceType::kSmartphone);
  EXPECT_LT(hm.horizontal_fov_rad, ph.horizontal_fov_rad);
}

TEST(ComputeVisibility, RealContentVisibleFraction) {
  // ViVo's headline: visibility-aware fetching needs well under 100% of
  // cells. Check on real generated content.
  vv::VideoConfig vc;
  vc.points_per_frame = 30'000;
  vc.frame_count = 2;
  const vv::VideoGenerator gen(vc);
  const CellGrid grid(gen.content_bounds(), 0.25);
  const auto occupancy = grid.occupancy(gen.frame_soa(0));
  std::size_t occupied = 0;
  for (auto n : occupancy)
    if (n > 0) ++occupied;
  const auto pose = viewer_at({2.0, 0.0, 1.5}, {0.0, 0.0, 1.1});
  VisibilityOptions opt;
  opt.intrinsics = device_intrinsics(trace::DeviceType::kHeadset);
  const auto map = compute_visibility(grid, occupancy, pose, opt);
  EXPECT_GT(map.visible_count(), 0u);
  EXPECT_LT(map.visible_count(), occupied);
}

}  // namespace
}  // namespace volcast::view
