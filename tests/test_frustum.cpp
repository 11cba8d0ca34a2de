#include "geometry/frustum.h"

#include <gtest/gtest.h>

#include <cmath>

namespace volcast::geo {
namespace {

Pose camera_at_origin() {
  Pose p;  // identity: forward = +X, up = +Z
  return p;
}

TEST(Frustum, ContainsPointStraightAhead) {
  const Frustum f(camera_at_origin(), {});
  EXPECT_TRUE(f.contains({5, 0, 0}));
}

TEST(Frustum, RejectsBehind) {
  const Frustum f(camera_at_origin(), {});
  EXPECT_FALSE(f.contains({-1, 0, 0}));
}

TEST(Frustum, RejectsBeyondFar) {
  CameraIntrinsics intr;
  intr.far_m = 10.0;
  const Frustum f(camera_at_origin(), intr);
  EXPECT_TRUE(f.contains({9.9, 0, 0}));
  EXPECT_FALSE(f.contains({10.1, 0, 0}));
}

TEST(Frustum, RejectsBeforeNear) {
  CameraIntrinsics intr;
  intr.near_m = 1.0;
  const Frustum f(camera_at_origin(), intr);
  EXPECT_FALSE(f.contains({0.5, 0, 0}));
  EXPECT_TRUE(f.contains({1.5, 0, 0}));
}

TEST(Frustum, HorizontalFovBoundary) {
  CameraIntrinsics intr;
  intr.horizontal_fov_rad = 1.0471975511965976;  // 60 degrees total
  const Frustum f(camera_at_origin(), intr);
  // At x = 1, the half-angle of 30 degrees allows |y| < tan(30) = 0.577.
  EXPECT_TRUE(f.contains({1, 0.5, 0}));
  EXPECT_FALSE(f.contains({1, 0.7, 0}));
  EXPECT_TRUE(f.contains({1, -0.5, 0}));
  EXPECT_FALSE(f.contains({1, -0.7, 0}));
}

TEST(Frustum, VerticalFovBoundaryUsesAspect) {
  CameraIntrinsics intr;
  intr.horizontal_fov_rad = 1.0471975511965976;
  intr.aspect = 0.5;  // vertical half-tangent = 0.5 * tan(30)
  const Frustum f(camera_at_origin(), intr);
  const double limit = 0.5 * std::tan(0.5235987755982988);
  EXPECT_TRUE(f.contains({1, 0, limit * 0.9}));
  EXPECT_FALSE(f.contains({1, 0, limit * 1.1}));
}

TEST(Frustum, FollowsCameraPose) {
  // Camera at (0, 0, 5) looking along +Y.
  const Pose pose = Pose::look_at({0, 0, 5}, {0, 10, 5});
  const Frustum f(pose, {});
  EXPECT_TRUE(f.contains({0, 3, 5}));
  EXPECT_FALSE(f.contains({0, -3, 5}));
}

TEST(Frustum, IntersectsBoxAhead) {
  const Frustum f(camera_at_origin(), {});
  EXPECT_TRUE(f.intersects(Aabb({2, -0.5, -0.5}, {3, 0.5, 0.5})));
}

TEST(Frustum, RejectsBoxBehind) {
  const Frustum f(camera_at_origin(), {});
  EXPECT_FALSE(f.intersects(Aabb({-3, -0.5, -0.5}, {-2, 0.5, 0.5})));
}

TEST(Frustum, BoxStraddlingPlaneIntersects) {
  const Frustum f(camera_at_origin(), {});
  // Box partially inside the left FoV boundary.
  EXPECT_TRUE(f.intersects(Aabb({1, -5, -0.2}, {2, 0, 0.2})));
}

TEST(Frustum, NeverCullsBoxContainingVisiblePoint) {
  // Conservativeness property: any box containing a visible point must
  // intersect.
  CameraIntrinsics intr;
  const Frustum f(camera_at_origin(), intr);
  for (double x = 0.5; x < 15.0; x += 1.3) {
    for (double y = -2.0; y <= 2.0; y += 0.7) {
      const Vec3 p{x, y, 0.1};
      if (!f.contains(p)) continue;
      const Aabb box(p - Vec3{0.2, 0.2, 0.2}, p + Vec3{0.2, 0.2, 0.2});
      EXPECT_TRUE(f.intersects(box)) << "point " << p.x << "," << p.y;
    }
  }
}

TEST(Frustum, InvalidBoxNeverIntersects) {
  const Frustum f(camera_at_origin(), {});
  EXPECT_FALSE(f.intersects(Aabb{}));
}

class FrustumFovSweep : public ::testing::TestWithParam<double> {};

TEST_P(FrustumFovSweep, WiderFovSeesSupersetOfPoints) {
  const double fov = GetParam();
  CameraIntrinsics narrow;
  narrow.horizontal_fov_rad = fov;
  CameraIntrinsics wide;
  wide.horizontal_fov_rad = fov + 0.3;
  const Frustum fn(camera_at_origin(), narrow);
  const Frustum fw(camera_at_origin(), wide);
  for (double y = -3.0; y <= 3.0; y += 0.37) {
    const Vec3 p{2.0, y, 0.0};
    if (fn.contains(p)) {
      EXPECT_TRUE(fw.contains(p));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Fovs, FrustumFovSweep,
                         ::testing::Values(0.4, 0.7, 1.0, 1.4, 1.8, 2.2));

}  // namespace
}  // namespace volcast::geo
