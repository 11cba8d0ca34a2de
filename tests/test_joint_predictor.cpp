#include "viewport/joint_predictor.h"

#include <gtest/gtest.h>

#include "pointcloud/video_generator.h"

namespace volcast::view {
namespace {

JointPredictorConfig test_config() {
  JointPredictorConfig c;
  c.ap_position = {0.0, -3.0, 2.6};
  return c;
}

std::vector<geo::Pose> poses_line(double separation) {
  // Two users on the AP->content axis: the nearer one blocks the farther.
  std::vector<geo::Pose> poses;
  poses.push_back(geo::Pose::look_at({0.0, -1.0, 1.5}, {0, 0, 1.1}));
  poses.push_back(
      geo::Pose::look_at({separation, -1.3, 1.5}, {0, 0, 1.1}));
  return poses;
}

TEST(JointPredictor, ObserveRejectsWrongCount) {
  JointViewportPredictor jp(3, test_config());
  std::vector<geo::Pose> two(2);
  EXPECT_THROW(jp.observe(0.0, two), std::invalid_argument);
}

TEST(JointPredictor, PredictPosesTracksUsers) {
  JointViewportPredictor jp(2, test_config());
  for (int i = 0; i < 10; ++i) {
    std::vector<geo::Pose> poses = poses_line(0.0);
    poses[0].position.x += i * 0.01;
    jp.observe(i / 30.0, poses);
  }
  const auto predicted = jp.predict_poses(0.1);
  ASSERT_EQ(predicted.size(), 2u);
  EXPECT_GT(predicted[0].position.x, 0.05);  // extrapolated forward
}

TEST(JointPredictor, ForecastsBlockageWhenUserCrossesLos) {
  JointViewportPredictor jp(2, test_config());
  // User 1 at (0,-2): directly between AP (0,-3) and user 0 (0,-1).
  const auto poses = poses_line(0.0);
  const auto forecasts = jp.forecast_blockages(poses);
  bool found = false;
  for (const auto& f : forecasts) {
    if (f.user == 0 && f.blocker == 1) found = true;
  }
  EXPECT_TRUE(found);
}

TEST(JointPredictor, NoForecastWhenUsersSeparated) {
  JointViewportPredictor jp(2, test_config());
  const auto poses = poses_line(3.0);  // blocker 3 m off-axis
  EXPECT_TRUE(jp.forecast_blockages(poses).empty());
}

TEST(JointPredictor, ClearanceIsSmallForDeadCenterBlocker) {
  JointViewportPredictor jp(2, test_config());
  const auto forecasts = jp.forecast_blockages(poses_line(0.0));
  ASSERT_FALSE(forecasts.empty());
  EXPECT_LT(forecasts.front().clearance_m, 0.1);
}

TEST(JointPredictor, ClearanceGrowsWithOffset) {
  JointViewportPredictor jp(2, test_config());
  const auto close = jp.forecast_blockages(poses_line(0.05));
  const auto wider = jp.forecast_blockages(poses_line(0.25));
  ASSERT_FALSE(close.empty());
  ASSERT_FALSE(wider.empty());
  EXPECT_LT(close.front().clearance_m, wider.front().clearance_m);
}

TEST(JointPredictor, PredictProducesOcclusionAwareVisibility) {
  vv::VideoConfig vc;
  vc.points_per_frame = 20'000;
  vc.frame_count = 2;
  const vv::VideoGenerator gen(vc);
  const vv::CellGrid grid(gen.content_bounds(), 0.5);
  const auto occupancy = grid.occupancy(gen.frame_soa(0));

  JointPredictorConfig with = test_config();
  JointPredictorConfig without = test_config();
  without.user_occlusion = false;

  // User 1 stands right in front of user 0's view of the content.
  std::vector<geo::Pose> poses;
  poses.push_back(geo::Pose::look_at({2.4, 0.0, 1.5}, {0, 0, 1.1}));
  poses.push_back(geo::Pose::look_at({1.2, 0.0, 1.5}, {0, 0, 1.1}));

  JointViewportPredictor jp_with(2, with);
  JointViewportPredictor jp_without(2, without);
  jp_with.observe(0.0, poses);
  jp_without.observe(0.0, poses);

  const auto pred_with = jp_with.predict(0.0, grid, occupancy);
  const auto pred_without = jp_without.predict(0.0, grid, occupancy);
  ASSERT_EQ(pred_with.visibility.size(), 2u);
  EXPECT_LT(pred_with.visibility[0].visible_count(),
            pred_without.visibility[0].visible_count());
}

TEST(JointPredictor, BlockagesIncludedInPredict) {
  vv::VideoConfig vc;
  vc.points_per_frame = 5'000;
  vc.frame_count = 2;
  const vv::VideoGenerator gen(vc);
  const vv::CellGrid grid(gen.content_bounds(), 0.5);
  const auto occupancy = grid.occupancy(gen.frame_soa(0));

  JointViewportPredictor jp(2, test_config());
  jp.observe(0.0, poses_line(0.0));
  const auto prediction = jp.predict(0.0, grid, occupancy);
  EXPECT_FALSE(prediction.blockages.empty());
}

TEST(JointPredictor, UserCountAccessor) {
  JointViewportPredictor jp(5, test_config());
  EXPECT_EQ(jp.user_count(), 5u);
}

}  // namespace
}  // namespace volcast::view
