// Configuration-matrix property sweep: the session must hold its core
// invariants under every combination of grouping policy, adaptation policy
// and bandwidth estimator — not just the defaults the other tests use.
#include <gtest/gtest.h>

#include <tuple>

#include "core/session.h"

namespace volcast::core {
namespace {

using MatrixParam =
    std::tuple<GroupingPolicy, AdaptationPolicy, BandwidthEstimator>;

class SessionMatrix : public ::testing::TestWithParam<MatrixParam> {};

SessionConfig matrix_config(const MatrixParam& param) {
  SessionConfig c;
  c.user_count = 3;
  c.duration_s = 2.0;
  c.master_points = 30'000;
  c.video_frames = 20;
  c.grouping = std::get<0>(param);
  c.adaptation = std::get<1>(param);
  c.estimator = std::get<2>(param);
  return c;
}

TEST_P(SessionMatrix, InvariantsHoldUnderEveryPolicyCombination) {
  const SessionConfig config = matrix_config(GetParam());
  Session session(config);
  const SessionResult r = session.run();

  // Delivery happened and stayed within physical bounds.
  ASSERT_EQ(r.qoe.users.size(), config.user_count);
  EXPECT_GT(r.qoe.mean_fps(), 10.0);
  EXPECT_LE(r.qoe.mean_fps(), 30.0 + 1e-9);
  EXPECT_GE(r.mean_airtime_utilization, 0.0);
  EXPECT_LT(r.mean_airtime_utilization, 1.5);

  // Shares and sizes are well-formed.
  EXPECT_GE(r.multicast_bit_share, 0.0);
  EXPECT_LE(r.multicast_bit_share, 1.0);
  if (config.grouping == GroupingPolicy::kUnicastOnly) {
    EXPECT_DOUBLE_EQ(r.multicast_bit_share, 0.0);
  }
  EXPECT_GE(r.mean_group_size, 1.0 - 1e-9);

  // Per-user QoE fields are sane.
  for (const auto& u : r.qoe.users) {
    EXPECT_GE(u.stall_time_s, 0.0);
    EXPECT_LE(u.stall_time_s, config.duration_s + 1e-9);
    EXPECT_GE(u.mean_quality_tier, 0.0);
    EXPECT_LE(u.mean_quality_tier, 2.0);
    EXPECT_GE(u.viewport_miss_ratio, 0.0);
    EXPECT_LE(u.viewport_miss_ratio, 1.0);
    EXPECT_GE(u.mean_m2p_latency_s, 0.0);
    EXPECT_LE(u.mean_m2p_latency_s, kMaxBacklogS + 0.1);
    EXPECT_LE(u.mean_m2p_latency_s, u.max_m2p_latency_s + 1e-12);
  }
  EXPECT_GT(r.qoe.fairness_index(), 0.3);
  EXPECT_LE(r.qoe.fairness_index(), 1.0 + 1e-12);

  // Determinism under the same configuration.
  Session again(config);
  const SessionResult r2 = again.run();
  EXPECT_DOUBLE_EQ(r2.qoe.mean_fps(), r.qoe.mean_fps());
  EXPECT_DOUBLE_EQ(r2.multicast_bit_share, r.multicast_bit_share);
}

INSTANTIATE_TEST_SUITE_P(
    Policies, SessionMatrix,
    ::testing::Combine(
        ::testing::Values(GroupingPolicy::kUnicastOnly,
                          GroupingPolicy::kGreedyIoU,
                          GroupingPolicy::kPairsOnly),
        ::testing::Values(AdaptationPolicy::kNone,
                          AdaptationPolicy::kBufferOnly,
                          AdaptationPolicy::kCrossLayer),
        ::testing::Values(BandwidthEstimator::kAppOnly,
                          BandwidthEstimator::kCrossLayer)),
    [](const ::testing::TestParamInfo<MatrixParam>& info) {
      std::string name = to_string(std::get<0>(info.param));
      name += "_";
      name += to_string(std::get<1>(info.param));
      name += "_";
      name += to_string(std::get<2>(info.param));
      for (char& c : name)
        if (c == '-') c = '_';
      return name;
    });

}  // namespace
}  // namespace volcast::core
