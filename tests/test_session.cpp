// Integration tests: the full cross-layer streaming session.
#include "core/session.h"

#include <gtest/gtest.h>

#include <stdexcept>

#include "trace/user_study.h"

namespace volcast::core {
namespace {

SessionConfig fast_config() {
  SessionConfig c;
  c.user_count = 3;
  c.duration_s = 3.0;
  c.master_points = 40'000;
  c.video_frames = 30;
  return c;
}

TEST(Session, RunsAndDeliversFrames) {
  Session session(fast_config());
  const auto result = session.run();
  ASSERT_EQ(result.qoe.users.size(), 3u);
  EXPECT_GT(result.qoe.mean_fps(), 20.0);
  EXPECT_GT(result.qoe.aggregate_goodput_mbps(), 1.0);
  EXPECT_GT(result.mean_airtime_utilization, 0.0);
  EXPECT_LT(result.mean_airtime_utilization, 1.0);
  for (const auto& u : result.qoe.users) {
    EXPECT_GE(u.viewport_miss_ratio, 0.0);
    EXPECT_LT(u.viewport_miss_ratio, 0.5)
        << "prediction-driven fetch missing too much of the viewport";
  }
}

TEST(Session, SecondRunThrows) {
  // Single-shot semantics: the tick queue and per-run state are consumed
  // by run(); a silent second run would return garbage, so it must throw.
  Session session(fast_config());
  (void)session.run();
  EXPECT_THROW((void)session.run(), std::logic_error);
  // The config stays readable after the run.
  EXPECT_EQ(session.config().user_count, 3u);
}

TEST(Session, DeterministicForSeed) {
  Session a(fast_config());
  Session b(fast_config());
  const auto ra = a.run();
  const auto rb = b.run();
  EXPECT_DOUBLE_EQ(ra.qoe.mean_fps(), rb.qoe.mean_fps());
  EXPECT_DOUBLE_EQ(ra.multicast_bit_share, rb.multicast_bit_share);
  EXPECT_EQ(ra.custom_beam_uses, rb.custom_beam_uses);
}

TEST(Session, SeedChangesOutcome) {
  SessionConfig c1 = fast_config();
  SessionConfig c2 = fast_config();
  c2.seed = 99;
  const auto r1 = Session(c1).run();
  const auto r2 = Session(c2).run();
  EXPECT_NE(r1.qoe.aggregate_goodput_mbps(), r2.qoe.aggregate_goodput_mbps());
}

TEST(Session, MulticastCarriesTraffic) {
  const auto result = Session(fast_config()).run();
  EXPECT_GT(result.multicast_bit_share, 0.05);
  EXPECT_GE(result.mean_group_size, 1.0);
}

TEST(Session, UnicastOnlyAblationUsesNoMulticast) {
  SessionConfig c = fast_config();
  c.enable_multicast = false;
  const auto result = Session(c).run();
  EXPECT_DOUBLE_EQ(result.multicast_bit_share, 0.0);
  EXPECT_DOUBLE_EQ(result.mean_group_size, 1.0);
  EXPECT_EQ(result.custom_beam_uses + result.stock_beam_uses, 0u);
}

TEST(Session, MulticastSavesAirtime) {
  SessionConfig with = fast_config();
  SessionConfig without = fast_config();
  without.enable_multicast = false;
  // Pin the tier so both runs move the same payload.
  with.adaptation = AdaptationPolicy::kNone;
  without.adaptation = AdaptationPolicy::kNone;
  const auto r_with = Session(with).run();
  const auto r_without = Session(without).run();
  EXPECT_LT(r_with.mean_airtime_utilization,
            r_without.mean_airtime_utilization * 1.02);
}

TEST(Session, BlockageForecastsHappen) {
  SessionConfig c = fast_config();
  c.user_count = 7;  // crowded arc: bodies regularly graze LoS paths
  c.duration_s = 5.0;
  const auto result = Session(c).run();
  EXPECT_GT(result.blockage_forecasts, 0u);
}

TEST(Session, MitigationCanBeDisabled) {
  SessionConfig c = fast_config();
  c.enable_blockage_mitigation = false;
  const auto result = Session(c).run();
  EXPECT_EQ(result.reflection_switches, 0u);
}

TEST(Session, SingleUserSession) {
  SessionConfig c = fast_config();
  c.user_count = 1;
  const auto result = Session(c).run();
  ASSERT_EQ(result.qoe.users.size(), 1u);
  EXPECT_GT(result.qoe.users[0].displayed_fps, 25.0);
  EXPECT_DOUBLE_EQ(result.multicast_bit_share, 0.0);
}

TEST(Session, SmartphoneDeviceWorks) {
  SessionConfig c = fast_config();
  c.device = trace::DeviceType::kSmartphone;
  const auto result = Session(c).run();
  EXPECT_GT(result.qoe.mean_fps(), 20.0);
}

TEST(Session, AdaptationNoneKeepsStartTier) {
  SessionConfig c = fast_config();
  c.adaptation = AdaptationPolicy::kNone;
  c.start_tier = 1;
  const auto result = Session(c).run();
  for (const auto& u : result.qoe.users)
    EXPECT_NEAR(u.mean_quality_tier, 1.0, 1e-9);
}

TEST(Session, CrossLayerRaisesQualityAboveFloor) {
  SessionConfig c = fast_config();
  c.start_tier = 0;
  const auto result = Session(c).run();
  double mean_tier = 0.0;
  for (const auto& u : result.qoe.users) mean_tier += u.mean_quality_tier;
  mean_tier /= static_cast<double>(result.qoe.users.size());
  EXPECT_GT(mean_tier, 0.2);  // climbed off the floor
}

TEST(Session, MultiApRunsAndServesUsers) {
  SessionConfig c = fast_config();
  c.ap_count = 2;
  c.user_count = 4;
  const auto result = Session(c).run();
  EXPECT_GT(result.qoe.mean_fps(), 15.0);
}

TEST(Session, TickObserverSeesEveryUserEveryTick) {
  SessionConfig c = fast_config();
  c.duration_s = 1.0;
  std::size_t calls = 0;
  double last_t = -1.0;
  c.tick_observer = [&](const TickSample& s) {
    ++calls;
    EXPECT_GE(s.t_s, last_t);
    last_t = std::max(last_t, s.t_s);
    EXPECT_LT(s.user, c.user_count);
    EXPECT_GE(s.buffer_s, 0.0);
    EXPECT_LE(s.tier, 2u);
    EXPECT_GE(s.rate_mbps, 0.0);
  };
  Session session(c);
  (void)session.run();
  EXPECT_EQ(calls, 30u * c.user_count);  // 1 s at 30 Hz x users
}

// validate(): every rule rejects with std::invalid_argument, up front,
// before any expensive construction happens.
TEST(SessionConfigValidate, AcceptsDefaultAndFastConfigs) {
  EXPECT_NO_THROW(SessionConfig{}.validate());
  EXPECT_NO_THROW(fast_config().validate());
}

TEST(SessionConfigValidate, RejectsNonPositiveFps) {
  SessionConfig c = fast_config();
  c.fps = 0.0;
  EXPECT_THROW(c.validate(), std::invalid_argument);
  c.fps = -30.0;
  EXPECT_THROW(c.validate(), std::invalid_argument);
}

TEST(SessionConfigValidate, RejectsNonPositiveDuration) {
  SessionConfig c = fast_config();
  c.duration_s = 0.0;
  EXPECT_THROW(c.validate(), std::invalid_argument);
}

TEST(SessionConfigValidate, RejectsZeroUsers) {
  SessionConfig c = fast_config();
  c.user_count = 0;
  EXPECT_THROW(c.validate(), std::invalid_argument);
}

TEST(SessionConfigValidate, RejectsZeroContent) {
  SessionConfig c = fast_config();
  c.master_points = 0;
  EXPECT_THROW(c.validate(), std::invalid_argument);
  c = fast_config();
  c.video_frames = 0;
  EXPECT_THROW(c.validate(), std::invalid_argument);
}

TEST(SessionConfigValidate, RejectsNonPositiveCellSize) {
  SessionConfig c = fast_config();
  c.cell_size_m = 0.0;
  EXPECT_THROW(c.validate(), std::invalid_argument);
}

TEST(SessionConfigValidate, RejectsApCountOutOfRange) {
  SessionConfig c = fast_config();
  c.ap_count = 0;
  EXPECT_THROW(c.validate(), std::invalid_argument);
  c.ap_count = 5;
  EXPECT_THROW(c.validate(), std::invalid_argument);
}

TEST(SessionConfigValidate, RejectsStartTierOutOfRange) {
  SessionConfig c = fast_config();
  c.start_tier = 3;
  EXPECT_THROW(c.validate(), std::invalid_argument);
}

TEST(SessionConfigValidate, RejectsNegativeRates) {
  SessionConfig c = fast_config();
  c.prediction_horizon_s = -0.1;
  EXPECT_THROW(c.validate(), std::invalid_argument);
  c = fast_config();
  c.decode_points_per_second = -1.0;
  EXPECT_THROW(c.validate(), std::invalid_argument);
}

TEST(SessionConfigValidate, RejectsEmptyReplayTrace) {
  SessionConfig c = fast_config();
  c.replay_traces.resize(c.user_count);  // present but empty poses
  EXPECT_THROW(c.validate(), std::invalid_argument);
}

TEST(SessionConfigValidate, SessionConstructorValidates) {
  SessionConfig c = fast_config();
  c.fps = -1.0;
  EXPECT_THROW(Session{c}, std::invalid_argument);
}

TEST(Session, ConfigAccessor) {
  SessionConfig c = fast_config();
  c.user_count = 2;
  Session session(c);
  EXPECT_EQ(session.config().user_count, 2u);
}

TEST(Session, MoveSemantics) {
  Session a(fast_config());
  Session b = std::move(a);
  const auto result = b.run();
  EXPECT_EQ(result.qoe.users.size(), 3u);
}


TEST(Session, DecodeCeilingThrottlesFps) {
  SessionConfig fast = fast_config();
  SessionConfig slow = fast_config();
  // A decoder that manages only ~0.3M points/s cannot sustain 30 FPS of
  // ~25K-visible-point frames.
  slow.decode_points_per_second = 0.3e6;
  const auto r_fast = Session(fast).run();
  const auto r_slow = Session(slow).run();
  EXPECT_LT(r_slow.qoe.mean_fps(), r_fast.qoe.mean_fps() - 5.0);
}

TEST(Session, ReplayTracesDriveUsers) {
  SessionConfig c = fast_config();
  trace::UserStudyConfig study_config;
  study_config.smartphone_users = 0;
  study_config.headset_users = 3;
  study_config.samples_per_user = 90;
  const trace::UserStudy study(study_config);
  c.replay_traces.assign(study.traces().begin(), study.traces().end());
  const auto replayed = Session(c).run();
  ASSERT_EQ(replayed.qoe.users.size(), 3u);
  EXPECT_GT(replayed.qoe.mean_fps(), 20.0);
  // Replay is deterministic too.
  Session again(c);
  EXPECT_DOUBLE_EQ(again.run().qoe.mean_fps(), replayed.qoe.mean_fps());
}

TEST(Session, ReplayRejectsTooFewTraces) {
  SessionConfig c = fast_config();
  trace::UserStudyConfig study_config;
  study_config.smartphone_users = 1;
  study_config.headset_users = 0;
  study_config.samples_per_user = 30;
  const trace::UserStudy study(study_config);
  c.replay_traces.assign(study.traces().begin(), study.traces().end());
  EXPECT_THROW(Session{c}, std::invalid_argument);
}

TEST(Session, ReactiveBeamsPaySlsCost) {
  SessionConfig c = fast_config();
  c.duration_s = 4.0;
  c.predictive_beam_tracking = false;
  const auto reactive = Session(c).run();
  EXPECT_GT(reactive.sls_sweeps, 0u);
  EXPECT_GT(reactive.sls_outage_ticks, 0u);

  c.predictive_beam_tracking = true;
  const auto predictive = Session(c).run();
  EXPECT_EQ(predictive.sls_sweeps, 0u);
  EXPECT_EQ(predictive.sls_outage_ticks, 0u);
  // The paper's claim: predicted-pose steering avoids search outage and
  // delivers at least as much video.
  EXPECT_GE(predictive.qoe.mean_fps(), reactive.qoe.mean_fps() - 0.5);
}

class SessionUserSweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(SessionUserSweep, MoreUsersNeverImproveWorstFps) {
  SessionConfig small = fast_config();
  small.duration_s = 2.0;
  small.user_count = 2;
  SessionConfig big = small;
  big.user_count = GetParam();
  const auto r_small = Session(small).run();
  const auto r_big = Session(big).run();
  // Airtime utilization grows with load.
  EXPECT_GE(r_big.mean_airtime_utilization,
            r_small.mean_airtime_utilization * 0.8);
}

INSTANTIATE_TEST_SUITE_P(Users, SessionUserSweep,
                         ::testing::Values(3u, 4u, 6u));

}  // namespace
}  // namespace volcast::core
