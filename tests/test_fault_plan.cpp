// Fault plan, injector and health machine: the chaos layer itself must be
// deterministic and strictly validated before it is allowed to disturb a
// session.
#include "fault/fault_plan.h"

#include <gtest/gtest.h>

#include <stdexcept>

#include "fault/health.h"
#include "fault/injector.h"

namespace volcast::fault {
namespace {

FaultEvent event(double t, FaultKind kind, std::size_t target,
                 double duration = 1.0) {
  FaultEvent e;
  e.t_s = t;
  e.kind = kind;
  e.target = target;
  e.duration_s = duration;
  return e;
}

TEST(FaultPlan, AddKeepsEventsSortedByOnset) {
  FaultPlan plan;
  plan.add(event(3.0, FaultKind::kUserLeave, 0));
  plan.add(event(1.0, FaultKind::kBeamProbeFail, 1));
  plan.add(event(2.0, FaultKind::kDecoderStall, 2));
  ASSERT_EQ(plan.size(), 3u);
  EXPECT_DOUBLE_EQ(plan.events()[0].t_s, 1.0);
  EXPECT_DOUBLE_EQ(plan.events()[1].t_s, 2.0);
  EXPECT_DOUBLE_EQ(plan.events()[2].t_s, 3.0);
}

TEST(FaultPlan, ValidateRejectsNegativeOnset) {
  FaultPlan plan;
  plan.add(event(-0.1, FaultKind::kUserLeave, 0));
  EXPECT_THROW(plan.validate(4, 1), std::invalid_argument);
}

TEST(FaultPlan, ValidateRejectsApIndexOutOfRange) {
  FaultPlan plan;
  plan.add(event(1.0, FaultKind::kApOutage, 2));
  EXPECT_THROW(plan.validate(4, 2), std::invalid_argument);
  plan = FaultPlan();
  plan.add(event(1.0, FaultKind::kApOutage, 1));
  EXPECT_NO_THROW(plan.validate(4, 2));
}

TEST(FaultPlan, ValidateRejectsUserIndexOutOfRange) {
  for (FaultKind kind : {FaultKind::kUserLeave, FaultKind::kBeamProbeFail,
                         FaultKind::kStuckSector, FaultKind::kDecoderStall}) {
    FaultPlan plan;
    plan.add(event(1.0, kind, 4));
    EXPECT_THROW(plan.validate(4, 1), std::invalid_argument)
        << to_string(kind);
  }
}

TEST(FaultPlan, ValidateRejectsBadLossProbability) {
  FaultPlan plan;
  FaultEvent e = event(1.0, FaultKind::kFrameLoss, 0);
  e.magnitude = 1.5;
  plan.add(e);
  EXPECT_THROW(plan.validate(4, 1), std::invalid_argument);
}

TEST(FaultPlan, ValidateAcceptsAllUsersFrameLoss) {
  FaultPlan plan;
  FaultEvent e = event(1.0, FaultKind::kFrameLoss, kAllUsers);
  e.magnitude = 0.5;
  plan.add(e);
  EXPECT_NO_THROW(plan.validate(4, 1));
}

TEST(FaultPlan, ValidateRejectsNegativeObstacleRadius) {
  FaultPlan plan;
  FaultEvent e = event(1.0, FaultKind::kObstacleSpawn, 0);
  e.magnitude = -0.2;
  plan.add(e);
  EXPECT_THROW(plan.validate(4, 1), std::invalid_argument);
}

TEST(FaultPlan, SummaryMentionsEveryEvent) {
  FaultPlan plan;
  plan.add(event(1.0, FaultKind::kApOutage, 0));
  plan.add(event(2.0, FaultKind::kStuckSector, 1, /*duration=*/0.0));
  const std::string text = plan.summary();
  EXPECT_NE(text.find("ap-outage"), std::string::npos);
  EXPECT_NE(text.find("stuck-sector"), std::string::npos);
  EXPECT_NE(text.find("permanent"), std::string::npos);
}

TEST(FaultPlan, RandomPlanIsDeterministicPerSeed) {
  ChaosConfig config;
  config.seed = 42;
  config.intensity = 1.0;
  const FaultPlan a = random_plan(config);
  const FaultPlan b = random_plan(config);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_DOUBLE_EQ(a.events()[i].t_s, b.events()[i].t_s);
    EXPECT_EQ(a.events()[i].kind, b.events()[i].kind);
    EXPECT_EQ(a.events()[i].target, b.events()[i].target);
    EXPECT_DOUBLE_EQ(a.events()[i].magnitude, b.events()[i].magnitude);
  }
  config.seed = 43;
  const FaultPlan c = random_plan(config);
  bool differs = c.size() != a.size();
  for (std::size_t i = 0; !differs && i < a.size(); ++i)
    differs = a.events()[i].t_s != c.events()[i].t_s ||
              a.events()[i].kind != c.events()[i].kind;
  EXPECT_TRUE(differs);
}

TEST(FaultPlan, RandomPlanIsNeverEmptyAndValidates) {
  ChaosConfig config;
  config.intensity = 1e-6;  // far below one expected event
  const FaultPlan plan = random_plan(config);
  EXPECT_GE(plan.size(), 1u);
  EXPECT_NO_THROW(plan.validate(config.user_count, config.ap_count));
}

TEST(FaultPlan, RandomPlanSkipsApOutagesWithSingleAp) {
  ChaosConfig config;
  config.intensity = 5.0;
  config.ap_count = 1;
  const FaultPlan plan = random_plan(config);
  for (const FaultEvent& e : plan.events())
    EXPECT_NE(e.kind, FaultKind::kApOutage);
}

TEST(FaultInjector, ActivationWindowRespectsOnsetAndDuration) {
  FaultPlan plan;
  plan.add(event(1.0, FaultKind::kBeamProbeFail, 0, /*duration=*/0.5));
  FaultInjector injector(plan, 2, 1, 1);
  injector.advance(0.0);
  EXPECT_FALSE(injector.probe_fail(0));
  EXPECT_FALSE(injector.any_active());
  injector.advance(1.0);
  EXPECT_TRUE(injector.probe_fail(0));
  EXPECT_FALSE(injector.probe_fail(1));
  EXPECT_TRUE(injector.any_active());
  EXPECT_EQ(injector.fired(), 1u);
  injector.advance(1.4);
  EXPECT_TRUE(injector.probe_fail(0));
  injector.advance(1.6);
  EXPECT_FALSE(injector.probe_fail(0));
  EXPECT_FALSE(injector.any_active());
}

TEST(FaultInjector, PermanentFaultNeverExpires) {
  FaultPlan plan;
  plan.add(event(1.0, FaultKind::kUserLeave, 1, /*duration=*/0.0));
  FaultInjector injector(plan, 2, 1, 1);
  injector.advance(2.0);
  EXPECT_TRUE(injector.user_absent(1));
  injector.advance(1e9);
  EXPECT_TRUE(injector.user_absent(1));
}

TEST(FaultInjector, ApOutageAndObstaclesReport) {
  FaultPlan plan;
  plan.add(event(0.5, FaultKind::kApOutage, 1, /*duration=*/1.0));
  FaultEvent ob = event(0.5, FaultKind::kObstacleSpawn, 0, /*duration=*/1.0);
  ob.position = {3.0, 2.0, 0.0};
  ob.magnitude = 0.5;
  plan.add(ob);
  FaultInjector injector(plan, 2, 2, 1);
  injector.advance(0.6);
  EXPECT_FALSE(injector.ap_down(0));
  EXPECT_TRUE(injector.ap_down(1));
  ASSERT_EQ(injector.obstacles().size(), 1u);
  EXPECT_DOUBLE_EQ(injector.obstacles()[0].radius_m, 0.5);
  injector.advance(2.0);
  EXPECT_FALSE(injector.ap_down(1));
  EXPECT_TRUE(injector.obstacles().empty());
}

TEST(FaultInjector, FrameLossDrawsAreDeterministicAndBounded) {
  FaultPlan plan;
  FaultEvent e = event(0.0, FaultKind::kFrameLoss, kAllUsers,
                       /*duration=*/0.0);
  e.magnitude = 0.4;
  plan.add(e);
  FaultInjector a(plan, 2, 1, 7);
  FaultInjector b(plan, 2, 1, 7);
  a.advance(0.1);
  b.advance(0.1);
  std::size_t losses = 0;
  for (std::size_t tick = 0; tick < 1000; ++tick) {
    ASSERT_EQ(a.frame_lost(0, tick), b.frame_lost(0, tick));
    if (a.frame_lost(0, tick)) ++losses;
  }
  // Empirical loss rate tracks the configured probability.
  EXPECT_GT(losses, 300u);
  EXPECT_LT(losses, 500u);

  // A different seed gives a different (but equally reproducible) pattern.
  FaultInjector c(plan, 2, 1, 8);
  c.advance(0.1);
  std::size_t differs = 0;
  for (std::size_t tick = 0; tick < 1000; ++tick)
    if (a.frame_lost(0, tick) != c.frame_lost(0, tick)) ++differs;
  EXPECT_GT(differs, 0u);
}

TEST(FaultInjector, NoLossDrawWithoutActiveFault) {
  FaultPlan plan;
  FaultEvent e = event(5.0, FaultKind::kFrameLoss, 0, /*duration=*/1.0);
  e.magnitude = 1.0;
  plan.add(e);
  FaultInjector injector(plan, 1, 1, 1);
  injector.advance(0.1);
  EXPECT_DOUBLE_EQ(injector.frame_loss_probability(0), 0.0);
  for (std::size_t tick = 0; tick < 100; ++tick)
    EXPECT_FALSE(injector.frame_lost(0, tick));
}

TEST(HealthMonitor, EpisodeMeasuresTimeToRecover) {
  static_assert(kRecoveryTicks == 3);
  HealthMonitor monitor;
  EXPECT_EQ(monitor.state(), HealthState::kHealthy);
  // t=0: outage opens an episode.
  EXPECT_EQ(monitor.observe(0.0, false, 0.0, false), HealthState::kOutage);
  EXPECT_EQ(monitor.observe(0.1, false, 0.0, false), HealthState::kOutage);
  // Good ticks: recovering, then healthy after 3 consecutive.
  EXPECT_EQ(monitor.observe(0.2, true, 100.0, false),
            HealthState::kRecovering);
  EXPECT_EQ(monitor.observe(0.3, true, 100.0, false),
            HealthState::kRecovering);
  EXPECT_EQ(monitor.observe(0.4, true, 100.0, false), HealthState::kHealthy);
  ASSERT_EQ(monitor.recovery_times().size(), 1u);
  EXPECT_NEAR(monitor.recovery_times()[0], 0.4, 1e-12);
  EXPECT_GT(monitor.transitions(), 0u);
}

TEST(HealthMonitor, LowRateOrImpairmentDegrades) {
  HealthMonitor monitor;
  EXPECT_EQ(monitor.observe(0.0, true, 10.0, false), HealthState::kDegraded);
  HealthMonitor other;
  EXPECT_EQ(other.observe(0.0, true, 100.0, true), HealthState::kDegraded);
}

TEST(HealthMonitor, RelapseDuringRecoveryKeepsEpisodeOpen) {
  HealthMonitor monitor;
  monitor.observe(0.0, false, 0.0, false);   // outage
  monitor.observe(0.1, true, 100.0, false);  // recovering
  monitor.observe(0.2, false, 0.0, false);   // relapse
  EXPECT_EQ(monitor.state(), HealthState::kOutage);
  EXPECT_TRUE(monitor.recovery_times().empty());
  monitor.observe(0.3, true, 100.0, false);
  monitor.observe(0.4, true, 100.0, false);
  monitor.observe(0.5, true, 100.0, false);
  EXPECT_EQ(monitor.state(), HealthState::kHealthy);
  ASSERT_EQ(monitor.recovery_times().size(), 1u);
  EXPECT_NEAR(monitor.recovery_times()[0], 0.5, 1e-12);
}

}  // namespace
}  // namespace volcast::fault
