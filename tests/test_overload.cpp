// Overload control: governor watermark/hysteresis behavior, admission
// planning, the brownout ladder's shed directives, determinism of shed
// accounting at any parallelism, and the overload-off equivalence
// guarantee.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <stdexcept>

#include "core/fleet.h"
#include "core/overload/admission.h"
#include "core/overload/governor.h"
#include "core/session.h"
#include "fault/fault_plan.h"
#include "session_compare.h"

namespace volcast::core {
namespace {

using overload::AdmissionConfig;
using overload::AdmissionDecision;
using overload::AdmissionOutcome;
using overload::BrownoutLevel;
using overload::LoadGovernor;
using overload::OverloadConfig;
using overload::ShedDirectives;
using overload::TickLoad;

// ------------------------------------------------------------- governor

TickLoad load_at(double utilization) {
  // encode ratio = encode_bytes / encode_budget drives the max: budgets
  // default to 4e6 bytes/tick, airtime and cache stay at zero.
  TickLoad load;
  load.encode_bytes = utilization * OverloadConfig{}.encode_budget_bytes;
  return load;
}

TEST(LoadGovernorTest, StaysGreenBelowTheYellowWatermark) {
  LoadGovernor governor{OverloadConfig{}};
  for (int i = 0; i < 50; ++i) governor.observe(load_at(0.5));
  EXPECT_EQ(governor.level(), BrownoutLevel::kGreen);
  EXPECT_EQ(governor.transitions(), 0u);
  EXPECT_FALSE(governor.directives(4).any());
}

TEST(LoadGovernorTest, EscalationIsImmediateAndCanJumpLevels) {
  LoadGovernor governor{OverloadConfig{}};
  governor.observe(load_at(2.0));  // straight past every watermark
  EXPECT_EQ(governor.level(), BrownoutLevel::kRed);
  EXPECT_EQ(governor.transitions(), 1u);
}

TEST(LoadGovernorTest, UtilizationIsTheMaxOverAllBudgets) {
  LoadGovernor governor{OverloadConfig{}};
  TickLoad load;
  load.encode_bytes = 0.0;
  load.airtime_s = 0.95;  // airtime ratio dominates
  load.tick_interval_s = 1.0;
  EXPECT_DOUBLE_EQ(governor.observe(load), 0.95);
  EXPECT_EQ(governor.level(), BrownoutLevel::kOrange);
}

TEST(LoadGovernorTest, CpuPressureInflatesTheLogicalCost) {
  LoadGovernor governor{OverloadConfig{}};
  TickLoad load = load_at(0.5);
  load.cpu_factor = 3.0;  // 0.5 * 3 = 1.5 >= red watermark
  governor.observe(load);
  EXPECT_EQ(governor.level(), BrownoutLevel::kRed);
}

TEST(LoadGovernorTest, MemPressureShrinksTheCacheBudget) {
  LoadGovernor governor{OverloadConfig{}};
  TickLoad load;
  load.cache_window_bytes = 0.5 * overload::kCacheBudgetBytes;
  load.mem_factor = 0.25;  // budget quarters: ratio becomes 2.0
  governor.observe(load);
  EXPECT_EQ(governor.level(), BrownoutLevel::kRed);
}

TEST(LoadGovernorTest, RecoveryIsHystereticOneLevelPerCalmStreak) {
  OverloadConfig config;
  config.recover_ticks = 3;
  LoadGovernor governor{config};
  governor.observe(load_at(2.0));
  ASSERT_EQ(governor.level(), BrownoutLevel::kRed);

  // A calm tick streak shorter than recover_ticks must not de-escalate,
  // and a loaded tick resets the streak.
  governor.observe(load_at(0.1));
  governor.observe(load_at(0.1));
  EXPECT_EQ(governor.level(), BrownoutLevel::kRed);
  governor.observe(load_at(2.0));
  governor.observe(load_at(0.1));
  governor.observe(load_at(0.1));
  EXPECT_EQ(governor.level(), BrownoutLevel::kRed);

  // Three consecutive calm ticks step down exactly one level.
  governor.observe(load_at(0.1));
  EXPECT_EQ(governor.level(), BrownoutLevel::kOrange);

  // And the ladder walks down one level per streak, never jumps.
  for (int i = 0; i < 3; ++i) governor.observe(load_at(0.1));
  EXPECT_EQ(governor.level(), BrownoutLevel::kYellow);
  for (int i = 0; i < 3; ++i) governor.observe(load_at(0.1));
  EXPECT_EQ(governor.level(), BrownoutLevel::kGreen);
}

TEST(LoadGovernorTest, ShedDirectivesFollowTheLadder) {
  LoadGovernor governor{OverloadConfig{}};

  governor.observe(load_at(0.75));  // yellow
  ASSERT_EQ(governor.level(), BrownoutLevel::kYellow);
  ShedDirectives yellow = governor.directives(4);
  EXPECT_EQ(yellow.far_user_count, 2u);  // ceil(0.5 * 4)
  EXPECT_EQ(yellow.far_tier_cap, overload::kFarTierCap);
  EXPECT_EQ(yellow.min_lod, 0.0);
  EXPECT_EQ(yellow.global_tier_cap, overload::kNoTierCap);

  governor.observe(load_at(0.95));  // orange
  ASSERT_EQ(governor.level(), BrownoutLevel::kOrange);
  ShedDirectives orange = governor.directives(4);
  EXPECT_GT(orange.min_lod, 0.0);
  EXPECT_GT(orange.defer_lod, 0.0);
  EXPECT_EQ(orange.global_tier_cap, overload::kNoTierCap);

  governor.observe(load_at(1.5));  // red
  ASSERT_EQ(governor.level(), BrownoutLevel::kRed);
  ShedDirectives red = governor.directives(4);
  EXPECT_EQ(red.global_tier_cap, overload::kRedTierCap);
  EXPECT_GT(red.min_lod, 0.0);
}

TEST(OverloadConfigValidate, RejectsNonsense) {
  auto expect_throws = [](auto mutate) {
    OverloadConfig config;
    config.enabled = true;
    mutate(config);
    EXPECT_THROW(config.validate(), std::invalid_argument);
  };
  expect_throws([](OverloadConfig& c) { c.encode_budget_bytes = 0.0; });
  expect_throws([](OverloadConfig& c) { c.encode_budget_bytes = -1.0; });
  expect_throws([](OverloadConfig& c) { c.recover_ticks = 0; });
  EXPECT_NO_THROW(OverloadConfig{}.validate());
}

// ------------------------------------------------------------ admission

AdmissionConfig admission(std::size_t capacity, std::size_t queue,
                          std::uint64_t spacing, std::size_t burst = 1) {
  AdmissionConfig config;
  config.enabled = true;
  config.capacity = capacity;
  config.queue_limit = queue;
  config.arrival_spacing_ticks = spacing;
  config.arrival_burst = burst;
  return config;
}

TEST(AdmissionPlan, EverythingFitsUnderCapacity) {
  const auto plan = plan_admission(admission(4, 0, 0), 4, 100);
  ASSERT_EQ(plan.size(), 4u);
  for (const AdmissionDecision& d : plan) {
    EXPECT_EQ(d.outcome, AdmissionOutcome::kAdmitted);
    EXPECT_EQ(d.wait_ticks, 0u);
  }
}

TEST(AdmissionPlan, ThunderingHerdQueuesThenDenies) {
  // Everyone arrives at tick 0: capacity 2 admits slots 0-1, the queue of
  // 1 holds slot 2 (starts when slot 0 releases), the rest are denied.
  const auto plan = plan_admission(admission(2, 1, 0), 5, 50);
  ASSERT_EQ(plan.size(), 5u);
  EXPECT_EQ(plan[0].outcome, AdmissionOutcome::kAdmitted);
  EXPECT_EQ(plan[1].outcome, AdmissionOutcome::kAdmitted);
  EXPECT_EQ(plan[2].outcome, AdmissionOutcome::kQueued);
  EXPECT_EQ(plan[2].start_tick, 50u);
  EXPECT_EQ(plan[2].wait_ticks, 50u);
  EXPECT_EQ(plan[3].outcome, AdmissionOutcome::kDenied);
  EXPECT_EQ(plan[4].outcome, AdmissionOutcome::kDenied);
}

TEST(AdmissionPlan, SpacedArrivalsAdmitOnceCapacityFrees) {
  // Spacing 60 > hold 50: every arrival finds a free unit.
  const auto plan = plan_admission(admission(1, 0, 60), 3, 50);
  for (const AdmissionDecision& d : plan)
    EXPECT_EQ(d.outcome, AdmissionOutcome::kAdmitted);
}

TEST(AdmissionPlan, BurstArrivalsShareOneArrivalTick) {
  const AdmissionConfig config = admission(2, 2, 10, 2);
  EXPECT_EQ(arrival_tick(config, 0), 0u);
  EXPECT_EQ(arrival_tick(config, 1), 0u);
  EXPECT_EQ(arrival_tick(config, 2), 10u);
  EXPECT_EQ(arrival_tick(config, 3), 10u);
}

TEST(AdmissionConfigValidate, RejectsNonsense) {
  AdmissionConfig config = admission(0, 1, 0);
  EXPECT_THROW(config.validate(), std::invalid_argument);
  config = admission(1, 0, 0);
  config.arrival_burst = 0;
  EXPECT_THROW(config.validate(), std::invalid_argument);
  EXPECT_NO_THROW(admission(1, 0, 0).validate());
  // Disabled config is never validated against its knobs.
  AdmissionConfig off;
  off.capacity = 0;
  EXPECT_NO_THROW(off.validate());
}

// ---------------------------------------------------- session integration

SessionConfig small_session() {
  SessionConfig config;
  config.user_count = 3;
  config.duration_s = 1.5;
  config.master_points = 30'000;
  config.video_frames = 20;
  config.worker_threads = 1;
  config.seed = 9;
  return config;
}

/// Budgets tight enough that the default content scale browns out.
OverloadConfig tight_overload() {
  OverloadConfig config;
  config.enabled = true;
  config.encode_budget_bytes = 100'000.0;
  config.recover_ticks = 4;
  return config;
}

TEST(OverloadSession, OffConfigMatchesABuildWithoutOverload) {
  // overload.enabled = false must leave the session bit-identical to the
  // default config: the "off" stage is a no-op and every shed guard
  // reduces to the pre-overload code path.
  SessionConfig off = small_session();
  off.overload.enabled = false;
  off.overload.encode_budget_bytes = 1.0;  // knobs inert while disabled
  const SessionResult a = Session(small_session()).run();
  const SessionResult b = Session(off).run();
  expect_identical(a, b);
  EXPECT_EQ(b.overload.green_ticks, 0u);  // governor never ran
}

TEST(OverloadSession, TightBudgetBrownsOutAndShedsDeterministically) {
  SessionConfig config = small_session();
  config.overload = tight_overload();
  const SessionResult r = Session(config).run();
  EXPECT_GT(r.overload.yellow_ticks + r.overload.orange_ticks +
                r.overload.red_ticks,
            0u);
  EXPECT_GT(r.overload.transitions, 0u);
  EXPECT_GT(r.overload.peak_utilization, 1.0);
  EXPECT_GT(r.overload.tier_capped_user_ticks, 0u);
}

TEST(OverloadSession, ShedAccountingBitIdenticalAcrossThreadCounts) {
  auto run_with = [](std::size_t threads) {
    SessionConfig config = small_session();
    config.overload = tight_overload();
    config.worker_threads = threads;
    return Session(config).run();
  };
  const SessionResult serial = run_with(1);
  const SessionResult parallel = run_with(4);
  expect_identical(serial, parallel);
}

TEST(OverloadSession, PressureChaosDrivesTheGovernorDeterministically) {
  auto run_with = [](std::size_t threads) {
    SessionConfig config = small_session();
    config.overload.enabled = true;
    config.worker_threads = threads;
    fault::ChaosConfig chaos;
    chaos.seed = config.seed;
    chaos.duration_s = config.duration_s;
    chaos.user_count = config.user_count;
    chaos.ap_count = config.ap_count;
    chaos.intensity = 0.5;
    chaos.cpu_pressure = 40.0;
    chaos.mem_pressure = 0.25;
    config.fault_plan = fault::random_plan(chaos);
    return Session(config).run();
  };
  const SessionResult serial = run_with(1);
  const SessionResult parallel = run_with(4);
  expect_identical(serial, parallel);
  // The inflated logical costs must have pushed the governor off green.
  EXPECT_GT(serial.overload.yellow_ticks + serial.overload.orange_ticks +
                serial.overload.red_ticks,
            0u);
}

TEST(OverloadSession, GovernorRecoversToGreenAfterPressureEnds) {
  // One hand-built pressure window in the first half of the session: after
  // it clears, the hysteretic ladder must walk back down to green.
  SessionConfig config = small_session();
  config.duration_s = 2.0;
  config.overload.enabled = true;
  config.overload.recover_ticks = 3;
  fault::FaultEvent pressure;
  pressure.kind = fault::FaultKind::kCpuPressure;
  pressure.t_s = 0.2;
  pressure.duration_s = 0.5;
  pressure.magnitude = 50.0;
  config.fault_plan.add(pressure);
  const SessionResult r = Session(config).run();
  EXPECT_GT(r.overload.red_ticks, 0u);
  EXPECT_EQ(r.overload.final_level,
            static_cast<std::uint8_t>(BrownoutLevel::kGreen));
}

// ------------------------------------------------------ fleet admission

FleetConfig admission_fleet(std::size_t parallel) {
  FleetConfig fc;
  fc.session = small_session();
  fc.session.duration_s = 1.0;
  fc.sessions = 6;
  fc.parallel_sessions = parallel;
  fc.admission = admission(2, 1, 3);
  return fc;
}

TEST(OverloadFleet, AdmissionOutcomesLandInTheFleetResult) {
  const FleetResult fleet = run_fleet(admission_fleet(1));
  ASSERT_EQ(fleet.outcomes.size(), 6u);
  EXPECT_EQ(fleet.outcomes[0].admission, AdmissionOutcome::kAdmitted);
  EXPECT_EQ(fleet.outcomes[1].admission, AdmissionOutcome::kAdmitted);
  EXPECT_GT(fleet.denied_slots, 0u);
  EXPECT_EQ(fleet.queued_slots, 1u);
  for (std::size_t k = 0; k < fleet.outcomes.size(); ++k) {
    const SlotOutcome& o = fleet.outcomes[k];
    if (o.admission == AdmissionOutcome::kDenied) {
      EXPECT_EQ(o.status, SlotStatus::kDenied);
      EXPECT_EQ(o.attempts, 0u);  // a denied slot never ran
    } else {
      EXPECT_EQ(o.status, SlotStatus::kCompleted);
    }
  }
}

TEST(OverloadFleet, AdmissionFleetBitIdenticalAcrossParallelism) {
  const FleetResult serial = run_fleet(admission_fleet(1));
  const FleetResult four = run_fleet(admission_fleet(4));
  expect_fleet_identical(serial, four);
}

TEST(OverloadFleet, AdmissionOffKeepsLegacyDispatch) {
  FleetConfig fc = admission_fleet(1);
  fc.admission.enabled = false;
  const FleetResult fleet = run_fleet(fc);
  EXPECT_EQ(fleet.denied_slots, 0u);
  EXPECT_EQ(fleet.queued_slots, 0u);
  for (const SlotOutcome& o : fleet.outcomes)
    EXPECT_EQ(o.status, SlotStatus::kCompleted);
}

}  // namespace
}  // namespace volcast::core
