// Fleet supervision: typed failure taxonomy, deterministic retry with
// derived seeds, logical deadlines, and partial-fleet folding — a
// crashing session must never abort the other slots.
#include "core/supervisor.h"

#include <gtest/gtest.h>

#include <new>
#include <set>
#include <stdexcept>
#include <vector>

#include "core/fleet.h"
#include "fault/fault_plan.h"
#include "session_compare.h"

namespace volcast::core {
namespace {

FleetConfig tiny_fleet(std::size_t sessions) {
  FleetConfig fc;
  fc.session.user_count = 1;
  fc.session.duration_s = 0.5;
  fc.session.master_points = 20'000;
  fc.session.video_frames = 10;
  fc.session.worker_threads = 1;
  fc.sessions = sessions;
  fc.parallel_sessions = 1;
  return fc;
}

fault::FaultPlan crash_plan(double probability) {
  fault::FaultPlan plan;
  fault::FaultEvent e;
  e.t_s = 0.2;
  e.kind = fault::FaultKind::kSessionCrash;
  e.target = 7;  // free draw salt
  e.magnitude = probability;  // 0 = certain crash
  plan.add(e);
  return plan;
}

// --- pure supervision primitives ----------------------------------------

TEST(Supervisor, RetrySeedIsPureAndCollisionFree) {
  EXPECT_EQ(derive_retry_seed(1, 0, 2), derive_retry_seed(1, 0, 2));
  // Distinct (slot, attempt) pairs land on distinct seeds, and none equals
  // the first-attempt seed base + slot.
  std::set<std::uint64_t> seeds;
  for (std::size_t slot = 0; slot < 8; ++slot) {
    for (std::uint32_t attempt = 2; attempt < 6; ++attempt)
      seeds.insert(derive_retry_seed(42, slot, attempt));
    seeds.insert(42 + slot);
  }
  EXPECT_EQ(seeds.size(), 8u * 4u + 8u);
}

TEST(Supervisor, BackoffIsPureWithExponentialEnvelope) {
  for (std::uint32_t attempt = 1; attempt < 12; ++attempt) {
    const std::uint64_t ticks = retry_backoff_ticks(3, attempt);
    EXPECT_EQ(ticks, retry_backoff_ticks(3, attempt));
    const std::uint64_t base =
        1ULL << (attempt < 10 ? attempt : 10);  // capped exponent
    EXPECT_GE(ticks, base);
    EXPECT_LT(ticks, base + 16);  // jitter term is 4 bits
  }
}

TEST(Supervisor, ClassifiesTheTaxonomyMostDerivedFirst) {
  EXPECT_EQ(classify_failure(fault::SessionCrashFault("x")),
            FailureClass::kCrashFault);
  EXPECT_EQ(classify_failure(DeadlineExceeded("x")), FailureClass::kDeadline);
  EXPECT_EQ(classify_failure(std::invalid_argument("x")),
            FailureClass::kInvalidArgument);
  EXPECT_EQ(classify_failure(std::logic_error("x")),
            FailureClass::kLogicError);
  EXPECT_EQ(classify_failure(std::runtime_error("x")),
            FailureClass::kRuntimeError);
  EXPECT_EQ(classify_failure(std::exception()), FailureClass::kUnknown);
}

TEST(Supervisor, ClassifyCurrentExceptionExtractsMessage) {
  std::string message;
  FailureClass cls = FailureClass::kNone;
  try {
    throw fault::SessionCrashFault("crash at t=0.2");
  } catch (...) {
    cls = classify_current_exception(message);
  }
  EXPECT_EQ(cls, FailureClass::kCrashFault);
  EXPECT_EQ(message, "crash at t=0.2");

  try {
    throw 42;  // non-std exception
  } catch (...) {
    cls = classify_current_exception(message);
  }
  EXPECT_EQ(cls, FailureClass::kUnknown);
  EXPECT_EQ(message, "unknown exception");
}

// --- fleet-level supervision --------------------------------------------

TEST(Supervisor, CertainCrashNeverEscapesRunFleet) {
  FleetConfig fc = tiny_fleet(3);
  fc.session.fault_plan = crash_plan(0.0);  // magnitude 0 = certain crash
  FleetResult fleet;
  ASSERT_NO_THROW(fleet = run_fleet(fc));
  ASSERT_EQ(fleet.outcomes.size(), 3u);
  for (const SlotOutcome& o : fleet.outcomes) {
    EXPECT_EQ(o.status, SlotStatus::kFailed);
    EXPECT_EQ(o.error_class, FailureClass::kCrashFault);
    EXPECT_EQ(o.attempts, 1u);
    EXPECT_FALSE(o.message.empty());
  }
  EXPECT_EQ(fleet.aborted_slots, 3u);
  EXPECT_EQ(fleet.total_users, 0u);  // no completed slot folds anything
  EXPECT_EQ(fleet.mean_displayed_fps, 0.0);
}

TEST(Supervisor, CertainCrashWithRetriesQuarantines) {
  FleetConfig fc = tiny_fleet(1);
  fc.session.fault_plan = crash_plan(0.0);
  fc.supervision.max_retries = 2;
  const FleetResult fleet = run_fleet(fc);
  ASSERT_EQ(fleet.outcomes.size(), 1u);
  EXPECT_EQ(fleet.outcomes[0].status, SlotStatus::kQuarantined);
  EXPECT_EQ(fleet.outcomes[0].attempts, 3u);  // 1 try + 2 retries
  EXPECT_GT(fleet.outcomes[0].backoff_ticks, 0u);
  EXPECT_EQ(fleet.quarantined_slots, 1u);
  EXPECT_EQ(fleet.aborted_slots, 1u);
}

TEST(Supervisor, HealthySlotsStillFoldNextToCrashedOnes) {
  FleetConfig fc = tiny_fleet(6);
  fc.session.fault_plan = crash_plan(0.5);  // seed-dependent crash
  const FleetResult fleet = run_fleet(fc);
  ASSERT_EQ(fleet.outcomes.size(), 6u);

  std::size_t completed = 0;
  for (std::size_t k = 0; k < 6; ++k) {
    const SlotOutcome& o = fleet.outcomes[k];
    if (o.status == SlotStatus::kCompleted) {
      ++completed;
      // A surviving slot's result is exactly the standalone run.
      SessionConfig sc = fc.session;
      sc.seed += k;
      expect_identical(fleet.sessions[k], Session(sc).run());
    } else {
      EXPECT_EQ(o.error_class, FailureClass::kCrashFault);
    }
  }
  // p=0.5 over six independently-seeded slots: the fixed seeds produce a
  // genuine mix (re-pick t_s/target in crash_plan if a code change ever
  // collapses this to all-or-nothing).
  EXPECT_GT(completed, 0u);
  EXPECT_LT(completed, 6u);
  EXPECT_EQ(fleet.aborted_slots, 6u - completed);
  EXPECT_EQ(fleet.total_users, completed);  // 1 user per session
}

TEST(Supervisor, RetryWithDerivedSeedCanRecoverACrashedSlot) {
  // The crash draw depends on the session seed, so a retry under
  // derive_retry_seed is a fresh draw — scan a few base seeds for the
  // transient-failure shape (crash, then success) and assert the retry
  // machinery reports it correctly.
  bool found = false;
  for (std::uint64_t seed = 1; seed <= 32 && !found; ++seed) {
    FleetConfig fc = tiny_fleet(1);
    fc.session.seed = seed;
    fc.session.fault_plan = crash_plan(0.5);
    fc.supervision.max_retries = 1;
    const FleetResult fleet = run_fleet(fc);
    const SlotOutcome& o = fleet.outcomes[0];
    if (o.status == SlotStatus::kCompleted && o.attempts == 2) {
      found = true;
      EXPECT_EQ(o.error_class, FailureClass::kNone);
      EXPECT_TRUE(o.message.empty());
      EXPECT_EQ(o.seed, derive_retry_seed(seed, 0, 2));
      EXPECT_GT(o.backoff_ticks, 0u);
      EXPECT_EQ(fleet.retried_slots, 1u);
      EXPECT_EQ(fleet.aborted_slots, 0u);
      EXPECT_EQ(fleet.total_users, 1u);
    }
  }
  EXPECT_TRUE(found) << "no seed in [1, 32] crashed once then recovered";
}

TEST(Supervisor, RetryScheduleIsBitIdenticalAcrossParallelism) {
  FleetConfig fc = tiny_fleet(4);
  fc.session.fault_plan = crash_plan(0.6);
  fc.supervision.max_retries = 2;
  fc.parallel_sessions = 1;
  const FleetResult serial = run_fleet(fc);
  fc.parallel_sessions = 4;
  expect_fleet_identical(serial, run_fleet(fc));
}

TEST(Supervisor, DeadlineExceededIsRecordedAndNeverRetried) {
  FleetConfig fc = tiny_fleet(2);
  fc.session.tick_budget = 5;  // sessions want 0.5 s * 30 fps = 15 ticks
  fc.supervision.max_retries = 3;  // must not apply: the budget is structural
  const FleetResult fleet = run_fleet(fc);
  for (const SlotOutcome& o : fleet.outcomes) {
    EXPECT_EQ(o.status, SlotStatus::kDeadlineExceeded);
    EXPECT_EQ(o.error_class, FailureClass::kDeadline);
    EXPECT_EQ(o.attempts, 1u);
  }
  EXPECT_EQ(fleet.aborted_slots, 2u);
  EXPECT_EQ(fleet.quarantined_slots, 0u);
}

TEST(Supervisor, GenerousTickBudgetChangesNothing) {
  const FleetResult plain = run_fleet(tiny_fleet(2));
  FleetConfig fc = tiny_fleet(2);
  fc.session.tick_budget = 100'000;
  expect_fleet_identical(plain, run_fleet(fc));
}

TEST(Supervisor, ChaosCrashProbabilityExtendsRandomPlans) {
  fault::ChaosConfig chaos;
  chaos.seed = 9;
  chaos.duration_s = 2.0;
  chaos.user_count = 2;
  chaos.ap_count = 1;
  chaos.intensity = 0.5;

  // Off by default: byte-identical plans with the knob at zero.
  const fault::FaultPlan baseline = fault::random_plan(chaos);
  for (const fault::FaultEvent& e : baseline.events())
    EXPECT_NE(e.kind, fault::FaultKind::kSessionCrash);

  chaos.crash_probability = 0.7;
  const fault::FaultPlan with_crash = fault::random_plan(chaos);
  ASSERT_EQ(with_crash.size(), baseline.size() + 1);
  std::size_t crashes = 0;
  for (const fault::FaultEvent& e : with_crash.events())
    if (e.kind == fault::FaultKind::kSessionCrash) {
      ++crashes;
      EXPECT_DOUBLE_EQ(e.magnitude, 0.7);
      EXPECT_GE(e.t_s, 0.0);
      EXPECT_LE(e.t_s, chaos.duration_s);
    }
  EXPECT_EQ(crashes, 1u);
  // The pre-existing draw sequence is untouched (separate RNG stream); the
  // crash event is merely inserted at its sorted onset position.
  std::vector<fault::FaultEvent> rest;
  for (const fault::FaultEvent& e : with_crash.events())
    if (e.kind != fault::FaultKind::kSessionCrash) rest.push_back(e);
  ASSERT_EQ(rest.size(), baseline.size());
  for (std::size_t i = 0; i < baseline.size(); ++i) {
    EXPECT_EQ(rest[i].kind, baseline.events()[i].kind);
    EXPECT_EQ(rest[i].t_s, baseline.events()[i].t_s);
    EXPECT_EQ(rest[i].target, baseline.events()[i].target);
  }
}

TEST(Supervisor, ToStringCoversEveryEnumerator) {
  EXPECT_STREQ(to_string(SlotStatus::kCompleted), "completed");
  EXPECT_STREQ(to_string(SlotStatus::kFailed), "failed");
  EXPECT_STREQ(to_string(SlotStatus::kDeadlineExceeded), "deadline-exceeded");
  EXPECT_STREQ(to_string(SlotStatus::kQuarantined), "quarantined");
  EXPECT_STREQ(to_string(FailureClass::kNone), "none");
  EXPECT_STREQ(to_string(FailureClass::kCrashFault), "crash-fault");
  EXPECT_STREQ(to_string(FailureClass::kDeadline), "deadline");
  EXPECT_STREQ(to_string(FailureClass::kBadAlloc), "bad-alloc");
  EXPECT_STREQ(to_string(FailureClass::kInvalidArgument), "invalid-argument");
  EXPECT_STREQ(to_string(FailureClass::kLogicError), "logic-error");
  EXPECT_STREQ(to_string(FailureClass::kRuntimeError), "runtime-error");
  EXPECT_STREQ(to_string(FailureClass::kUnknown), "unknown");
}

}  // namespace
}  // namespace volcast::core
