// Fleet runner: slot-indexed seeding, bit-identical results at any fleet
// or set-up parallelism, and aggregate folding in slot order.
#include "core/fleet.h"

#include <gtest/gtest.h>

#include <stdexcept>

#include "core/workload_bundle.h"
#include "fault/fault_plan.h"
#include "obs/telemetry.h"
#include "session_compare.h"

namespace volcast::core {
namespace {

FleetConfig fast_fleet(std::size_t sessions) {
  FleetConfig fc;
  fc.session.user_count = 2;
  fc.session.duration_s = 1.0;
  fc.session.master_points = 30'000;
  fc.session.video_frames = 20;
  fc.session.worker_threads = 1;
  fc.sessions = sessions;
  fc.parallel_sessions = 1;
  return fc;
}

TEST(FleetConfigValidate, RejectsBadConfigs) {
  EXPECT_THROW(run_fleet(fast_fleet(0)), std::invalid_argument);

  // Per-session sinks cannot be fanned out across concurrent sessions.
  FleetConfig with_tel = fast_fleet(1);
  obs::Telemetry tel;
  with_tel.session.telemetry = &tel;
  EXPECT_THROW(with_tel.validate(), std::invalid_argument);

  FleetConfig with_observer = fast_fleet(1);
  with_observer.session.tick_observer = [](const TickSample&) {};
  EXPECT_THROW(with_observer.validate(), std::invalid_argument);

  EXPECT_NO_THROW(fast_fleet(1).validate());
}

TEST(Fleet, SingleSlotMatchesStandaloneSession) {
  const FleetConfig fc = fast_fleet(1);
  const FleetResult fleet = run_fleet(fc);
  ASSERT_EQ(fleet.sessions.size(), 1u);
  expect_identical(fleet.sessions[0], Session(fc.session).run());
}

TEST(Fleet, SlotSeedIsTemplateSeedPlusIndex) {
  const FleetConfig fc = fast_fleet(2);
  const FleetResult fleet = run_fleet(fc);
  ASSERT_EQ(fleet.sessions.size(), 2u);

  SessionConfig slot1 = fc.session;
  slot1.seed += 1;
  expect_identical(fleet.sessions[1], Session(slot1).run());
  // Different seeds, different outcomes — the slots are not clones.
  EXPECT_NE(fleet.sessions[0].qoe.aggregate_goodput_mbps(),
            fleet.sessions[1].qoe.aggregate_goodput_mbps());
}

TEST(Fleet, BitIdenticalAcrossOuterParallelism) {
  FleetConfig fc = fast_fleet(3);
  fc.parallel_sessions = 1;  // fully serial reference
  const FleetResult serial = run_fleet(fc);
  fc.parallel_sessions = 2;
  expect_fleet_identical(serial, run_fleet(fc));
  fc.parallel_sessions = 0;  // hardware concurrency
  expect_fleet_identical(serial, run_fleet(fc));
}

TEST(Fleet, BitIdenticalAcrossInnerWorkerThreads) {
  FleetConfig fc = fast_fleet(2);
  fc.session.worker_threads = 1;
  const FleetResult one_lane = run_fleet(fc);
  fc.session.worker_threads = 4;
  fc.parallel_sessions = 2;  // nested: fleet pool + per-session store builds
  expect_fleet_identical(one_lane, run_fleet(fc));
}

TEST(Fleet, AggregatesFoldAllUsers) {
  const FleetResult fleet = run_fleet(fast_fleet(3));
  EXPECT_EQ(fleet.total_users, 6u);
  EXPECT_LE(fleet.supported_users, fleet.total_users);
  EXPECT_GT(fleet.mean_displayed_fps, 0.0);
  EXPECT_LE(fleet.p5_displayed_fps, fleet.p50_displayed_fps);
  EXPECT_LE(fleet.p50_displayed_fps, fleet.p95_displayed_fps);
  EXPECT_GE(fleet.mean_stall_ratio, 0.0);
  EXPECT_GE(fleet.mean_quality_tier, 0.0);
}

TEST(Fleet, RetryAndQuarantineNeverRebuildTheSharedBundle) {
  // Crash-prone fleet with pinned content: retries redraw the *session*
  // seed, never the workload identity, so the shared bundle built up front
  // must serve every attempt of every slot — including the ones that
  // exhaust their retry budget and quarantine.
  fault::FaultPlan plan;
  fault::FaultEvent e;
  e.t_s = 0.2;
  e.kind = fault::FaultKind::kSessionCrash;
  e.target = 7;      // free draw salt
  e.magnitude = 0.6; // crash probability per attempt
  plan.add(e);

  FleetConfig fc = fast_fleet(8);
  fc.session.content_seed = 4242;
  fc.session.fault_plan = plan;
  fc.supervision.max_retries = 2;

  const std::uint64_t before = WorkloadBundle::builds_total();
  const FleetResult fleet = run_fleet(fc);
  EXPECT_EQ(WorkloadBundle::builds_total() - before, 1u);
  // The crash plan must actually have exercised the retry machinery —
  // otherwise this test proves nothing about the retry path.
  std::size_t attempts = 0;
  for (const SlotOutcome& o : fleet.outcomes) attempts += o.attempts;
  EXPECT_GT(attempts, fc.sessions)
      << "crash plan drew no crashes; pick a different seed";

  // Every attempt replayed as a standalone session that builds its own
  // bundle: the completed attempt matches its slot bit for bit, the others
  // crash again, and each pays one build. The delta is the amortization
  // the shared bundle exists for.
  const std::uint64_t own_before = WorkloadBundle::builds_total();
  for (std::size_t k = 0; k < fc.sessions; ++k) {
    const SlotOutcome& o = fleet.outcomes[k];
    const std::uint64_t base_seed = fc.session.seed + k;
    for (std::uint32_t attempt = 1; attempt <= o.attempts; ++attempt) {
      SessionConfig sc = fc.session;
      sc.seed = attempt == 1 ? base_seed
                             : derive_retry_seed(base_seed, k, attempt);
      const bool last = attempt == o.attempts;
      if (last) {
        EXPECT_EQ(sc.seed, o.seed) << "slot " << k;
      }
      Session session(std::move(sc));
      if (last && o.status == SlotStatus::kCompleted) {
        expect_identical(fleet.sessions[k], session.run());
      } else {
        EXPECT_THROW((void)session.run(), fault::SessionCrashFault)
            << "slot " << k << " attempt " << attempt;
      }
    }
  }
  EXPECT_EQ(WorkloadBundle::builds_total() - own_before, attempts);
}

}  // namespace
}  // namespace volcast::core
