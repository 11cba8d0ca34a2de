// Edge cases of the MAC scheduler and the multi-AP coordinator (ISSUE 3):
// empty multicast groups, single-user sessions, ticks where every user is
// blocked or absent, and AP handoff happening mid-session under a fault
// plan — the configurations where off-by-one and empty-container bugs live.
#include <gtest/gtest.h>

#include <array>
#include <cstddef>
#include <utility>
#include <vector>

#include "core/multi_ap.h"
#include "core/session.h"
#include "fault/fault_plan.h"
#include "mac/schedule.h"
#include "obs/metrics.h"
#include "obs/telemetry.h"
#include "ap_tables.h"
#include "session_compare.h"

namespace volcast {
namespace {

using core::SessionConfig;
using core::SessionResult;

SessionConfig tiny_session() {
  SessionConfig c;
  c.user_count = 2;
  c.duration_s = 2.0;
  c.master_points = 40'000;
  c.video_frames = 30;
  return c;
}

// --- mac/schedule ---------------------------------------------------------

TEST(MacEdges, EmptyGroupPlanIsFreeAndFeasible) {
  const mac::GroupPlan empty;
  EXPECT_EQ(empty.transmit_time_s(), 0.0);
  EXPECT_EQ(empty.unicast_time_s(), 0.0);
  EXPECT_EQ(empty.airtime_saving_s(), 0.0);
}

TEST(MacEdges, EmptyScheduleIsFeasibleAtAnyFps) {
  const mac::FrameSchedule schedule;
  EXPECT_EQ(schedule.airtime_s(), 0.0);
  EXPECT_TRUE(schedule.feasible(30.0));
  EXPECT_TRUE(schedule.feasible(1e6));
  EXPECT_EQ(schedule.sustainable_fps(30.0), 30.0);
}

TEST(MacEdges, SingletonGroupDegeneratesToUnicast) {
  mac::GroupPlan plan;
  plan.members.push_back({.user = 0,
                          .total_bits = 1e6,
                          .overlap_bits = 1e6,
                          .unicast_rate_mbps = 500.0});
  plan.multicast_rate_mbps = 400.0;
  plan.group_overlap_bits = 1e6;
  EXPECT_DOUBLE_EQ(plan.transmit_time_s(), plan.unicast_time_s());
}

TEST(MacEdges, ZeroMulticastRateFallsBackToUnicastTime) {
  mac::GroupPlan plan;
  plan.members.push_back({.user = 0,
                          .total_bits = 1e6,
                          .overlap_bits = 5e5,
                          .unicast_rate_mbps = 500.0});
  plan.members.push_back({.user = 1,
                          .total_bits = 1e6,
                          .overlap_bits = 5e5,
                          .unicast_rate_mbps = 250.0});
  plan.multicast_rate_mbps = 0.0;  // no common MCS under the beam
  plan.group_overlap_bits = 5e5;
  EXPECT_DOUBLE_EQ(plan.transmit_time_s(), plan.unicast_time_s());
}

TEST(MacEdges, ZeroRateMembersDoNotDivideByZero) {
  // A fully blocked member (no unicast rate at all) must yield an infinite
  // or huge time, not a crash; feasibility is then false.
  mac::GroupPlan plan;
  plan.members.push_back({.user = 0,
                          .total_bits = 1e6,
                          .overlap_bits = 0.0,
                          .unicast_rate_mbps = 0.0});
  mac::FrameSchedule schedule;
  schedule.groups.push_back(plan);
  EXPECT_FALSE(schedule.feasible(30.0));
  EXPECT_LT(schedule.sustainable_fps(30.0), 1e-8);
}

TEST(MacEdges, ObserveScheduleHandlesEmptyAndSingleton) {
  obs::MetricRegistry metrics;
  const mac::MacOverheads overheads;
  mac::observe_schedule(mac::FrameSchedule{}, overheads, metrics);
  EXPECT_EQ(metrics.counter("mac.groups").value(), 0u);

  mac::FrameSchedule schedule;
  mac::GroupPlan solo;
  solo.members.push_back({.user = 3,
                          .total_bits = 1e6,
                          .overlap_bits = 0.0,
                          .unicast_rate_mbps = 500.0});
  schedule.groups.push_back(solo);
  mac::observe_schedule(schedule, overheads, metrics);
  EXPECT_EQ(metrics.counter("mac.groups").value(), 1u);
  EXPECT_EQ(metrics.counter("mac.scheduled_users").value(), 1u);
  // A singleton is never a multicast group.
  EXPECT_EQ(metrics.counter("mac.multicast_groups").value(), 0u);
}

// --- core/multi_ap --------------------------------------------------------

TEST(MultiApEdges, AssignWithNoPositionsIsEmpty) {
  core::MultiApConfig config;
  config.ap_count = 2;
  const core::MultiApCoordinator coord(core::TestbedConfig{}, config);
  auto tables = core::ap_tables(coord, {});
  EXPECT_TRUE(coord.assign_users(0, core::ap_links(tables), {}).empty());
}

TEST(MultiApEdges, AllApsDownAssignsEveryoneToZero) {
  core::MultiApConfig config;
  config.ap_count = 2;
  const core::MultiApCoordinator coord(core::TestbedConfig{}, config);
  const std::vector<geo::Vec3> positions{{4.0, 1.2, 1.5}, {4.0, 4.8, 1.5}};
  const std::array<bool, 2> down{false, false};
  auto tables = core::ap_tables(coord, positions);
  const auto assignment =
      coord.assign_users(positions.size(), core::ap_links(tables), down);
  ASSERT_EQ(assignment.size(), 2u);
  for (const std::size_t a : assignment) EXPECT_EQ(a, 0u);
}

TEST(MultiApEdges, SingleAvailableApTakesAllUsers) {
  core::MultiApConfig config;
  config.ap_count = 2;
  const core::MultiApCoordinator coord(core::TestbedConfig{}, config);
  const std::vector<geo::Vec3> positions{{4.0, 1.2, 1.5}, {4.0, 4.8, 1.5}};
  const std::array<bool, 2> only_back{false, true};
  auto tables = core::ap_tables(coord, positions);
  for (const std::size_t a :
       coord.assign_users(positions.size(), core::ap_links(tables), only_back))
    EXPECT_EQ(a, 1u);
}

// --- session-level edges --------------------------------------------------

TEST(SessionEdges, SingleUserSessionRuns) {
  SessionConfig c = tiny_session();
  c.user_count = 1;
  core::Session session(std::move(c));
  const SessionResult result = session.run();
  ASSERT_EQ(result.qoe.users.size(), 1u);
  EXPECT_GT(result.qoe.users[0].displayed_fps, 0.0);
  // One user cannot multicast.
  EXPECT_EQ(result.multicast_bit_share, 0.0);
}

TEST(SessionEdges, AllUsersAbsentTickSurvives) {
  // Every user churns out over the same window: ticks where the schedule
  // serves nobody must not crash or deadlock, and users must recover.
  SessionConfig c = tiny_session();
  c.duration_s = 3.0;
  for (std::size_t u = 0; u < c.user_count; ++u) {
    fault::FaultEvent leave;
    leave.t_s = 1.0;
    leave.kind = fault::FaultKind::kUserLeave;
    leave.target = u;
    leave.duration_s = 1.0;
    c.fault_plan.add(leave);
  }
  core::Session session(std::move(c));
  const SessionResult result = session.run();
  EXPECT_EQ(result.faults.faults_injected, 2u);
  for (const auto& u : result.qoe.users) EXPECT_GT(u.displayed_fps, 0.0);
}

TEST(SessionEdges, AllUsersBlockedTickSurvives) {
  // A wall of obstacles between the AP and everyone: deep blockage on every
  // link. The session must keep ticking and report outage user-ticks
  // rather than wedging.
  SessionConfig c = tiny_session();
  c.duration_s = 3.0;
  for (int i = 0; i < 5; ++i) {
    fault::FaultEvent wall;
    wall.t_s = 1.0;
    wall.kind = fault::FaultKind::kObstacleSpawn;
    wall.magnitude = 0.6;
    wall.position = {2.0 + 0.8 * i, 2.0, 1.5};
    c.fault_plan.add(wall);
  }
  core::Session session(std::move(c));
  const SessionResult result = session.run();
  EXPECT_EQ(result.faults.faults_injected, 5u);
  EXPECT_EQ(result.qoe.users.size(), 2u);
}

TEST(SessionEdges, ApHandoffMidSessionUnderFaultPlan) {
  // Two APs; the primary goes dark mid-session. Users must hand off to the
  // surviving AP (telemetry records ap_down/ap_up and the session keeps
  // delivering), then hand back on recovery — bit-identically across
  // thread counts.
  auto make = [] {
    SessionConfig c = tiny_session();
    c.user_count = 3;
    c.duration_s = 3.0;
    c.ap_count = 2;
    fault::FaultEvent outage;
    outage.t_s = 1.0;
    outage.kind = fault::FaultKind::kApOutage;
    outage.target = 0;
    outage.duration_s = 1.0;
    c.fault_plan.add(outage);
    return c;
  };

  obs::Telemetry telemetry({.capture_wall_time = false});
  SessionConfig traced = make();
  traced.worker_threads = 1;
  traced.telemetry = &telemetry;
  core::Session session(std::move(traced));
  const SessionResult result = session.run();

  bool saw_down = false;
  bool saw_up = false;
  for (const obs::Event& e : telemetry.events()) {
    if (e.type == obs::EventType::kApDown && e.ap == 0u) saw_down = true;
    if (e.type == obs::EventType::kApUp && e.ap == 0u) saw_up = saw_down;
  }
  EXPECT_TRUE(saw_down);
  EXPECT_TRUE(saw_up);  // and strictly after the outage
  EXPECT_EQ(result.faults.faults_injected, 1u);
  // Recovery is tracked per degraded user, so one outage can log several.
  EXPECT_GE(result.faults.recoveries, 1u);
  for (const auto& u : result.qoe.users) EXPECT_GT(u.displayed_fps, 0.0);

  // The handoff path follows the same determinism discipline.
  SessionConfig parallel = make();
  parallel.worker_threads = 4;
  core::Session parallel_session(std::move(parallel));
  core::expect_identical(result, parallel_session.run());
}

}  // namespace
}  // namespace volcast
