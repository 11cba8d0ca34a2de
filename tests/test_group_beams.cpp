// One beam per multicast group: the beam a group is sent on, counted in
// custom_beam_uses / stock_beam_uses and installed as the AP's concurrent
// beam, is the one that priced the group's rate during grouping. No group
// beam is designed outside the grouping search.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <string>

#include "core/session.h"
#include "obs/telemetry.h"

namespace volcast::core {
namespace {

SessionConfig session(std::size_t users, std::size_t aps) {
  SessionConfig c;
  c.user_count = users;
  c.ap_count = aps;
  c.duration_s = 2.0;
  c.master_points = 30'000;
  c.video_frames = 20;
  c.seed = 7;
  if (aps > 1) c.audience_spread_rad = 6.28;  // an audience all around
  return c;
}

struct Traced {
  SessionResult result;
  std::uint64_t multicast_designs = 0;
  std::uint64_t plan_evals = 0;
  std::size_t multicast_groups = 0;  // group_formed events, 2+ members
};

Traced run_traced(SessionConfig c) {
  obs::Telemetry telemetry({.capture_wall_time = false});
  c.telemetry = &telemetry;
  Traced out;
  out.result = Session(c).run();
  out.multicast_designs =
      telemetry.metrics().counter("beam.multicast_designs").value();
  out.plan_evals = telemetry.metrics().counter("grouping.plan_evals").value();
  for (const obs::Event& e : telemetry.events())
    if (e.type == obs::EventType::kGroupFormed && e.value >= 2.0)
      ++out.multicast_groups;
  return out;
}

void expect_one_beam_per_group(const Traced& t) {
  // Every group beam designed is a priced candidate...
  EXPECT_EQ(t.multicast_designs, t.plan_evals);
  // ...and every multicast group is sent on exactly one of them.
  EXPECT_EQ(t.result.custom_beam_uses + t.result.stock_beam_uses,
            t.multicast_groups);
  EXPECT_GT(t.multicast_groups, 0u);
}

TEST(GroupBeams, CrowdOnOneApDesignsOnlyPricedCandidates) {
  expect_one_beam_per_group(run_traced(session(14, 1)));
}

TEST(GroupBeams, TwoApsDesignOnlyPricedCandidates) {
  expect_one_beam_per_group(run_traced(session(8, 2)));
}

class MulticastOffOverride : public ::testing::TestWithParam<std::string> {};

TEST_P(MulticastOffOverride, GroupsServedByUnicastCountNoBeam) {
  // With multicast off, an explicit grouping policy still forms groups,
  // but each prices at rate 0 and is served by unicast: no group beam is
  // designed, counted or installed.
  SessionConfig c = session(6, 2);
  c.enable_multicast = false;
  c.policy_overrides["grouping"] = GetParam();
  const Traced t = run_traced(c);
  EXPECT_EQ(t.result.custom_beam_uses, 0u);
  EXPECT_EQ(t.result.stock_beam_uses, 0u);
  EXPECT_EQ(t.multicast_designs, 0u);
  if (GetParam() == "exhaustive") {
    EXPECT_GT(t.multicast_groups, 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(Policies, MulticastOffOverride,
                         ::testing::Values("exhaustive", "greedy_iou"));

}  // namespace
}  // namespace volcast::core
