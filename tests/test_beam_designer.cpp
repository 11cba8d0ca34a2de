#include "core/beam_designer.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <numeric>
#include <span>
#include <vector>

namespace volcast::core {
namespace {

struct Fixture {
  Testbed testbed;
  BeamDesigner designer{testbed};

  [[nodiscard]] geo::Vec3 seat(double angle, double radius) const {
    return testbed.to_room(
        {radius * std::cos(angle), radius * std::sin(angle), 1.5});
  }
};

/// `designer`'s unicast design toward `position`, priced through a link
/// table toward it and shadowed by every one of `bodies`.
GroupBeam unicast(const BeamDesigner& designer, const geo::Vec3& position,
                  std::span<const geo::BodyObstacle> bodies = {}) {
  const geo::Vec3 receivers[] = {position};
  mmwave::LinkTable links = designer.link_table(receivers, bodies);
  const std::vector<std::uint8_t> every_body(bodies.size(), 1);
  GroupBeam beam;
  designer.design_unicast(links, 0, every_body, beam);
  return beam;
}

/// `designer`'s multicast design for `members`, priced through a link table
/// toward the members then `others` (the spill-probed non-members) and
/// shadowed by every one of `bodies`.
GroupBeam multicast(const BeamDesigner& designer,
                    std::span<const geo::Vec3> members,
                    std::span<const geo::BodyObstacle> bodies = {},
                    std::span<const geo::Vec3> others = {}) {
  std::vector<geo::Vec3> receivers(members.begin(), members.end());
  receivers.insert(receivers.end(), others.begin(), others.end());
  mmwave::LinkTable links = designer.link_table(receivers, bodies);
  std::vector<std::size_t> member_ids(members.size());
  std::iota(member_ids.begin(), member_ids.end(), std::size_t{0});
  std::vector<std::size_t> other_ids(others.size());
  std::iota(other_ids.begin(), other_ids.end(), members.size());
  const std::vector<std::uint8_t> every_body(bodies.size(), 1);
  GroupBeam beam;
  designer.design_multicast(links, member_ids, every_body, other_ids, beam);
  return beam;
}

TEST(BeamDesigner, UnicastCustomSteersAtUser) {
  Fixture f;
  const auto beam = unicast(f.designer, f.seat(0.0, 2.0));
  EXPECT_TRUE(beam.custom);
  EXPECT_GT(beam.min_member_rss_dbm, -68.0);
  EXPECT_GT(beam.multicast_rate_mbps, 0.0);
}

TEST(BeamDesigner, UnicastStockWhenCustomDisabled) {
  Fixture f;
  BeamDesignerConfig config;
  config.enable_custom_beams = false;
  const BeamDesigner designer(f.testbed, config);
  const auto beam = unicast(designer, f.seat(0.0, 2.0));
  EXPECT_FALSE(beam.custom);
  EXPECT_GT(beam.multicast_rate_mbps, 0.0);
}

TEST(BeamDesigner, CustomUnicastAtLeastAsGoodAsStock) {
  Fixture f;
  BeamDesignerConfig stock_config;
  stock_config.enable_custom_beams = false;
  const BeamDesigner stock(f.testbed, stock_config);
  for (double angle = -0.9; angle <= 0.9; angle += 0.3) {
    const geo::Vec3 pos = f.seat(angle, 2.2);
    EXPECT_GE(unicast(f.designer, pos).min_member_rss_dbm,
              unicast(stock, pos).min_member_rss_dbm - 0.5);
  }
}

TEST(BeamDesigner, MulticastEmptyGroupThrows) {
  Fixture f;
  const geo::Vec3 receivers[] = {f.seat(0.0, 2.0)};
  mmwave::LinkTable links = f.designer.link_table(receivers, {});
  GroupBeam beam;
  EXPECT_THROW(f.designer.design_multicast(links, {}, {}, {}, beam),
               std::invalid_argument);
}

TEST(BeamDesigner, MulticastSingletonUsesStockSector) {
  Fixture f;
  const geo::Vec3 positions[] = {f.seat(0.0, 2.0)};
  const auto beam = multicast(f.designer, positions);
  EXPECT_FALSE(beam.custom);
}

TEST(BeamDesigner, SeparatedPairGetsCustomBeam) {
  Fixture f;
  const geo::Vec3 positions[] = {f.seat(-0.9, 2.4), f.seat(0.9, 2.4)};
  const auto beam = multicast(f.designer, positions);
  EXPECT_TRUE(beam.custom);
  // And it must clear the paper's 550K threshold for most seats.
  EXPECT_GT(beam.min_member_rss_dbm, -70.0);
}

TEST(BeamDesigner, CloseByPairKeepsStockBeam) {
  // Paper: "when both users have high RSS, directly use the default beam".
  Fixture f;
  // Seats on the AP side of the ring sit near the boresight and get strong
  // stock sectors.
  const geo::Vec3 positions[] = {f.seat(-1.57, 2.0), f.seat(-1.45, 2.0)};
  const auto beam = multicast(f.designer, positions);
  EXPECT_FALSE(beam.custom);
}

TEST(BeamDesigner, CustomBeatsStockForSeparatedUsers) {
  Fixture f;
  BeamDesignerConfig stock_only;
  stock_only.enable_custom_beams = false;
  const BeamDesigner stock(f.testbed, stock_only);
  const geo::Vec3 positions[] = {f.seat(-0.8, 2.2), f.seat(0.8, 2.2)};
  const auto custom = multicast(f.designer, positions);
  const auto fallback = multicast(stock, positions);
  EXPECT_GT(custom.min_member_rss_dbm, fallback.min_member_rss_dbm + 2.0);
}

TEST(BeamDesigner, SpillProbeRejectsInterferingBeam) {
  Fixture f;
  BeamDesignerConfig strict;
  strict.max_spill_dbm = -200.0;  // any spill at all fails the probe
  const BeamDesigner designer(f.testbed, strict);
  const geo::Vec3 positions[] = {f.seat(-0.8, 2.2), f.seat(0.8, 2.2)};
  const std::vector<geo::Vec3> others{f.seat(0.0, 2.0)};
  const auto beam = multicast(designer, positions, {}, others);
  EXPECT_FALSE(beam.custom);  // probe forces the stock fallback
}

TEST(BeamDesigner, BlockedMemberLowersGroupRate) {
  Fixture f;
  const geo::Vec3 u1 = f.seat(-0.5, 2.0);
  const geo::Vec3 u2 = f.seat(0.5, 2.0);
  const geo::Vec3 positions[] = {u1, u2};
  // A body on u1's line of sight to the AP, near enough to the user that
  // the slanted path passes at torso height.
  const geo::Vec3 mid = u1 * 0.75 + f.testbed.ap().pose().position * 0.25;
  const std::vector<geo::BodyObstacle> bodies{{{mid.x, mid.y, 0.0}, 0.3, 1.9}};
  const auto clear = multicast(f.designer, positions);
  const auto blocked = multicast(f.designer, positions, bodies);
  EXPECT_LT(blocked.min_member_rss_dbm, clear.min_member_rss_dbm);
}

TEST(BeamDesigner, ReflectionBeamAvailableAndWeaker) {
  Fixture f;
  const geo::Vec3 pos = f.seat(0.3, 2.0);
  const auto direct = unicast(f.designer, pos);
  const auto reflection = f.designer.design_reflection(pos);
  ASSERT_FALSE(reflection.awv.empty());
  EXPECT_LT(reflection.min_member_rss_dbm, direct.min_member_rss_dbm);
  // But still a usable link (the mitigation premise).
  EXPECT_GT(reflection.min_member_rss_dbm, -85.0);
}

TEST(BeamDesigner, ReflectionEmptyWhenNoWalls) {
  TestbedConfig config;
  config.room.enable_reflections = false;
  const Testbed testbed(config);
  const BeamDesigner designer(testbed);
  const auto reflection =
      designer.design_reflection(testbed.to_room({1.5, 0.0, 1.5}));
  EXPECT_TRUE(reflection.awv.empty());
}

class GroupSizeSweep : public ::testing::TestWithParam<int> {};

TEST_P(GroupSizeSweep, MinMemberRssFallsWithGroupSize) {
  // Fig. 3b's qualitative shape: bigger groups -> worse common RSS.
  Fixture f;
  auto group_rss = [&](int k) {
    std::vector<geo::Vec3> positions;
    for (int i = 0; i < k; ++i) {
      const double angle = -0.9 + 1.8 * i / std::max(k - 1, 1);
      positions.push_back(f.seat(angle, 2.2));
    }
    return multicast(f.designer, positions).min_member_rss_dbm;
  };
  EXPECT_LE(group_rss(GetParam()), group_rss(1) + 1.0);
}

INSTANTIATE_TEST_SUITE_P(Sizes, GroupSizeSweep, ::testing::Values(2, 3, 4));

}  // namespace
}  // namespace volcast::core
