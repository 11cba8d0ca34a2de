#include "core/multi_ap.h"

#include <gtest/gtest.h>

#include <span>
#include <vector>

#include "ap_tables.h"

namespace volcast::core {
namespace {

MultiApCoordinator make(std::size_t count) {
  MultiApConfig config;
  config.ap_count = count;
  return MultiApCoordinator(TestbedConfig{}, config);
}

TEST(MultiAp, RejectsBadCounts) {
  MultiApConfig zero;
  zero.ap_count = 0;
  EXPECT_THROW(MultiApCoordinator(TestbedConfig{}, zero),
               std::invalid_argument);
  MultiApConfig five;
  five.ap_count = 5;
  EXPECT_THROW(MultiApCoordinator(TestbedConfig{}, five),
               std::invalid_argument);
}

TEST(MultiAp, ApsMountedOnDistinctWalls) {
  const auto coord = make(4);
  EXPECT_EQ(coord.ap_count(), 4u);
  for (std::size_t a = 0; a < 4; ++a)
    for (std::size_t b = a + 1; b < 4; ++b)
      EXPECT_GT(coord.ap(a).ap().pose().position.distance(
                    coord.ap(b).ap().pose().position),
                2.0);
}

TEST(MultiAp, AssignsUsersToNearestStrongAp) {
  const auto coord = make(2);  // front (y=0.1) and back (y=5.9) walls
  const std::vector<geo::Vec3> positions{
      {4.0, 1.2, 1.5},  // near the front wall
      {4.0, 4.8, 1.5},  // near the back wall
  };
  auto tables = ap_tables(coord, positions);
  const auto assignment =
      coord.assign_users(positions.size(), ap_links(tables), {}, {});
  ASSERT_EQ(assignment.size(), 2u);
  EXPECT_EQ(assignment[0], 0u);
  EXPECT_EQ(assignment[1], 1u);
}

TEST(MultiAp, SingleApAssignsEverythingToZero) {
  const auto coord = make(1);
  const std::vector<geo::Vec3> positions{{1, 1, 1.5}, {7, 5, 1.5}};
  auto tables = ap_tables(coord, positions);
  for (auto a : coord.assign_users(positions.size(), ap_links(tables), {}, {}))
    EXPECT_EQ(a, 0u);
}

TEST(MultiAp, NoConcurrentBeamsNoInterference) {
  const auto coord = make(2);
  const std::vector<mmwave::Awv> idle(2);
  const geo::Vec3 victim{4.0, 1.0, 1.5};
  auto tables = ap_tables(coord, std::span(&victim, 1));
  EXPECT_DOUBLE_EQ(
      coord.interference_factor(0, 0, -55.0, idle, ap_links(tables), {}), 1.0);
}

TEST(MultiAp, StrongInterferenceDegradesOrKills) {
  const auto coord = make(2);
  // AP 1 (back wall) beams straight at a victim of AP 0.
  const geo::Vec3 victim{4.0, 3.0, 1.5};
  std::vector<mmwave::Awv> beams(2);
  beams[1] = coord.ap(1).ap().steer_at(victim);
  // Weak desired signal vs a beam pointed right at you: factor < 1.
  auto tables = ap_tables(coord, std::span(&victim, 1));
  const double factor =
      coord.interference_factor(0, 0, -60.0, beams, ap_links(tables), {});
  EXPECT_LT(factor, 1.0);
}

TEST(MultiAp, DirectionalityGivesSpatialReuse) {
  const auto coord = make(2);
  // AP 1 serves a user on the back side; a front-side victim keeps its
  // full rate thanks to directionality.
  const geo::Vec3 victim{4.0, 1.0, 1.5};
  std::vector<mmwave::Awv> beams(2);
  beams[1] = coord.ap(1).ap().steer_at({4.0, 5.0, 1.5});
  auto tables = ap_tables(coord, std::span(&victim, 1));
  const double factor =
      coord.interference_factor(0, 0, -50.0, beams, ap_links(tables), {});
  EXPECT_DOUBLE_EQ(factor, 1.0);
}

TEST(MultiAp, VictimApBeamIgnored) {
  const auto coord = make(2);
  const geo::Vec3 victim{4.0, 1.0, 1.5};
  std::vector<mmwave::Awv> beams(2);
  beams[0] = coord.ap(0).ap().steer_at(victim);  // its own serving beam
  auto tables = ap_tables(coord, std::span(&victim, 1));
  EXPECT_DOUBLE_EQ(
      coord.interference_factor(0, 0, -50.0, beams, ap_links(tables), {}), 1.0);
}

}  // namespace
}  // namespace volcast::core
