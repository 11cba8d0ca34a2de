// Cross-cutting physical-layer property tests: invariants that must hold
// over swept geometries and budgets, tying phased array, codebook, channel
// and MCS together.
#include <gtest/gtest.h>

#include <cmath>

#include "common/rng.h"
#include "common/units.h"
#include "mmwave/beam_design.h"
#include "mmwave/link.h"

namespace volcast::mmwave {
namespace {

struct Rig {
  Channel channel{Room{}};
  geo::Pose ap_pose = geo::Pose::look_at({4, 0.1, 2.6}, {4, 3, 1.2});
  PhasedArray ap{{}, ap_pose, kMmWaveCarrierHz};
  Codebook codebook{ap};
  LinkBudget budget{};
};

class RadioSeatSweep : public ::testing::TestWithParam<double> {};

TEST_P(RadioSeatSweep, SteeredBeamBeatsEveryStockSector) {
  // The full-aperture steered beam is at least as good as any stock sector
  // at every audience seat (custom unicast beams can only help).
  Rig rig;
  const double angle = GetParam();
  const geo::Vec3 seat{4.0 + 2.0 * std::cos(angle),
                       3.0 + 2.0 * std::sin(angle), 1.5};
  const double steered =
      rss_dbm(rig.ap, rig.ap.steer_at(seat), rig.channel, seat, {},
              rig.budget);
  const double stock = best_beam_rss_dbm(rig.ap, rig.codebook, rig.channel,
                                         seat, {}, rig.budget);
  EXPECT_GE(steered, stock - 0.5) << "seat angle " << angle;
}

TEST_P(RadioSeatSweep, TwoLobeBeamWithinPowerBudget) {
  // Energy conservation: a two-lobe beam cannot deliver more total gain
  // toward its two users than two dedicated beams would (power is split).
  Rig rig;
  const double angle = GetParam();
  const geo::Vec3 u1{4.0 + 2.0 * std::cos(angle), 3.0 + 2.0 * std::sin(angle),
                     1.5};
  const geo::Vec3 u2{4.0 - 1.5 * std::cos(angle), 3.0 + 1.5 * std::sin(angle),
                     1.5};
  const Awv b1 = rig.ap.steer_at(u1);
  const Awv b2 = rig.ap.steer_at(u2);
  const Awv* beams[] = {&b1, &b2};
  const double rss_mw[] = {1e-6, 1e-6};
  Awv combined;
  combine_awvs(beams, rss_mw, combined);
  const double g1 = rig.ap.gain(combined, u1 - rig.ap.pose().position);
  const double g2 = rig.ap.gain(combined, u2 - rig.ap.pose().position);
  const double solo1 = rig.ap.gain(b1, u1 - rig.ap.pose().position);
  const double solo2 = rig.ap.gain(b2, u2 - rig.ap.pose().position);
  EXPECT_LE(g1 + g2, solo1 + solo2 + 1e-6);
}

INSTANTIATE_TEST_SUITE_P(Angles, RadioSeatSweep,
                         ::testing::Values(0.3, 0.9, 1.6, 2.2, 2.8));

class BlockerPositionSweep : public ::testing::TestWithParam<double> {};

TEST_P(BlockerPositionSweep, BlockageNeverIncreasesRss) {
  // Adding a body anywhere can only remove energy.
  Rig rig;
  const geo::Vec3 user{4.0, 4.5, 1.5};
  const Awv beam = rig.ap.steer_at(user);
  const double clear =
      rss_dbm(rig.ap, beam, rig.channel, user, {}, rig.budget);
  const double t = GetParam();
  const geo::Vec3 spot = rig.ap.pose().position * (1.0 - t) + user * t;
  const geo::BodyObstacle body{{spot.x, spot.y, 0.0}, 0.3, 1.9};
  const std::vector<geo::BodyObstacle> bodies{body};
  const double blocked =
      rss_dbm(rig.ap, beam, rig.channel, user, bodies, rig.budget);
  EXPECT_LE(blocked, clear + 1e-9) << "blocker at t=" << t;
}

INSTANTIATE_TEST_SUITE_P(Positions, BlockerPositionSweep,
                         ::testing::Values(0.2, 0.4, 0.6, 0.8, 0.95));

TEST(RadioProperties, GoodputMonotoneInBlockerCount) {
  Rig rig;
  const geo::Vec3 user{4.0, 4.5, 1.5};
  const Awv beam = rig.ap.steer_at(user);
  const McsTable mcs;
  std::vector<geo::BodyObstacle> bodies;
  double last = 1e9;
  Rng rng(3);
  for (int n = 0; n < 5; ++n) {
    const double rss =
        rss_dbm(rig.ap, beam, rig.channel, user, bodies, rig.budget);
    const double goodput = mcs.goodput_mbps(rss);
    EXPECT_LE(goodput, last + 1e-9) << n << " blockers";
    last = goodput;
    const double t = rng.uniform(0.3, 0.9);
    const geo::Vec3 spot = rig.ap.pose().position * (1.0 - t) + user * t;
    bodies.push_back({{spot.x, spot.y, 0.0}, 0.3, 1.9});
  }
}

TEST(RadioProperties, ReciprocityOfPathCount) {
  // Image-method path sets are symmetric in tx/rx.
  Rig rig;
  const geo::Vec3 a{2.0, 1.5, 2.0};
  const geo::Vec3 b{6.0, 4.0, 1.4};
  const auto forward = rig.channel.paths(a, b);
  const auto backward = rig.channel.paths(b, a);
  ASSERT_EQ(forward.size(), backward.size());
  // Total path lengths match as a multiset (sorted comparison).
  std::vector<double> lf, lb;
  for (const auto& p : forward) lf.push_back(p.length_m);
  for (const auto& p : backward) lb.push_back(p.length_m);
  std::sort(lf.begin(), lf.end());
  std::sort(lb.begin(), lb.end());
  for (std::size_t i = 0; i < lf.size(); ++i)
    EXPECT_NEAR(lf[i], lb[i], 1e-9);
}

TEST(RadioProperties, ShadowingDoesNotBiasTheMean) {
  ShadowingProcess p(2.5, 0.5, 1234);
  double sum = 0.0;
  constexpr int kN = 50000;
  for (int i = 0; i < kN; ++i) sum += p.step(0.033);
  EXPECT_NEAR(sum / kN, 0.0, 0.15);
}

TEST(RadioProperties, CodebookCoversTheAudienceArc) {
  // Every plausible seat gets at least the control PHY from some sector.
  Rig rig;
  const McsTable mcs;
  for (double angle = 0.0; angle < 6.28; angle += 0.45) {
    for (double radius : {1.2, 2.0, 2.8}) {
      const geo::Vec3 seat{4.0 + radius * std::cos(angle),
                           3.0 + radius * std::sin(angle), 1.5};
      if (seat.y < 0.3) continue;  // inside the AP wall
      const double rss = best_beam_rss_dbm(rig.ap, rig.codebook, rig.channel,
                                           seat, {}, rig.budget);
      EXPECT_GT(mcs.goodput_mbps(rss), 0.0)
          << "dead spot at angle " << angle << " radius " << radius;
    }
  }
}

}  // namespace
}  // namespace volcast::mmwave
