// A LinkTable rebound to new receivers and bodies prices exactly like a
// fresh table over them. One table is carried through a seeded sequence of
// receiver and body sets, and at each step a fresh table over the same
// spans runs the same script of calls: rss, sector_rss, steered_rss,
// named_rss, rss_above, rss_upper_bound, reflection_beams, the sector
// picks, steering and steered. Every answer, rows_built() and
// evaluations() must agree bit for bit. The sequence includes a row whose
// loss list names more than 64 bodies (no memo) followed by rows with few
// paths and losses, so a rebuilt row reuses storage larger than it needs.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "common/rng.h"
#include "common/units.h"
#include "mmwave/beam_design.h"
#include "mmwave/channel.h"
#include "mmwave/codebook.h"
#include "mmwave/link.h"

namespace volcast {
namespace {

using mmwave::Awv;

bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

bool same_bits(std::span<const mmwave::Complex> a,
               std::span<const mmwave::Complex> b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i)
    if (!same_bits(a[i].real(), b[i].real()) ||
        !same_bits(a[i].imag(), b[i].imag()))
      return false;
  return true;
}

geo::Vec3 random_point(Rng& rng, const mmwave::Room& room) {
  return {rng.uniform(0.2, room.width_m - 0.2),
          rng.uniform(0.2, room.length_m - 0.2), rng.uniform(0.3, 2.0)};
}

std::size_t pick(Rng& rng, std::size_t n) {
  return static_cast<std::size_t>(
      rng.uniform_int(0, static_cast<std::int64_t>(n) - 1));
}

/// One step of the sequence: its receivers and bodies.
struct Step {
  std::vector<geo::Vec3> receivers;
  std::vector<geo::BodyObstacle> bodies;
};

/// Step `s` of a seeded sequence. Step 2 crowds receiver 0's line of sight
/// with 80 bodies; step 3 keeps one far body and a single receiver on the
/// floor, where the floor bounce and every path through it vanish.
Step make_step(Rng& rng, const mmwave::Room& room, const geo::Vec3& tx,
               int s) {
  Step step;
  if (s == 3) {
    geo::Vec3 on_floor = random_point(rng, room);
    on_floor.z = 0.0;
    step.receivers.push_back(on_floor);
    step.bodies.push_back({{0.3, 0.3, 0.0}, 0.25, 1.8});
    return step;
  }
  const auto receivers = static_cast<std::size_t>(rng.uniform_int(1, 7));
  for (std::size_t r = 0; r < receivers; ++r)
    step.receivers.push_back(random_point(rng, room));
  if (s == 2) {
    const geo::Vec3 rx = step.receivers[0];
    for (int k = 0; k < 80; ++k)
      step.bodies.push_back(
          {tx + (rx - tx) * rng.uniform(0.05, 0.95), 0.25, 3.0});
    return step;
  }
  const auto bodies = static_cast<std::size_t>(rng.uniform_int(0, 14));
  for (std::size_t k = 0; k < bodies; ++k) {
    const geo::Vec3& rx = step.receivers[k % receivers];
    geo::BodyObstacle body;
    body.position = rng.chance(0.3)
                        ? random_point(rng, room)
                        : tx + (rx - tx) * rng.uniform(0.2, 0.95) +
                              geo::Vec3{rng.uniform(-0.4, 0.4),
                                        rng.uniform(-0.4, 0.4), 0.0};
    step.bodies.push_back(body);
  }
  return step;
}

/// Runs one seeded script of calls on both tables and expects the same
/// answers and the same work counts after every call.
void expect_same_pricing(Rng& rng, const Step& step,
                         const mmwave::Codebook& codebook,
                         const mmwave::PhasedArray& ap,
                         mmwave::LinkTable& rebound,
                         mmwave::LinkTable& fresh, int s) {
  const std::size_t n = step.receivers.size();
  const std::size_t a = rebound.name_beam();
  ASSERT_EQ(a, fresh.name_beam()) << "step " << s;
  const Awv named = ap.steer_at(random_point(rng, mmwave::Room{}));
  for (int call = 0; call < 60; ++call) {
    const std::size_t rx = pick(rng, n);
    std::vector<std::uint8_t> mask(step.bodies.size());
    for (std::uint8_t& m : mask) m = rng.chance(0.7) ? 1 : 0;
    const auto kind = rng.uniform_int(0, 10);
    const std::size_t sector = pick(rng, codebook.size());
    const Awv& beam = codebook.beam(sector);
    switch (kind) {
      case 0:
        ASSERT_TRUE(same_bits(rebound.rss(beam, rx, mask),
                              fresh.rss(beam, rx, mask)));
        break;
      case 1:
        ASSERT_TRUE(same_bits(rebound.sector_rss(sector, rx, mask),
                              fresh.sector_rss(sector, rx, mask)));
        break;
      case 2:
        ASSERT_TRUE(same_bits(rebound.steered_rss(rx, mask),
                              fresh.steered_rss(rx, mask)));
        break;
      case 3:
        ASSERT_TRUE(same_bits(rebound.named_rss(a, named, rx, mask),
                              fresh.named_rss(a, named, rx, mask)));
        break;
      case 4: {
        const double t = rng.uniform(-90.0, -40.0);
        ASSERT_EQ(rebound.rss_above(named, rx, mask, t),
                  fresh.rss_above(named, rx, mask, t));
        break;
      }
      case 5:
        ASSERT_TRUE(same_bits(rebound.rss_upper_bound(rx, mask),
                              fresh.rss_upper_bound(rx, mask)));
        break;
      case 6: {
        const std::span<const Awv> got = rebound.reflection_beams(rx);
        const std::span<const Awv> want = fresh.reflection_beams(rx);
        ASSERT_EQ(got.size(), want.size());
        for (std::size_t b = 0; b < got.size(); ++b)
          ASSERT_TRUE(same_bits(got[b], want[b]));
        break;
      }
      case 7:
        ASSERT_EQ(rebound.best_sector(rx), fresh.best_sector(rx));
        break;
      case 8: {
        std::vector<std::size_t> rxs;
        for (std::size_t r = 0; r < n; ++r)
          if (rng.chance(0.6)) rxs.push_back(r);
        ASSERT_EQ(rebound.best_common_sector(rxs),
                  fresh.best_common_sector(rxs));
        break;
      }
      case 9: {
        const mmwave::Steering& got = rebound.steering(rx);
        const mmwave::Steering& want = fresh.steering(rx);
        ASSERT_TRUE(same_bits(got.phasors, want.phasors));
        ASSERT_TRUE(same_bits(got.element_gain, want.element_gain));
        break;
      }
      default:
        ASSERT_TRUE(same_bits(rebound.steered(rx), fresh.steered(rx)));
        break;
    }
    ASSERT_EQ(rebound.rows_built(), fresh.rows_built())
        << "step " << s << " call " << call;
    ASSERT_EQ(rebound.evaluations(), fresh.evaluations())
        << "step " << s << " call " << call;
  }
}

class LinkRebind : public ::testing::TestWithParam<int> {};

TEST_P(LinkRebind, ReboundTableEqualsAFreshOne) {
  mmwave::Room room;
  room.enable_reflections = GetParam() > 0;
  room.max_reflection_order = std::max(GetParam(), 1);
  const mmwave::Channel channel(room);
  Rng rng(static_cast<std::uint64_t>(7100 + GetParam()));
  const mmwave::PhasedArray ap(
      {}, geo::Pose::look_at({4.0, 0.1, 2.4}, {4, 3, 1.2}), kMmWaveCarrierHz);
  const mmwave::Codebook codebook(ap);
  const mmwave::LinkBudget budget;
  const mmwave::BlockageModel blockage;

  std::vector<Step> kept;  // every step's vectors stay alive
  std::optional<mmwave::LinkTable> rebound;
  std::size_t crowded_rows = 0;
  std::size_t crowded_bounces = 0;
  for (int s = 0; s < 12; ++s) {
    kept.push_back(make_step(rng, room, ap.pose().position, s));
    const Step& step = kept.back();
    if (!rebound.has_value())
      rebound.emplace(ap, channel, budget, blockage, step.receivers,
                      step.bodies, &codebook);
    else
      rebound->rebind(step.receivers, step.bodies);
    EXPECT_EQ(rebound->rows_built(), 0u);
    EXPECT_EQ(rebound->evaluations(), 0u);
    mmwave::LinkTable fresh(ap, channel, budget, blockage, step.receivers,
                            step.bodies, &codebook);

    if (s == 2) {
      // Receiver 0's row lists more than 64 bodies: no memo, so every
      // steered price is an exact evaluation in both tables.
      const std::vector<std::uint8_t> all(step.bodies.size(), 1);
      for (int repeat = 0; repeat < 2; ++repeat)
        ASSERT_TRUE(same_bits(rebound->steered_rss(0, all),
                              fresh.steered_rss(0, all)));
      EXPECT_EQ(rebound->evaluations(), 2u);
      EXPECT_EQ(fresh.evaluations(), 2u);
      ++crowded_rows;
    }
    if (s == 3 && GetParam() > 0) {
      // Row 0 is rebuilt with fewer paths (and one loss at most) into the
      // storage the crowded row grew.
      EXPECT_LT(rebound->reflection_beams(0).size(), crowded_bounces);
    }
    expect_same_pricing(rng, step, codebook, ap, *rebound, fresh, s);
    if (s == 2) crowded_bounces = rebound->reflection_beams(0).size();
  }
  EXPECT_EQ(crowded_rows, 1u);
}

INSTANTIATE_TEST_SUITE_P(ReflectionOrder, LinkRebind,
                         ::testing::Values(0, 1, 2));

}  // namespace
}  // namespace volcast
