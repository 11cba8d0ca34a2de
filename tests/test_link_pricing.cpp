// Properties of the link table's cheap pricing paths, each against the one
// exact summation, LinkTable::rss:
//  - a price reused from a row's memo (sector_rss, steered_rss, named_rss)
//    is the double a fresh rss() returns, for masks that differ only on
//    bodies outside the row's loss list and for masks that differ inside it;
//  - rss_above(w, rx, mask, T) == (rss(w, rx, mask) > T) for thresholds at
//    the exact value, one ulp and a relative 1e-9 either side, below the
//    -200 dBm floor, and NaN;
//  - SegmentReach never screens out a body whose segment_loss_db is
//    non-zero, grazing the clearance included.
// Every comparison of doubles is bit for bit.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "common/rng.h"
#include "common/units.h"
#include "mmwave/beam_design.h"
#include "mmwave/channel.h"
#include "mmwave/codebook.h"
#include "mmwave/link.h"
#include "obs/metrics.h"

namespace volcast {
namespace {

using mmwave::Awv;
using mmwave::Complex;

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
constexpr double kInf = std::numeric_limits<double>::infinity();

bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

geo::Vec3 random_point(Rng& rng, const mmwave::Room& room) {
  return {rng.uniform(0.2, room.width_m - 0.2),
          rng.uniform(0.2, room.length_m - 0.2), rng.uniform(0.3, 2.0)};
}

/// Reflection order 0 is a room without reflections.
mmwave::Room room_of_order(int order) {
  mmwave::Room room;
  room.enable_reflections = order > 0;
  room.max_reflection_order = std::max(order, 1);
  return room;
}

/// One AP, five receivers, and bodies crowding the transmitter-receiver
/// lines, so that most rows list several loss bodies.
struct Scene {
  mmwave::Channel channel;
  mmwave::PhasedArray ap;
  mmwave::Codebook codebook;
  mmwave::LinkBudget budget;
  mmwave::BlockageModel blockage;
  std::vector<geo::Vec3> receivers;
  std::vector<geo::BodyObstacle> bodies;

  Scene(Rng& rng, int reflection_order)
      : channel(room_of_order(reflection_order)),
        ap({},
           geo::Pose::look_at(
               {rng.uniform(1.0, 7.0), 0.1, rng.uniform(1.0, 2.6)},
               {4, 3, 1.2}),
           kMmWaveCarrierHz),
        codebook(ap) {
    budget.tx_power_dbm = rng.uniform(0.0, 10.0);
    blockage.max_loss_db = rng.uniform(5.0, 30.0);
    blockage.clearance_m = rng.uniform(0.2, 0.6);
    for (int r = 0; r < 5; ++r)
      receivers.push_back(random_point(rng, channel.room()));
    for (std::size_t k = 0; k < 12; ++k) {
      const geo::Vec3& rx = receivers[k % receivers.size()];
      const geo::Vec3 jitter{rng.uniform(-0.4, 0.4), rng.uniform(-0.4, 0.4),
                             0.0};
      geo::BodyObstacle body;
      body.position = rng.chance(0.3)
                          ? random_point(rng, channel.room())
                          : ap.pose().position +
                                (rx - ap.pose().position) *
                                    rng.uniform(0.2, 0.95) +
                                jitter;
      bodies.push_back(body);
    }
  }

  [[nodiscard]] mmwave::LinkTable table(
      mmwave::LinkCounters counters = {}) const {
    return mmwave::LinkTable(ap, channel, budget, blockage, receivers, bodies,
                             &codebook, counters);
  }

  /// rss() from a table that has priced nothing yet.
  [[nodiscard]] double fresh_rss(const Awv& w, std::size_t rx,
                                 const std::vector<std::uint8_t>& mask) const {
    mmwave::LinkTable fresh = table();
    return fresh.rss(w, rx, mask);
  }

  /// The bodies with a non-zero loss on some segment of some path toward
  /// receiver rx: the bodies its row's loss list names.
  [[nodiscard]] std::vector<std::size_t> listed_bodies(std::size_t rx) const {
    std::vector<bool> listed(bodies.size(), false);
    std::vector<mmwave::TracedPath> traced_paths;
    channel.trace(ap.pose().position, receivers[rx], traced_paths);
    for (const mmwave::TracedPath& traced : traced_paths)
      for (std::size_t s = 0; s < traced.segment_count(); ++s)
        for (std::size_t k = 0; k < bodies.size(); ++k)
          if (blockage.segment_loss_db(traced.vertices[s],
                                       traced.vertices[s + 1],
                                       bodies[k]) != 0.0)
            listed[k] = true;
    std::vector<std::size_t> out;
    for (std::size_t k = 0; k < listed.size(); ++k)
      if (listed[k]) out.push_back(k);
    return out;
  }
};

std::vector<std::uint8_t> random_mask(Rng& rng, std::size_t n) {
  std::vector<std::uint8_t> mask(n);
  for (std::uint8_t& m : mask) m = rng.chance(0.5) ? 1 : 0;
  return mask;
}

std::size_t pick(Rng& rng, std::size_t n) {
  return static_cast<std::size_t>(
      rng.uniform_int(0, static_cast<std::int64_t>(n) - 1));
}

// ------------------------------------------------------------- price reuse

class LinkPricingReuse : public ::testing::TestWithParam<int> {};

TEST_P(LinkPricingReuse, ReusedPriceEqualsFreshRss) {
  Rng rng(static_cast<std::uint64_t>(500 + GetParam()));
  std::size_t reused_off_list = 0;
  std::size_t moved_on_list = 0;
  for (int trial = 0; trial < 30; ++trial) {
    const Scene scene(rng, GetParam());
    obs::MetricRegistry metrics;
    obs::Counter& reused = metrics.counter("mmwave.rss_reused");
    mmwave::LinkTable table = scene.table({nullptr, &reused, nullptr});
    const std::size_t name = table.name_beam();
    const Awv named = scene.ap.steer_at(random_point(rng, scene.channel.room()));
    for (int probe = 0; probe < 30; ++probe) {
      const std::size_t rx = pick(rng, scene.receivers.size());
      const auto kind = rng.uniform_int(0, 2);
      const std::size_t sector = pick(rng, scene.codebook.size());
      const Awv& w = kind == 0   ? scene.codebook.beam(sector)
                     : kind == 1 ? table.steered(rx)
                                 : named;
      const auto price = [&](const std::vector<std::uint8_t>& mask) {
        if (kind == 0) return table.sector_rss(sector, rx, mask);
        if (kind == 1) return table.steered_rss(rx, mask);
        return table.named_rss(name, named, rx, mask);
      };
      const std::vector<std::size_t> listed = scene.listed_bodies(rx);
      std::vector<std::uint8_t> first = random_mask(rng, scene.bodies.size());
      // The same visible bodies: flip only bodies off the loss list.
      std::vector<std::uint8_t> off_list = first;
      for (std::size_t k = 0; k < off_list.size(); ++k)
        if (std::find(listed.begin(), listed.end(), k) == listed.end() &&
            rng.chance(0.5))
          off_list[k] ^= 1;
      // Different visible bodies: flip one listed body, when there is one.
      std::vector<std::uint8_t> on_list = first;
      if (!listed.empty()) on_list[listed[pick(rng, listed.size())]] ^= 1;

      for (const std::vector<std::uint8_t>* mask :
           {&first, &off_list, &on_list}) {
        const std::uint64_t reused_before = reused.value();
        const double memo = price(*mask);
        ASSERT_TRUE(same_bits(memo, scene.fresh_rss(w, rx, *mask)))
            << "trial " << trial << " probe " << probe << " kind " << kind;
        ASSERT_TRUE(same_bits(memo, table.rss(w, rx, *mask)));
        if (mask == &off_list && reused.value() > reused_before)
          ++reused_off_list;
      }
      if (!same_bits(scene.fresh_rss(w, rx, first),
                     scene.fresh_rss(w, rx, on_list)))
        ++moved_on_list;
    }
  }
  // Both cases occurred: masks that differ off the list were answered from
  // the memo, and flipping a listed body moved the price.
  EXPECT_GT(reused_off_list, 200u);
  EXPECT_GT(moved_on_list, 200u);
}

INSTANTIATE_TEST_SUITE_P(ReflectionOrder, LinkPricingReuse,
                         ::testing::Values(0, 1, 2));

TEST(LinkPricingReuse, CountsExactEvaluationsOnly) {
  Rng rng(17);
  const Scene scene(rng, 1);
  obs::MetricRegistry metrics;
  obs::Counter& evals = metrics.counter("mmwave.rss_evals");
  obs::Counter& reused = metrics.counter("mmwave.rss_reused");
  mmwave::LinkTable table = scene.table({nullptr, &reused, nullptr});
  const std::vector<std::uint8_t> mask(scene.bodies.size(), 1);
  const double first = table.sector_rss(3, 0, mask, &evals);
  const double again = table.sector_rss(3, 0, mask, &evals);
  EXPECT_TRUE(same_bits(first, again));
  (void)table.steered_rss(0, mask, &evals);
  (void)table.steered_rss(0, mask, &evals);
  EXPECT_EQ(evals.value(), 2u);
  EXPECT_EQ(table.evaluations(), 2u);
  EXPECT_EQ(reused.value(), 2u);
  // Names are distinct from each other and from every sector.
  const std::size_t a = table.name_beam();
  const std::size_t b = table.name_beam();
  EXPECT_NE(a, b);
  EXPECT_GE(std::min(a, b), scene.codebook.size());
}

TEST(LinkPricingReuse, RowWithTooManyLossBodiesPricesEveryCall) {
  // A key has 64 bits. A row whose loss list names more bodies has no key:
  // its memo and its threshold screen stand aside and rss() prices every
  // call.
  Rng rng(19);
  Scene scene(rng, 0);
  const geo::Vec3 tx = scene.ap.pose().position;
  const geo::Vec3 rx = scene.receivers[0];
  scene.bodies.clear();
  for (int k = 0; k < 80; ++k)
    scene.bodies.push_back(
        {tx + (rx - tx) * rng.uniform(0.05, 0.95), 0.25, 3.0});
  ASSERT_GT(scene.listed_bodies(0).size(), 64u);
  mmwave::LinkTable table = scene.table();
  const std::vector<std::uint8_t> mask(scene.bodies.size(), 1);
  const double r = scene.fresh_rss(table.steered(0), 0, mask);
  EXPECT_TRUE(same_bits(table.steered_rss(0, mask), r));
  EXPECT_TRUE(same_bits(table.steered_rss(0, mask), r));
  EXPECT_EQ(table.evaluations(), 2u);
  EXPECT_EQ(table.rss_above(table.steered(0), 0, mask, r - 1.0), true);
  EXPECT_EQ(table.evaluations(), 3u);
}

// ----------------------------------------------------------- probe screen

/// Beams of every shape the designs price, plus the degenerate ones: a
/// zero AWV (every gain below the 1e-12 floor), an unnormalized one, and
/// one with the wrong length.
Awv probe_beam(Rng& rng, const Scene& scene) {
  const mmwave::Room& room = scene.channel.room();
  switch (rng.uniform_int(0, 5)) {
    case 0:
      return scene.ap.steer_at(random_point(rng, room));
    case 1:
      return scene.codebook.beam(pick(rng, scene.codebook.size()));
    case 2: {
      const Awv first = scene.ap.steer_at(random_point(rng, room));
      const Awv second = scene.ap.steer_at(random_point(rng, room));
      const Awv* beams[] = {&first, &second};
      const double rss[] = {rng.uniform(1e-9, 1e-5), rng.uniform(1e-9, 1e-5)};
      Awv combined;
      mmwave::combine_awvs(beams, rss, combined);
      return combined;
    }
    case 3: {
      Awv w(scene.ap.element_count());
      for (Complex& c : w) c = {rng.uniform(-1, 1), rng.uniform(-1, 1)};
      return w;
    }
    case 4:
      return Awv(scene.ap.element_count(), Complex{0.0, 0.0});
    default:
      return Awv(3, Complex{1.0, 0.0});
  }
}

std::vector<double> thresholds_around(double r) {
  return {r,
          std::nextafter(r, kInf),
          std::nextafter(r, -kInf),
          r * (1.0 + 1e-9),
          r * (1.0 - 1e-9),
          r + 3.0,
          r - 3.0,
          -55.0,
          -200.0,
          std::nextafter(-200.0, kInf),
          -250.0,
          -kInf,
          kInf,
          kNaN};
}

class LinkPricingProbe : public ::testing::TestWithParam<int> {};

TEST_P(LinkPricingProbe, DecidesLikeTheExactComparison) {
  Rng rng(static_cast<std::uint64_t>(900 + GetParam()));
  obs::MetricRegistry metrics;
  obs::Counter& screened = metrics.counter("mmwave.rss_screened");
  std::size_t exact = 0;
  for (int trial = 0; trial < 30; ++trial) {
    const Scene scene(rng, GetParam());
    mmwave::LinkTable table = scene.table({nullptr, nullptr, &screened});
    for (int probe = 0; probe < 20; ++probe) {
      const std::size_t rx = pick(rng, scene.receivers.size());
      const Awv w = probe_beam(rng, scene);
      const std::vector<std::uint8_t> mask =
          random_mask(rng, scene.bodies.size());
      const double r = scene.fresh_rss(w, rx, mask);
      for (const double t : thresholds_around(r)) {
        const std::size_t evals_before = table.evaluations();
        ASSERT_EQ(table.rss_above(w, rx, mask, t), r > t)
            << "trial " << trial << " probe " << probe << " rss " << r
            << " threshold " << t;
        exact += table.evaluations() - evals_before;
      }
    }
  }
  // Both paths ran: most tests were screened, the ones at the exact value
  // and within the pad fell back to rss().
  EXPECT_GT(screened.value(), 2000u);
  EXPECT_GT(exact, 500u);
}

INSTANTIATE_TEST_SUITE_P(ReflectionOrder, LinkPricingProbe,
                         ::testing::Values(0, 1, 2));

TEST(LinkPricingProbe, FloorRowDecidesLikeTheExactComparison) {
  // A budget so low that every path's power underflows: the sum is 0 and
  // rss() reports the -200 dBm floor.
  Rng rng(29);
  Scene scene(rng, 1);
  scene.budget.tx_power_dbm = -1e4;
  mmwave::LinkTable table = scene.table();
  const std::vector<std::uint8_t> mask(scene.bodies.size(), 1);
  const Awv w = scene.ap.steer_at(scene.receivers[0]);
  const double r = scene.fresh_rss(w, 0, mask);
  ASSERT_EQ(r, -200.0);
  for (const double t : thresholds_around(r))
    EXPECT_EQ(table.rss_above(w, 0, mask, t), r > t) << "threshold " << t;
}

TEST(LinkPricingProbe, CountsScreenedAndFallbacks) {
  Rng rng(31);
  const Scene scene(rng, 1);
  obs::MetricRegistry metrics;
  obs::Counter& evals = metrics.counter("mmwave.rss_evals");
  obs::Counter& screened = metrics.counter("mmwave.rss_screened");
  mmwave::LinkTable table = scene.table({nullptr, nullptr, &screened});
  const std::vector<std::uint8_t> mask(scene.bodies.size(), 0);
  const Awv w = scene.ap.steer_at(scene.receivers[1]);
  const double r = scene.fresh_rss(w, 1, mask);
  EXPECT_TRUE(table.rss_above(w, 1, mask, r - 1.0, &evals));
  EXPECT_FALSE(table.rss_above(w, 1, mask, r + 1.0, &evals));
  EXPECT_EQ(screened.value(), 2u);
  EXPECT_EQ(evals.value(), 0u);
  EXPECT_FALSE(table.rss_above(w, 1, mask, r, &evals));  // inside the pad
  EXPECT_EQ(evals.value(), 1u);
  EXPECT_EQ(screened.value(), 2u);
  const std::vector<std::uint8_t> wrong_size;
  EXPECT_THROW((void)table.rss_above(w, 1, wrong_size, -55.0),
               std::invalid_argument);
}

// ------------------------------------------------------------- body skip

/// A unit vector in the XY plane.
geo::Vec3 unit_xy(double angle) { return {std::cos(angle), std::sin(angle), 0.0}; }

TEST(SegmentReach, NeverScreensOutAShadowingBody) {
  Rng rng(41);
  std::size_t grazing_losses = 0;
  std::size_t screened_out = 0;
  const auto check = [&](const geo::Vec3& a, const geo::Vec3& b,
                         const mmwave::BlockageModel& model,
                         const geo::Vec3& center) {
    const geo::BodyObstacle body{center, 0.25, 1.8};
    const mmwave::SegmentReach reach(a, b, model.clearance_m);
    const double loss = model.segment_loss_db(a, b, body);
    if (reach.out_of_reach(center)) {
      ++screened_out;
      ASSERT_TRUE(same_bits(loss, 0.0))
          << "a (" << a.x << ", " << a.y << ") b (" << b.x << ", " << b.y
          << ") center (" << center.x << ", " << center.y << ") loss " << loss;
    } else if (loss != 0.0 && loss < 1e-6) {
      ++grazing_losses;
    }
  };
  for (int trial = 0; trial < 4000; ++trial) {
    mmwave::BlockageModel model;
    model.clearance_m = rng.uniform(0.05, 0.8);
    const geo::Vec3 a{rng.uniform(-1.0, 9.0), rng.uniform(-1.0, 7.0),
                      rng.uniform(0.2, 1.6)};
    geo::Vec3 b;
    switch (trial % 5) {
      case 0:
        b = a;  // zero length
        break;
      case 1:
        b = {a.x, a.y, a.z + rng.uniform(0.1, 1.0)};  // vertical
        break;
      case 2:  // axis-aligned
        b = trial % 2 == 0 ? geo::Vec3{a.x + rng.uniform(-6, 6), a.y, a.z}
                           : geo::Vec3{a.x, a.y + rng.uniform(-6, 6), a.z};
        break;
      default:
        b = {rng.uniform(-1.0, 9.0), rng.uniform(-1.0, 7.0),
             rng.uniform(0.2, 1.6)};
        break;
    }
    const geo::Vec3 ab{b.x - a.x, b.y - a.y, 0.0};
    const double len = std::sqrt(ab.x * ab.x + ab.y * ab.y);
    const geo::Vec3 along = len > 0.0 ? ab * (1.0 / len)
                                      : unit_xy(rng.uniform(0, 6.3));
    const geo::Vec3 normal{-along.y, along.x, 0.0};
    // Grazing: at the clearance, a few ulps either side, from the interior
    // (perpendicular) and from beyond either endpoint (along the axis and
    // obliquely).
    for (int ulps = -6; ulps <= 6; ++ulps) {
      const double d =
          model.clearance_m * (1.0 + ulps * std::numeric_limits<double>::epsilon());
      const double t = rng.uniform(0.0, 1.0);
      const geo::Vec3 on{a.x + t * ab.x, a.y + t * ab.y, 0.0};
      const double side = rng.chance(0.5) ? 1.0 : -1.0;
      check(a, b, model, on + normal * (side * d));
      check(a, b, model, b + along * d);
      check(a, b, model, a - along * d);
      check(a, b, model, b + unit_xy(rng.uniform(0, 6.3)) * d);
      check(a, b, model, a + unit_xy(rng.uniform(0, 6.3)) * d);
    }
    // Bodies at either endpoint, near, and far away.
    check(a, b, model, a);
    check(a, b, model, b);
    check(a, b, model,
          a + unit_xy(rng.uniform(0, 6.3)) * rng.uniform(0.0, 2.0));
    check(a, b, model,
          a + unit_xy(rng.uniform(0, 6.3)) * rng.uniform(2.0, 20.0));
    // NaN and out-of-guard positions are never screened out.
    check(a, b, model, {kNaN, a.y, 0.0});
    check(a, b, model, {a.x, kNaN, 0.0});
    check(a, b, model, {kInf, a.y, 0.0});
    check(a, b, model, {2e4, a.y, 0.0});
  }
  EXPECT_GT(screened_out, 4000u);  // far bodies, mostly
  EXPECT_GT(grazing_losses, 100u);
}

TEST(SegmentReach, ScreensNothingOutsideItsGuard) {
  const geo::Vec3 far{50.0, 50.0, 0.0};
  // A NaN or out-of-range endpoint, or an unusable clearance, disables it.
  EXPECT_FALSE(mmwave::SegmentReach({kNaN, 0, 1}, {1, 0, 1}, 0.35)
                   .out_of_reach(far));
  EXPECT_FALSE(mmwave::SegmentReach({0, 0, 1}, {2e4, 0, 1}, 0.35)
                   .out_of_reach(far));
  EXPECT_FALSE(mmwave::SegmentReach({0, 0, 1}, {1, 0, 1}, kNaN)
                   .out_of_reach(far));
  EXPECT_FALSE(mmwave::SegmentReach({0, 0, 1}, {1, 0, 1}, -1.0)
                   .out_of_reach(far));
  EXPECT_TRUE(mmwave::SegmentReach({0, 0, 1}, {1, 0, 1}, 0.35)
                  .out_of_reach(far));
  // A NaN clearance makes segment_loss_db NaN for a near body: kept.
  mmwave::BlockageModel nan_model;
  nan_model.clearance_m = kNaN;
  const geo::BodyObstacle near{{0.5, 0.1, 0}, 0.25, 1.8};
  EXPECT_TRUE(std::isnan(
      nan_model.segment_loss_db({0, 0, 1}, {1, 0, 1}, near)));
  EXPECT_FALSE(mmwave::SegmentReach({0, 0, 1}, {1, 0, 1}, kNaN)
                   .out_of_reach(near.position));
}

// ------------------------------------------------- line-of-sight response

TEST(LinkPricingSteering, ResponseTowardReceiverEqualsTheArrays) {
  // steering(rx) copies the line-of-sight lane when the two array-frame
  // directions are equal bit for bit; either way it is the array's own
  // response toward the receiver.
  Rng rng(53);
  std::size_t copied = 0;
  for (int trial = 0; trial < 200; ++trial) {
    const Scene scene(rng, trial % 3);
    mmwave::LinkTable table = scene.table();
    for (std::size_t rx = 0; rx < scene.receivers.size(); ++rx) {
      const geo::Vec3 toward = scene.receivers[rx] - scene.ap.pose().position;
      const mmwave::Steering want = scene.ap.steering(toward);
      const mmwave::Steering& got = table.steering(rx);
      ASSERT_EQ(got.phasors.size(), want.phasors.size());
      for (std::size_t i = 0; i < want.phasors.size(); ++i) {
        ASSERT_TRUE(same_bits(got.phasors[i].real(), want.phasors[i].real()));
        ASSERT_TRUE(same_bits(got.phasors[i].imag(), want.phasors[i].imag()));
      }
      ASSERT_TRUE(same_bits(got.element_gain, want.element_gain));
      const geo::Vec3 los = scene.ap.local_direction(toward.normalized());
      const geo::Vec3 direct = scene.ap.local_direction(toward);
      if (same_bits(los.x, direct.x) && same_bits(los.y, direct.y) &&
          same_bits(los.z, direct.z))
        ++copied;
    }
  }
  EXPECT_GT(copied, 100u);
}

}  // namespace
}  // namespace volcast
