// Bit-equality of the per-tick link table against the direct link budget.
//
// LinkTable::rss must return the very double rss_dbm returns for the same
// receiver, AWV and masked body list, and every design priced through a
// table (multicast, unicast, reflection, sector picks from cached gains,
// multi-AP assignment and interference screening) must pick the same beam
// as the design priced with rss_dbm directly. Every comparison is a memcmp
// of the doubles, not a tolerance.
#include "mmwave/link.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <numbers>
#include <span>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/units.h"
#include "core/beam_designer.h"
#include "core/multi_ap.h"
#include "mmwave/beam_design.h"
#include "obs/metrics.h"

namespace volcast {
namespace {

using mmwave::Awv;
using mmwave::Complex;

bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof a) == 0;
}

bool same_bits(const Awv& a, const Awv& b) {
  return a.size() == b.size() &&
         (a.empty() || std::memcmp(a.data(), b.data(),
                                   a.size() * sizeof(Complex)) == 0);
}

geo::Vec3 random_point(Rng& rng, const mmwave::Room& room) {
  return {rng.uniform(0.2, room.width_m - 0.2),
          rng.uniform(0.2, room.length_m - 0.2), rng.uniform(0.3, 2.0)};
}

/// Bodies anywhere in the room, some out of every segment's reach (their
/// loss is exactly zero), and many crowding the receivers and the
/// transmitter-receiver lines, so that one path often loses to several
/// bodies on several of its segments: the case where a wrong summation
/// order shows up in the last bits.
std::vector<geo::BodyObstacle> random_bodies(
    Rng& rng, const mmwave::Room& room, const geo::Vec3& tx,
    const std::vector<geo::Vec3>& receivers) {
  std::vector<geo::BodyObstacle> bodies;
  const auto count = static_cast<std::size_t>(rng.uniform_int(0, 14));
  for (std::size_t k = 0; k < count; ++k) {
    geo::BodyObstacle body;
    const geo::Vec3& rx = receivers[static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(receivers.size()) - 1))];
    const geo::Vec3 jitter{rng.uniform(-0.3, 0.3), rng.uniform(-0.3, 0.3),
                           0.0};
    switch (rng.uniform_int(0, 3)) {
      case 0:
        body.position = random_point(rng, room);
        break;
      case 1:
        body.position = rx + jitter;  // on or beside a receiver
        break;
      default:
        body.position = tx + (rx - tx) * rng.uniform(0.2, 0.95) + jitter;
        break;
    }
    if (rng.chance(0.15)) body.height_m = 0.05;  // under every segment
    bodies.push_back(body);
  }
  return bodies;
}

Awv random_awv(Rng& rng, const mmwave::PhasedArray& ap,
               const mmwave::Codebook& codebook, const mmwave::Room& room) {
  switch (rng.uniform_int(0, 3)) {
    case 0:
      return ap.steer_at(random_point(rng, room));
    case 1:
      return codebook.beam(static_cast<std::size_t>(rng.uniform_int(
          0, static_cast<std::int64_t>(codebook.size()) - 1)));
    case 2: {
      const Awv first = ap.steer_at(random_point(rng, room));
      const Awv second = ap.steer_at(random_point(rng, room));
      const Awv* beams[] = {&first, &second};
      const double rss[] = {rng.uniform(1e-9, 1e-5), rng.uniform(1e-9, 1e-5)};
      Awv combined;
      mmwave::combine_awvs(beams, rss, combined);
      return combined;
    }
    default: {
      Awv w(ap.element_count());
      for (Complex& c : w) c = {rng.uniform(-1, 1), rng.uniform(-1, 1)};
      return w;  // deliberately not power-normalized
    }
  }
}

/// A standing crowd on a grid over the whole room: every segment of every
/// path passes several bodies, so each segment sums many losses.
std::vector<geo::BodyObstacle> crowd(Rng& rng, const mmwave::Room& room) {
  std::vector<geo::BodyObstacle> bodies;
  for (double x = 0.4; x < room.width_m; x += 0.7)
    for (double y = 0.6; y < room.length_m; y += 0.7)
      bodies.push_back({{x + rng.uniform(-0.2, 0.2),
                         y + rng.uniform(-0.2, 0.2), 0.0},
                        0.25,
                        rng.uniform(1.5, 2.0)});
  return bodies;
}

std::vector<geo::BodyObstacle> masked(
    const std::vector<geo::BodyObstacle>& bodies,
    const std::vector<std::uint8_t>& mask) {
  std::vector<geo::BodyObstacle> out;
  for (std::size_t k = 0; k < bodies.size(); ++k)
    if (mask[k] != 0) out.push_back(bodies[k]);
  return out;
}

class LinkTableRss : public ::testing::TestWithParam<int> {};

TEST_P(LinkTableRss, BitEqualToRssDbm) {
  mmwave::Room room;
  room.max_reflection_order = GetParam();
  const mmwave::Channel channel(room);
  Rng rng(static_cast<std::uint64_t>(1000 + GetParam()));
  std::size_t zero_loss_trials = 0;
  for (int trial = 0; trial < 80; ++trial) {
    // A low-mounted AP puts bodies across every segment of most paths.
    const mmwave::PhasedArray ap(
        {},
        geo::Pose::look_at({rng.uniform(1.0, 7.0), 0.1, rng.uniform(1.0, 2.6)},
                           {4, 3, 1.2}),
        kMmWaveCarrierHz);
    const mmwave::Codebook codebook(ap);
    mmwave::LinkBudget budget;
    budget.tx_power_dbm = rng.uniform(0.0, 10.0);
    mmwave::BlockageModel blockage;
    blockage.max_loss_db = rng.uniform(5.0, 30.0);
    blockage.clearance_m = rng.uniform(0.2, 0.6);
    if (trial % 8 == 7) {
      blockage.max_loss_db = 0.0;  // every body loss is exactly zero
      ++zero_loss_trials;
    }
    std::vector<geo::Vec3> receivers;
    for (int r = 0; r < 6; ++r) receivers.push_back(random_point(rng, room));
    const auto bodies =
        trial % 4 == 1
            ? crowd(rng, room)
            : random_bodies(rng, room, ap.pose().position, receivers);
    mmwave::LinkTable table(ap, channel, budget, blockage, receivers, bodies);
    for (int probe = 0; probe < 12; ++probe) {
      const auto rx = static_cast<std::size_t>(rng.uniform_int(0, 5));
      std::vector<std::uint8_t> mask(bodies.size());
      for (auto& bit : mask) bit = rng.chance(0.6) ? 1 : 0;
      Awv w = random_awv(rng, ap, codebook, room);
      std::vector<mmwave::TracedPath> traced;
      channel.trace(ap.pose().position, receivers[rx], traced);
      if (traced.size() > 1 && rng.chance(0.5)) {
        // Aim at a reflection so that a multi-segment path, not the LoS,
        // carries most of the power and decides the last bits.
        w = ap.steer(traced[static_cast<std::size_t>(rng.uniform_int(
                                1, static_cast<std::int64_t>(traced.size()) -
                                       1))]
                         .path.tx_direction);
      }
      const double direct =
          mmwave::rss_dbm(ap, w, channel, receivers[rx], masked(bodies, mask),
                          budget, blockage);
      const double tabled = table.rss(w, rx, mask);
      EXPECT_TRUE(same_bits(direct, tabled))
          << "trial " << trial << " rx " << rx << ": " << direct << " vs "
          << tabled;
    }
  }
  EXPECT_GT(zero_loss_trials, 0u);
}

INSTANTIATE_TEST_SUITE_P(ReflectionOrder, LinkTableRss,
                         ::testing::Values(1, 2));

TEST(LinkTable, BitEqualWithoutReflections) {
  mmwave::Room room;
  room.enable_reflections = false;
  const mmwave::Channel channel(room);
  const mmwave::PhasedArray ap(
      {}, geo::Pose::look_at({4, 0.1, 2.6}, {4, 3, 1.2}), kMmWaveCarrierHz);
  const std::vector<geo::Vec3> receivers = {{4, 3, 1.5}, {2, 4, 1.2}};
  const std::vector<geo::BodyObstacle> bodies = {{{4, 1.5, 0}, 0.25, 1.8}};
  mmwave::LinkTable table(ap, channel, {}, {}, receivers, bodies);
  const std::vector<std::uint8_t> all = {1};
  for (std::size_t rx = 0; rx < receivers.size(); ++rx) {
    const Awv w = ap.steer_at(receivers[rx]);
    EXPECT_TRUE(same_bits(
        mmwave::rss_dbm(ap, w, channel, receivers[rx], bodies),
        table.rss(w, rx, all)));
  }
}

TEST(LinkTable, SteeringMatchesArray) {
  const mmwave::PhasedArray ap(
      {}, geo::Pose::look_at({4, 0.1, 2.6}, {4, 3, 1.2}), kMmWaveCarrierHz);
  const mmwave::Channel channel(mmwave::Room{});
  const mmwave::Codebook codebook(ap);
  Rng rng(7);
  std::vector<geo::Vec3> receivers;
  for (int r = 0; r < 8; ++r)
    receivers.push_back(random_point(rng, channel.room()));
  mmwave::LinkTable table(ap, channel, {}, {}, receivers, {});
  for (std::size_t rx = 0; rx < receivers.size(); ++rx) {
    EXPECT_TRUE(same_bits(table.steered(rx), ap.steer_at(receivers[rx])));
    for (const Awv& beam : codebook.beams())
      EXPECT_TRUE(same_bits(
          table.steering(rx).gain(beam),
          ap.gain(beam, receivers[rx] - ap.pose().position)));
  }
}

TEST(LinkTable, CountsEvaluationsAndValidatesArguments) {
  const mmwave::PhasedArray ap(
      {}, geo::Pose::look_at({4, 0.1, 2.6}, {4, 3, 1.2}), kMmWaveCarrierHz);
  const mmwave::Channel channel(mmwave::Room{});
  const std::vector<geo::Vec3> receivers = {{4, 3, 1.5}};
  const std::vector<geo::BodyObstacle> bodies = {{{4, 1.5, 0}, 0.25, 1.8}};
  mmwave::LinkTable table(ap, channel, {}, {}, receivers, bodies);
  EXPECT_EQ(table.body_count(), 1u);
  obs::MetricRegistry metrics;
  obs::Counter& evals = metrics.counter("mmwave.rss_evals");
  const std::vector<std::uint8_t> mask = {0};
  const Awv w = ap.steer_at(receivers[0]);
  (void)table.rss(w, 0, mask, &evals);
  (void)table.rss(w, 0, mask, &evals);
  EXPECT_EQ(evals.value(), 2u);
  const std::vector<std::uint8_t> wrong_size;
  EXPECT_THROW((void)table.rss(w, 0, wrong_size), std::invalid_argument);
  EXPECT_THROW((void)table.steering(1), std::out_of_range);
}

/// The response as PhasedArray::response computes it, written out: element
/// (iy, iz) is exp(j k y_iy u_y) * exp(j k z_iz u_z), the complex product
/// expanded as re = a c - b d, im = a d + b c.
std::vector<Complex> factored_response(const mmwave::ArrayGeometry& geometry,
                                       const geo::Vec3& local) {
  const double lambda = wavelength_m(kMmWaveCarrierHz);
  const double k = 2.0 * std::numbers::pi / lambda;
  const double d = geometry.spacing_wavelengths * lambda;
  const double y0 = -0.5 * d * (geometry.ny - 1);
  const double z0 = -0.5 * d * (geometry.nz - 1);
  std::vector<Complex> phasors;
  for (unsigned iz = 0; iz < geometry.nz; ++iz) {
    const double pz = k * (z0 + d * iz) * local.z;
    const double c = std::cos(pz);
    const double s = std::sin(pz);
    for (unsigned iy = 0; iy < geometry.ny; ++iy) {
      const double py = k * (y0 + d * iy) * local.y;
      const double a = std::cos(py);
      const double b = std::sin(py);
      phasors.emplace_back(a * c - b * s, a * s + b * c);
    }
  }
  return phasors;
}

/// The per-element phasors exp(j k e_i . u): one cos/sin pair per element,
/// the form the factored response is checked against.
std::vector<Complex> per_element_response(
    const mmwave::ArrayGeometry& geometry, const geo::Vec3& local) {
  const double lambda = wavelength_m(kMmWaveCarrierHz);
  const double k = 2.0 * std::numbers::pi / lambda;
  const double d = geometry.spacing_wavelengths * lambda;
  std::vector<Complex> phasors;
  for (unsigned iz = 0; iz < geometry.nz; ++iz)
    for (unsigned iy = 0; iy < geometry.ny; ++iy) {
      const geo::Vec3 element{0.0, -0.5 * d * (geometry.ny - 1) + d * iy,
                              -0.5 * d * (geometry.nz - 1) + d * iz};
      const double phase = k * element.dot(local);
      phasors.emplace_back(std::cos(phase), std::sin(phase));
    }
  return phasors;
}

/// Array-frame unit directions: random ones over the whole sphere, grazing
/// ones in the element plane (u_x = 0 and within 1e-9 of it) and ones
/// behind the backplane.
std::vector<geo::Vec3> response_directions(Rng& rng) {
  std::vector<geo::Vec3> dirs;
  for (int i = 0; i < 200; ++i)
    dirs.push_back(geo::Vec3{rng.normal(0, 1), rng.normal(0, 1),
                             rng.normal(0, 1)}
                       .normalized());
  for (int i = 0; i < 100; ++i) {
    const double a = rng.uniform(0.0, 2.0 * std::numbers::pi);
    const double x = i % 3 == 0 ? 0.0 : rng.uniform(-1e-9, 1e-9);
    dirs.push_back(geo::Vec3{x, std::cos(a), std::sin(a)}.normalized());
  }
  for (int i = 0; i < 100; ++i)
    dirs.push_back(geo::Vec3{-rng.uniform(0.05, 1.0), rng.uniform(-1, 1),
                             rng.uniform(-1, 1)}
                       .normalized());
  dirs.push_back({-1.0, 0.0, 0.0});
  dirs.push_back({0.0, 1.0, 0.0});
  dirs.push_back({0.0, 0.0, -1.0});
  return dirs;
}

const mmwave::ArrayGeometry kResponseGeometries[] = {
    {8, 4, 0.5}, {1, 1, 0.5}, {1, 16, 0.5}, {16, 1, 0.5}, {3, 5, 0.5}};

TEST(ArrayResponse, GainBitEqualToFactoredArrayFactor) {
  // The array factor over the factored phasors, summed as Steering::gain
  // sums it, is what PhasedArray::gain returns, bit for bit.
  const mmwave::ArrayGeometry geometry;
  const geo::Pose pose = geo::Pose::look_at({4, 0.1, 2.6}, {4, 3, 1.2});
  const mmwave::PhasedArray ap(geometry, pose, kMmWaveCarrierHz);
  const mmwave::Codebook codebook(ap);
  Rng rng(11);
  for (int trial = 0; trial < 200; ++trial) {
    const geo::Vec3 dir{rng.uniform(-1, 1), rng.uniform(-1, 1),
                        rng.uniform(-1, 1)};
    const Awv w = random_awv(rng, ap, codebook, mmwave::Room{});
    const geo::Vec3 u = dir.normalized();
    const geo::Vec3 local{u.dot(pose.forward()), u.dot(pose.left()),
                          u.dot(pose.up())};
    const std::vector<Complex> phasors = factored_response(geometry, local);
    Complex af{0.0, 0.0};
    for (std::size_t i = 0; i < w.size(); ++i) af += w[i] * phasors[i];
    const double direct =
        std::norm(af) * mmwave::PhasedArray::element_gain(local.x);
    EXPECT_TRUE(same_bits(direct, ap.gain(w, dir))) << "trial " << trial;
  }
}

TEST(ArrayResponse, PhasorsBitEqualToFactoredFormula) {
  Rng rng(5);
  const std::vector<geo::Vec3> dirs = response_directions(rng);
  for (const mmwave::ArrayGeometry& geometry : kResponseGeometries) {
    const mmwave::PhasedArray ap(geometry, geo::Pose{}, kMmWaveCarrierHz);
    mmwave::Steering response;
    for (const geo::Vec3& local : dirs) {
      ap.response(local, response);
      EXPECT_TRUE(same_bits(response.phasors, factored_response(geometry, local)))
          << geometry.ny << "x" << geometry.nz;
      EXPECT_TRUE(same_bits(response.element_gain,
                            mmwave::PhasedArray::element_gain(local.x)));
    }
  }
}

TEST(ArrayResponse, FactoredPhasorsWithin1e14OfPerElementPhasors) {
  // Factoring changes how each phase is rounded, not what it is: every
  // component stays within 1e-14 of exp(j k e_i . u) computed per element.
  Rng rng(17);
  const std::vector<geo::Vec3> dirs = response_directions(rng);
  for (const mmwave::ArrayGeometry& geometry : kResponseGeometries) {
    const mmwave::PhasedArray ap(geometry, geo::Pose{}, kMmWaveCarrierHz);
    mmwave::Steering response;
    double worst = 0.0;
    for (const geo::Vec3& local : dirs) {
      ap.response(local, response);
      const std::vector<Complex> reference =
          per_element_response(geometry, local);
      ASSERT_EQ(response.phasors.size(), reference.size());
      for (std::size_t i = 0; i < reference.size(); ++i) {
        worst = std::max(
            {worst, std::abs(response.phasors[i].real() - reference[i].real()),
             std::abs(response.phasors[i].imag() - reference[i].imag())});
      }
    }
    EXPECT_LE(worst, 1e-14) << geometry.ny << "x" << geometry.nz;
  }
}

/// design_multicast as it priced links before the link table: rss_dbm per
/// member and per non-member, Codebook selection from positions.
core::GroupBeam reference_design(const core::Testbed& tb,
                                 const core::BeamDesignerConfig& config,
                                 const std::vector<geo::Vec3>& positions,
                                 const std::vector<geo::BodyObstacle>& bodies,
                                 const std::vector<geo::Vec3>& others) {
  const auto rss = [&](const Awv& w, const geo::Vec3& p) {
    return mmwave::rss_dbm(tb.ap(), w, tb.channel(), p, bodies, tb.budget(),
                           tb.blockage());
  };
  const auto finish = [&](Awv awv, bool custom) {
    core::GroupBeam out;
    out.awv = std::move(awv);
    out.custom = custom;
    out.min_member_rss_dbm = std::numeric_limits<double>::infinity();
    for (const geo::Vec3& p : positions)
      out.min_member_rss_dbm = std::min(out.min_member_rss_dbm, rss(out.awv, p));
    out.multicast_rate_mbps = tb.mcs().goodput_mbps(out.min_member_rss_dbm);
    return out;
  };
  core::GroupBeam stock =
      finish(tb.codebook().beam(tb.codebook().best_common_beam(tb.ap(),
                                                               positions)),
             false);
  if (positions.size() == 1 || !config.enable_custom_beams ||
      stock.min_member_rss_dbm >= config.default_beam_good_dbm)
    return stock;
  std::vector<Awv> beams;
  std::vector<double> rss_mw;
  for (const geo::Vec3& p : positions) {
    beams.push_back(tb.ap().steer_at(p));
    rss_mw.push_back(std::max(dbm_to_mw(rss(beams.back(), p)), 1e-15));
  }
  std::vector<const Awv*> beam_ptrs;
  for (const Awv& b : beams) beam_ptrs.push_back(&b);
  Awv combined;
  mmwave::combine_awvs(beam_ptrs, rss_mw, combined);
  core::GroupBeam custom = finish(std::move(combined), true);
  if (custom.min_member_rss_dbm <
      stock.min_member_rss_dbm + config.min_improvement_db)
    return stock;
  for (const geo::Vec3& o : others)
    if (rss(custom.awv, o) > config.max_spill_dbm) return stock;
  return custom;
}

TEST(LinkTable, MulticastDesignMatchesDirectPricing) {
  const core::Testbed tb;
  const core::BeamDesignerConfig config;
  const core::BeamDesigner designer(tb, config);
  Rng rng(21);
  std::size_t custom_picks = 0;
  std::size_t stock_picks = 0;
  for (int trial = 0; trial < 30; ++trial) {
    // One tick: 7 users, the first few grouped; bodies are every user's
    // capsule then one obstacle.
    std::vector<geo::Vec3> users;
    for (int u = 0; u < 7; ++u)
      users.push_back(tb.to_room(geo::Vec3{rng.uniform(-2.5, 2.5),
                                           rng.uniform(-2.0, 2.0), 1.5}));
    std::vector<geo::BodyObstacle> bodies;
    for (const geo::Vec3& p : users) bodies.push_back({p, 0.25, 1.8});
    bodies.push_back({random_point(rng, tb.channel().room()), 0.3, 1.8});
    const auto size = static_cast<std::size_t>(rng.uniform_int(2, 4));
    std::vector<std::size_t> group;
    std::vector<std::size_t> others;
    std::vector<std::uint8_t> mask(bodies.size(), 1);
    for (std::size_t u = 0; u < users.size(); ++u) {
      if (u < size) {
        group.push_back(size - 1 - u);  // unsorted member order
        mask[u] = 0;
      } else {
        others.push_back(u);
      }
    }
    mmwave::LinkTable table = designer.link_table(users, bodies);
    core::GroupBeam tabled;
    designer.design_multicast(table, group, mask, others, tabled);
    std::vector<geo::Vec3> positions;
    for (std::size_t m : group) positions.push_back(users[m]);
    std::vector<geo::Vec3> other_positions;
    for (std::size_t o : others) other_positions.push_back(users[o]);
    const core::GroupBeam direct = reference_design(
        tb, config, positions, masked(bodies, mask), other_positions);
    EXPECT_EQ(tabled.custom, direct.custom);
    EXPECT_TRUE(same_bits(tabled.awv, direct.awv));
    EXPECT_TRUE(same_bits(tabled.min_member_rss_dbm, direct.min_member_rss_dbm));
    EXPECT_TRUE(same_bits(tabled.multicast_rate_mbps,
                          direct.multicast_rate_mbps));
    ++(tabled.custom ? custom_picks : stock_picks);
  }
  // The sweep exercises both outcomes of the probe.
  EXPECT_GT(custom_picks, 0u);
  EXPECT_GT(stock_picks, 0u);
}

// ---- beam-free RSS bound -----------------------------------------------

double awv_power(const Awv& w) {
  double power = 0.0;
  for (const Complex& c : w) power += std::norm(c);
  return power;
}

/// Room with reflections up to `order`, or none at order 0.
mmwave::Room room_of_order(int order) {
  mmwave::Room room;
  room.enable_reflections = order > 0;
  room.max_reflection_order = std::max(order, 1);
  return room;
}

class LinkTableBound : public ::testing::TestWithParam<int> {};

TEST_P(LinkTableBound, NeverBelowRssOfAnyNormalizedBeam) {
  Rng rng(static_cast<std::uint64_t>(2000 + GetParam()));
  std::size_t checks = 0;
  std::size_t reflection_beams = 0;
  for (int trial = 0; trial < 24; ++trial) {
    // The AP moves between trials, low mounts included, so bodies cross
    // many segments; the designer's beams come from the same testbed.
    core::TestbedConfig tc;
    tc.room = room_of_order(GetParam());
    tc.ap_position = {rng.uniform(1.0, 7.0), 0.1, rng.uniform(1.0, 2.6)};
    tc.budget.tx_power_dbm = rng.uniform(0.0, 10.0);
    tc.blockage.max_loss_db = rng.uniform(5.0, 30.0);
    const core::Testbed tb(tc);
    const core::BeamDesigner designer(tb);
    const mmwave::PhasedArray& ap = tb.ap();
    std::vector<geo::Vec3> receivers;
    for (int r = 0; r < 6; ++r) receivers.push_back(random_point(rng, tc.room));
    const auto bodies =
        trial % 3 == 1 ? crowd(rng, tc.room)
                       : random_bodies(rng, tc.room, ap.pose().position,
                                       receivers);
    mmwave::LinkTable table = designer.link_table(receivers, bodies);
    for (std::size_t rx = 0; rx < receivers.size(); ++rx) {
      std::vector<std::uint8_t> mask(bodies.size());
      for (auto& bit : mask) bit = rng.chance(0.6) ? 1 : 0;
      std::vector<Awv> beams(tb.codebook().beams().begin(),
                             tb.codebook().beams().end());
      for (std::size_t other = 0; other < receivers.size(); ++other)
        beams.push_back(table.steered(other));
      // A beam steered along one path meets that path's bound with
      // equality: the pad alone keeps the bound above it.
      std::vector<mmwave::TracedPath> traced_paths;
      tb.channel().trace(ap.pose().position, receivers[rx], traced_paths);
      for (const mmwave::TracedPath& traced : traced_paths)
        beams.push_back(ap.steer(traced.path.tx_direction));
      for (int k = 0; k < 3; ++k) {
        const Awv aimed = ap.steer_at(random_point(rng, tc.room));
        const Awv* pair[] = {&aimed, &table.steered(rx)};
        const double rss_mw[] = {rng.uniform(1e-9, 1e-5),
                                 rng.uniform(1e-9, 1e-5)};
        mmwave::combine_awvs(pair, rss_mw, beams.emplace_back());
      }
      const core::GroupBeam reflection =
          designer.design_reflection(receivers[rx], masked(bodies, mask));
      if (!reflection.awv.empty()) {
        beams.push_back(reflection.awv);
        ++reflection_beams;
      }
      for (int k = 0; k < 4; ++k) {
        Awv w(ap.element_count());
        for (Complex& c : w) c = {rng.uniform(-1, 1), rng.uniform(-1, 1)};
        mmwave::power_normalize(w);
        beams.push_back(std::move(w));
      }
      const double bound = table.rss_upper_bound(rx, mask);
      for (const Awv& w : beams) {
        EXPECT_GE(bound, table.rss(w, rx, mask)) << "trial " << trial;
        ++checks;
      }
    }
  }
  EXPECT_GT(checks, 0u);
  if (GetParam() > 0) {
    EXPECT_GT(reflection_beams, 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(ReflectionOrder, LinkTableBound,
                         ::testing::Values(0, 1, 2));

TEST(LinkTableBound, ValidatesTheMask) {
  const mmwave::PhasedArray ap(
      {}, geo::Pose::look_at({4, 0.1, 2.6}, {4, 3, 1.2}), kMmWaveCarrierHz);
  const mmwave::Channel channel(mmwave::Room{});
  const std::vector<geo::Vec3> receivers = {{4, 3, 1.5}};
  const std::vector<geo::BodyObstacle> bodies = {{{4, 1.5, 0}, 0.25, 1.8}};
  mmwave::LinkTable table(ap, channel, {}, {}, receivers, bodies);
  const std::vector<std::uint8_t> wrong_size;
  EXPECT_THROW((void)table.rss_upper_bound(0, wrong_size),
               std::invalid_argument);
  const std::vector<std::uint8_t> mask = {1};
  EXPECT_THROW((void)table.rss_upper_bound(1, mask), std::out_of_range);
}

TEST(BeamDesigner, EveryEmittedBeamIsPowerNormalized) {
  // The RSS bound holds only for beams with sum |w_i|^2 == 1.
  const core::Testbed tb;
  Rng rng(33);
  std::size_t custom_multicast = 0;
  std::size_t reflections = 0;
  for (const bool custom : {true, false}) {
    core::BeamDesignerConfig config;
    config.enable_custom_beams = custom;
    const core::BeamDesigner designer(tb, config);
    for (int trial = 0; trial < 20; ++trial) {
      std::vector<geo::Vec3> users;
      for (int u = 0; u < 6; ++u)
        users.push_back(tb.to_room(geo::Vec3{rng.uniform(-2.5, 2.5),
                                             rng.uniform(-2.0, 2.0), 1.5}));
      std::vector<geo::BodyObstacle> bodies;
      for (const geo::Vec3& p : users) bodies.push_back({p, 0.25, 1.8});
      mmwave::LinkTable table = designer.link_table(users, bodies);
      const auto size = static_cast<std::size_t>(rng.uniform_int(1, 4));
      std::vector<std::size_t> group;
      std::vector<std::size_t> others;
      std::vector<std::uint8_t> mask(bodies.size(), 1);
      for (std::size_t u = 0; u < users.size(); ++u) {
        if (u < size) {
          group.push_back(u);
          mask[u] = 0;
        } else {
          others.push_back(u);
        }
      }
      core::GroupBeam multicast;
      designer.design_multicast(table, group, mask, others, multicast);
      custom_multicast += multicast.custom && group.size() > 1 ? 1 : 0;
      core::GroupBeam unicast;
      designer.design_unicast(table, 0, mask, unicast);
      const core::GroupBeam reflection =
          designer.design_reflection(table, 0, mask);
      for (const Awv* w : {&multicast.awv, &unicast.awv})
        EXPECT_NEAR(awv_power(*w), 1.0, 1e-12) << "trial " << trial;
      if (!reflection.awv.empty()) {
        EXPECT_NEAR(awv_power(reflection.awv), 1.0, 1e-12);
        ++reflections;
      }
    }
  }
  EXPECT_GT(custom_multicast, 0u);
  EXPECT_GT(reflections, 0u);
}

TEST(LinkTable, DesignRejectsTableOfAnotherArray) {
  const core::Testbed tb;
  const core::Testbed other;
  const core::BeamDesigner designer(tb);
  const std::vector<geo::Vec3> users = {{3, 3, 1.5}, {5, 3, 1.5}};
  mmwave::LinkTable table = core::BeamDesigner(other).link_table(users, {});
  const std::size_t group[] = {0, 1};
  core::GroupBeam beam;
  EXPECT_THROW(designer.design_multicast(table, group, {}, {}, beam),
               std::invalid_argument);
}

// ---- sector-gain cache and the table overloads --------------------------

/// design_unicast as it priced its link before the link table.
core::GroupBeam reference_unicast(
    const core::Testbed& tb, bool custom_beams, const geo::Vec3& position,
    const std::vector<geo::BodyObstacle>& bodies) {
  core::GroupBeam out;
  out.custom = custom_beams;
  out.awv = custom_beams
                ? tb.ap().steer_at(position)
                : tb.codebook().beam(
                      tb.codebook().best_beam_toward(tb.ap(), position));
  out.min_member_rss_dbm =
      mmwave::rss_dbm(tb.ap(), out.awv, tb.channel(), position, bodies,
                      tb.budget(), tb.blockage());
  out.multicast_rate_mbps = tb.mcs().goodput_mbps(out.min_member_rss_dbm);
  return out;
}

/// design_reflection as it was before the link table: Channel::paths, a
/// beam steered along each bounce, each priced with rss_dbm.
core::GroupBeam reference_reflection(
    const core::Testbed& tb, const geo::Vec3& position,
    const std::vector<geo::BodyObstacle>& bodies) {
  core::GroupBeam best{};
  for (const mmwave::Path& path : tb.channel().paths(
           tb.ap().pose().position, position, {}, tb.blockage())) {
    if (path.line_of_sight) continue;
    core::GroupBeam candidate;
    candidate.awv = tb.ap().steer(path.tx_direction);
    candidate.custom = true;
    candidate.min_member_rss_dbm =
        mmwave::rss_dbm(tb.ap(), candidate.awv, tb.channel(), position,
                        bodies, tb.budget(), tb.blockage());
    candidate.multicast_rate_mbps =
        tb.mcs().goodput_mbps(candidate.min_member_rss_dbm);
    if (best.awv.empty() ||
        candidate.min_member_rss_dbm > best.min_member_rss_dbm)
      best = std::move(candidate);
  }
  return best;
}

void expect_same_beam(const core::GroupBeam& a, const core::GroupBeam& b,
                      const std::string& where) {
  EXPECT_EQ(a.custom, b.custom) << where;
  EXPECT_TRUE(same_bits(a.awv, b.awv)) << where;
  EXPECT_TRUE(same_bits(a.min_member_rss_dbm, b.min_member_rss_dbm)) << where;
  EXPECT_TRUE(same_bits(a.multicast_rate_mbps, b.multicast_rate_mbps))
      << where;
}

class LinkTableDesigns : public ::testing::TestWithParam<int> {};

TEST_P(LinkTableDesigns, SectorPicksAndTableOverloadsMatchDirectPricing) {
  Rng rng(static_cast<std::uint64_t>(3000 + GetParam()));
  std::size_t reflections = 0;
  std::size_t common_picks = 0;
  for (int trial = 0; trial < 16; ++trial) {
    core::TestbedConfig tc;
    tc.room = room_of_order(GetParam());
    tc.ap_position = {rng.uniform(1.0, 7.0), 0.1, rng.uniform(1.0, 2.6)};
    tc.blockage.max_loss_db = rng.uniform(5.0, 30.0);
    const core::Testbed tb(tc);
    const mmwave::PhasedArray& ap = tb.ap();
    const mmwave::Codebook& codebook = tb.codebook();
    std::vector<geo::Vec3> receivers;
    for (int r = 0; r < 6; ++r) receivers.push_back(random_point(rng, tc.room));
    const auto bodies =
        trial % 3 == 1 ? crowd(rng, tc.room)
                       : random_bodies(rng, tc.room, ap.pose().position,
                                       receivers);
    for (const bool custom : {true, false}) {
      core::BeamDesignerConfig config;
      config.enable_custom_beams = custom;
      const core::BeamDesigner designer(tb, config);
      mmwave::LinkTable table = designer.link_table(receivers, bodies);
      for (std::size_t rx = 0; rx < receivers.size(); ++rx) {
        const std::string where = "trial " + std::to_string(trial) + " rx " +
                                  std::to_string(rx) +
                                  (custom ? " custom" : " stock");
        EXPECT_EQ(table.best_sector(rx),
                  codebook.best_beam_toward(ap, receivers[rx]))
            << where;
        const std::span<const double> gains = table.sector_gains(rx);
        ASSERT_EQ(gains.size(), codebook.size());
        for (std::size_t i = 0; i < codebook.size(); ++i)
          EXPECT_TRUE(same_bits(
              gains[i],
              ap.gain(codebook.beam(i), receivers[rx] - ap.pose().position)))
              << where << " sector " << i;

        std::vector<std::uint8_t> mask(bodies.size());
        for (auto& bit : mask) bit = rng.chance(0.6) ? 1 : 0;
        const auto shadowing = masked(bodies, mask);
        core::GroupBeam unicast;
        designer.design_unicast(table, rx, mask, unicast);
        expect_same_beam(unicast,
                         reference_unicast(tb, custom, receivers[rx],
                                           shadowing),
                         where + " unicast vs rss_dbm");
        const core::GroupBeam reflection =
            designer.design_reflection(table, rx, mask);
        expect_same_beam(reflection,
                         reference_reflection(tb, receivers[rx], shadowing),
                         where + " reflection vs rss_dbm");
        expect_same_beam(reflection,
                         designer.design_reflection(receivers[rx], shadowing),
                         where + " reflection vs position overload");
        if (!reflection.awv.empty()) ++reflections;
      }
      for (int pick = 0; pick < 6; ++pick) {
        // Unsorted subsets, repeats allowed, sizes 0..4.
        std::vector<std::size_t> rxs;
        std::vector<geo::Vec3> targets;
        const auto size = static_cast<std::size_t>(rng.uniform_int(0, 4));
        for (std::size_t k = 0; k < size; ++k) {
          rxs.push_back(static_cast<std::size_t>(rng.uniform_int(0, 5)));
          targets.push_back(receivers[rxs.back()]);
        }
        EXPECT_EQ(table.best_common_sector(rxs),
                  codebook.best_common_beam(ap, targets))
            << "trial " << trial << " pick " << pick;
        ++common_picks;
      }
    }
  }
  EXPECT_GT(common_picks, 0u);
  if (GetParam() > 0) {
    EXPECT_GT(reflections, 0u);
  } else {
    EXPECT_EQ(reflections, 0u);  // no bounce without reflections
  }
}

INSTANTIATE_TEST_SUITE_P(ReflectionOrder, LinkTableDesigns,
                         ::testing::Values(0, 1, 2));

TEST(LinkTable, SectorPicksNeedABoundCodebook) {
  const mmwave::PhasedArray ap(
      {}, geo::Pose::look_at({4, 0.1, 2.6}, {4, 3, 1.2}), kMmWaveCarrierHz);
  const mmwave::Channel channel(mmwave::Room{});
  const std::vector<geo::Vec3> receivers = {{4, 3, 1.5}};
  mmwave::LinkTable table(ap, channel, {}, {}, receivers, {});
  EXPECT_THROW((void)table.sector_gains(0), std::logic_error);
  EXPECT_THROW((void)table.best_sector(0), std::logic_error);
  EXPECT_THROW((void)table.best_common_sector({}), std::logic_error);
}

TEST(LinkTable, CountsRowsBuilt) {
  const core::Testbed tb;
  const core::BeamDesigner designer(tb);
  const std::vector<geo::Vec3> receivers = {{3, 3, 1.5}, {5, 3, 1.5}};
  obs::MetricRegistry metrics;
  obs::Counter& rows = metrics.counter("mmwave.link_rows");
  mmwave::LinkTable table = designer.link_table(receivers, {}, {&rows});
  EXPECT_EQ(table.rows_built(), 0u);
  (void)table.steered(1);
  (void)table.best_sector(1);
  (void)table.rss(table.steered(1), 1, {});
  EXPECT_EQ(table.rows_built(), 1u);
  EXPECT_EQ(table.evaluations(), 1u);
  (void)table.steering(0);
  EXPECT_EQ(table.rows_built(), 2u);
  EXPECT_EQ(rows.value(), 2u);
}

TEST(LinkTable, ResponseTowardReceiverIsBuiltOnFirstUse) {
  // A row priced only through rss() never computes the response toward its
  // receiver; asked for later, it is the array's own, bit for bit, and
  // asking builds no row.
  core::TestbedConfig tc;
  tc.room = room_of_order(2);
  const core::Testbed tb(tc);
  const mmwave::PhasedArray& ap = tb.ap();
  const core::BeamDesigner designer(tb);
  Rng rng(43);
  std::vector<geo::Vec3> receivers;
  for (int r = 0; r < 5; ++r)
    receivers.push_back(random_point(rng, tb.channel().room()));
  const std::vector<geo::BodyObstacle> bodies =
      random_bodies(rng, tb.channel().room(), ap.pose().position, receivers);
  mmwave::LinkTable table = designer.link_table(receivers, bodies);
  const std::vector<std::uint8_t> mask(bodies.size(), 1);
  for (std::size_t rx = 0; rx < receivers.size(); ++rx) {
    (void)table.rss(tb.codebook().beam(rx), rx, mask);
    (void)table.rss_upper_bound(rx, mask);
  }
  const std::size_t built = table.rows_built();
  EXPECT_EQ(built, receivers.size());
  for (std::size_t rx = 0; rx < receivers.size(); ++rx) {
    const mmwave::Steering expected =
        ap.steering(receivers[rx] - ap.pose().position);
    const mmwave::Steering& toward = table.steering(rx);
    EXPECT_TRUE(same_bits(toward.phasors, expected.phasors)) << rx;
    EXPECT_TRUE(same_bits(toward.element_gain, expected.element_gain)) << rx;
    EXPECT_TRUE(same_bits(table.steered(rx), ap.steer_at(receivers[rx])))
        << rx;
    EXPECT_EQ(table.best_sector(rx),
              tb.codebook().best_beam_toward(ap, receivers[rx]))
        << rx;
  }
  EXPECT_EQ(table.rows_built(), built);
}

TEST(LinkTable, ReflectionBeamsSteerAlongEachBounce) {
  core::TestbedConfig tc;
  tc.room = room_of_order(2);
  const core::Testbed tb(tc);
  const mmwave::PhasedArray& ap = tb.ap();
  Rng rng(47);
  std::vector<geo::Vec3> receivers;
  for (int r = 0; r < 6; ++r)
    receivers.push_back(random_point(rng, tb.channel().room()));
  mmwave::LinkTable table = core::BeamDesigner(tb).link_table(receivers, {});
  std::size_t multi_block_rows = 0;
  for (std::size_t rx = 0; rx < receivers.size(); ++rx) {
    std::vector<Awv> expected;
    std::vector<mmwave::TracedPath> traced_paths;
    tb.channel().trace(ap.pose().position, receivers[rx], traced_paths);
    for (const mmwave::TracedPath& traced : traced_paths)
      if (!traced.path.line_of_sight)
        expected.push_back(ap.steer(traced.path.tx_direction));
    const std::span<const Awv> got = table.reflection_beams(rx);
    ASSERT_EQ(got.size(), expected.size()) << rx;
    for (std::size_t b = 0; b < got.size(); ++b)
      EXPECT_TRUE(same_bits(got[b], expected[b])) << rx << " bounce " << b;
    if (got.size() >= mmwave::kLanes) ++multi_block_rows;
  }
  EXPECT_GT(multi_block_rows, 0u);
}

TEST(LinkTable, TableOverloadsRejectTableOfAnotherArray) {
  const core::Testbed tb;
  const core::Testbed other;
  const core::BeamDesigner designer(tb);
  const std::vector<geo::Vec3> users = {{3, 3, 1.5}};
  mmwave::LinkTable table = core::BeamDesigner(other).link_table(users, {});
  core::GroupBeam beam;
  EXPECT_THROW(designer.design_unicast(table, 0, {}, beam),
               std::invalid_argument);
  EXPECT_THROW((void)designer.design_reflection(table, 0, {}),
               std::invalid_argument);
}

// ---- multi-AP screening over link tables --------------------------------

TEST(MultiApTables, AssignmentAndInterferenceMatchRssDbm) {
  Rng rng(41);
  std::size_t outcomes[3] = {0, 0, 0};  // outage, degraded, clear
  for (int trial = 0; trial < 12; ++trial) {
    core::MultiApConfig mc;
    mc.ap_count = static_cast<std::size_t>(rng.uniform_int(2, 4));
    const core::MultiApCoordinator coord(core::TestbedConfig{}, mc);
    const mmwave::Room& room = coord.ap(0).channel().room();
    // A tick: user capsules by index, then one obstacle. Assignment and
    // screening see no bodies whatever the table's body list holds.
    std::vector<geo::Vec3> users;
    for (int u = 0; u < 6; ++u) users.push_back(random_point(rng, room));
    std::vector<geo::BodyObstacle> bodies;
    for (const geo::Vec3& p : users) bodies.push_back({p, 0.25, 1.8});
    bodies.push_back({random_point(rng, room), 0.3, 1.8});
    std::vector<mmwave::LinkTable> tables;
    for (std::size_t a = 0; a < coord.ap_count(); ++a)
      tables.push_back(
          core::BeamDesigner(coord.ap(a)).link_table(users, bodies));
    const core::ApLinks links = [&](std::size_t a) -> mmwave::LinkTable& {
      return tables[a];
    };

    std::vector<bool> up(coord.ap_count());
    for (std::size_t a = 0; a < up.size(); ++a) up[a] = rng.chance(0.7);
    const bool up_flags[4] = {up[0], up[1], up.size() > 2 && up[2],
                              up.size() > 3 && up[3]};
    const std::span<const bool> available(up_flags, coord.ap_count());
    for (const bool with_availability : {false, true}) {
      std::vector<std::size_t> reference;
      for (const geo::Vec3& pos : users) {
        std::size_t best_ap = 0;
        double best_rss = -std::numeric_limits<double>::infinity();
        for (std::size_t a = 0; a < coord.ap_count(); ++a) {
          if (with_availability && !available[a]) continue;
          const core::Testbed& tb = coord.ap(a);
          const double rss = mmwave::best_beam_rss_dbm(
              tb.ap(), tb.codebook(), tb.channel(), pos, {}, tb.budget(),
              tb.blockage());
          if (rss > best_rss) {
            best_rss = rss;
            best_ap = a;
          }
        }
        reference.push_back(best_ap);
      }
      const std::span<const bool> flags =
          with_availability ? available : std::span<const bool>{};
      EXPECT_EQ(coord.assign_users(users.size(), links, flags), reference)
          << "trial " << trial;
    }

    // Every AP transmits toward some user; screen every user against it.
    std::vector<mmwave::Awv> beams(coord.ap_count());
    for (std::size_t a = 0; a < beams.size(); ++a)
      if (rng.chance(0.85))
        beams[a] = coord.ap(a).ap().steer_at(random_point(rng, room));
    for (std::size_t u = 0; u < users.size(); ++u) {
      const auto victim_ap =
          static_cast<std::size_t>(rng.uniform_int(0, coord.ap_count() - 1));
      double leak = -std::numeric_limits<double>::infinity();
      for (std::size_t a = 0; a < coord.ap_count(); ++a) {
        if (a == victim_ap || beams[a].empty()) continue;
        const core::Testbed& tb = coord.ap(a);
        leak = std::max(leak, mmwave::rss_dbm(tb.ap(), beams[a], tb.channel(),
                                              users[u], {}, tb.budget(),
                                              tb.blockage()));
      }
      // Land the victim's signal on either side of both SIR thresholds.
      const double victim_rss =
          std::isinf(leak) ? -60.0 : leak + rng.uniform(-2.0, 14.0);
      const double sir = victim_rss - leak;
      const double reference = std::isinf(leak)           ? 1.0
                               : sir < mc.outage_sir_db   ? 0.0
                               : sir < mc.degraded_sir_db ? 0.5
                                                          : 1.0;
      const double tabled =
          coord.interference_factor(victim_ap, u, victim_rss, beams, links);
      EXPECT_TRUE(same_bits(tabled, reference)) << "trial " << trial;
      ++outcomes[tabled == 0.0 ? 0 : tabled == 0.5 ? 1 : 2];
    }
  }
  for (const std::size_t count : outcomes) EXPECT_GT(count, 0u);
}

}  // namespace
}  // namespace volcast
