// Bit-equality of the batched array factor against the scalar one.
//
// array_gains() prices one weight vector against every lane of a LaneBlocks
// in one pass. Each lane's result must be the very double Steering::gain
// returns for that lane, whatever the lane count (one block, a full block,
// one lane past it), the array geometry or the codebook size. Every
// comparison is a memcmp of the doubles, not a tolerance.
#include "mmwave/array_gains.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/units.h"
#include "mmwave/channel.h"
#include "mmwave/codebook.h"

namespace volcast {
namespace {

using mmwave::Awv;
using mmwave::Complex;
using mmwave::LaneBlocks;
using mmwave::Steering;

bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof a) == 0;
}

mmwave::PhasedArray array_of(unsigned ny, unsigned nz) {
  mmwave::ArrayGeometry geometry;
  geometry.ny = ny;
  geometry.nz = nz;
  return mmwave::PhasedArray(
      geometry, geo::Pose::look_at({4, 0.1, 2.6}, {4, 3, 1.2}),
      kMmWaveCarrierHz);
}

geo::Vec3 random_direction(Rng& rng) {
  return {rng.uniform(-1, 1), rng.uniform(-1, 1), rng.uniform(-1, 1)};
}

/// Every kind of weight vector the library prices: a steered beam, a
/// tapered one with zero weights, a random power-normalized one and a
/// random one that is not normalized.
Awv random_awv(Rng& rng, const mmwave::PhasedArray& ap) {
  switch (rng.uniform_int(0, 3)) {
    case 0:
      return ap.steer(random_direction(rng));
    case 1: {
      Awv w = ap.steer(random_direction(rng));
      for (std::size_t i = 0; i < w.size(); i += 3) w[i] = {0.0, 0.0};
      mmwave::power_normalize(w);
      return w;
    }
    case 2: {
      Awv w(ap.element_count());
      for (Complex& c : w) c = {rng.normal(), rng.normal()};
      mmwave::power_normalize(w);
      return w;
    }
    default: {
      Awv w(ap.element_count());
      for (Complex& c : w) c = {rng.uniform(-40, 40), rng.uniform(-40, 40)};
      return w;
    }
  }
}

/// array_gains of `w` against `responses` (one lane each, per-lane element
/// gains), lane by lane against Steering::gain.
void expect_equal_to_scalar(const std::vector<Steering>& responses,
                            const Awv& w, std::size_t elements,
                            const std::string& where) {
  LaneBlocks lanes(elements);
  std::vector<double> element_gains;
  for (const Steering& response : responses) {
    lanes.push_back(response.phasors);
    element_gains.push_back(response.element_gain);
  }
  std::vector<double> out(responses.size(),
                          std::numeric_limits<double>::quiet_NaN());
  mmwave::array_gains(w, lanes, element_gains, out);
  for (std::size_t l = 0; l < responses.size(); ++l)
    EXPECT_TRUE(same_bits(out[l], responses[l].gain(w)))
        << where << " lane " << l << ": " << out[l] << " vs "
        << responses[l].gain(w);
}

struct Geometry {
  unsigned ny;
  unsigned nz;
};
constexpr Geometry kGeometries[] = {{1, 1}, {3, 5}, {8, 4}};

TEST(ArrayGains, BitEqualToSteeringGainForEveryLaneCount) {
  Rng rng(19);
  for (const Geometry g : kGeometries) {
    const mmwave::PhasedArray ap = array_of(g.ny, g.nz);
    for (const std::size_t count : {1u, 7u, 8u, 9u, 16u, 17u}) {
      std::vector<Steering> responses;
      for (std::size_t p = 0; p < count; ++p)
        responses.push_back(ap.steering(random_direction(rng)));
      for (int trial = 0; trial < 25; ++trial)
        expect_equal_to_scalar(
            responses, random_awv(rng, ap), ap.element_count(),
            std::to_string(g.ny) + "x" + std::to_string(g.nz) + " " +
                std::to_string(count) + " lanes trial " +
                std::to_string(trial));
    }
  }
}

TEST(ArrayGains, SharedGainEqualsEachLanePricedTheOtherWayRound) {
  // Codebook's use: the weight vector is the response and the lanes are
  // the beams, all priced with the response's one element gain.
  Rng rng(23);
  const mmwave::PhasedArray ap = array_of(8, 4);
  LaneBlocks lanes(ap.element_count());
  std::vector<Awv> beams;
  for (int b = 0; b < 11; ++b) {
    beams.push_back(random_awv(rng, ap));
    lanes.push_back(beams.back());
  }
  std::vector<double> out(beams.size());
  for (int trial = 0; trial < 50; ++trial) {
    const Steering response = ap.steering(random_direction(rng));
    mmwave::array_gains(response.phasors, lanes,
                        std::span<const double>(&response.element_gain, 1),
                        out);
    for (std::size_t b = 0; b < beams.size(); ++b)
      EXPECT_TRUE(same_bits(out[b], response.gain(beams[b])))
          << "trial " << trial << " beam " << b;
  }
}

TEST(ArrayGains, ReflectionOrderTwoRows) {
  // The rows a link table builds: every traced path's response toward a
  // receiver, at reflection order 2, where a row spans several blocks.
  mmwave::Room room;
  room.max_reflection_order = 2;
  const mmwave::Channel channel(room);
  const mmwave::PhasedArray ap = array_of(8, 4);
  const mmwave::Codebook codebook(ap);
  Rng rng(29);
  std::size_t multi_block_rows = 0;
  std::vector<mmwave::TracedPath> traced_paths;
  for (int trial = 0; trial < 20; ++trial) {
    const geo::Vec3 rx{rng.uniform(0.2, room.width_m - 0.2),
                       rng.uniform(0.2, room.length_m - 0.2),
                       rng.uniform(0.3, 2.0)};
    std::vector<Steering> responses;
    channel.trace(ap.pose().position, rx, traced_paths);
    for (const mmwave::TracedPath& traced : traced_paths)
      responses.push_back(ap.steering(traced.path.tx_direction));
    if (responses.size() > mmwave::kLanes) ++multi_block_rows;
    const std::string where = "trial " + std::to_string(trial) + " (" +
                              std::to_string(responses.size()) + " paths)";
    expect_equal_to_scalar(responses, ap.steer_at(rx), ap.element_count(),
                           where + " steered");
    for (const Awv& beam : codebook.beams())
      expect_equal_to_scalar(responses, beam, ap.element_count(),
                             where + " sector");
    expect_equal_to_scalar(responses, random_awv(rng, ap), ap.element_count(),
                           where + " random");
  }
  EXPECT_GT(multi_block_rows, 0u);
}

TEST(ArrayGains, WrongSizeAwvGivesZeroInEveryLane) {
  Rng rng(31);
  const mmwave::PhasedArray ap = array_of(8, 4);
  std::vector<Steering> responses;
  for (int p = 0; p < 9; ++p)
    responses.push_back(ap.steering(random_direction(rng)));
  for (const std::size_t size : {0u, 1u, 31u, 33u, 64u}) {
    Awv w(size, Complex{0.5, -0.25});
    expect_equal_to_scalar(responses, w, ap.element_count(),
                           "size " + std::to_string(size));
    LaneBlocks lanes(ap.element_count());
    for (const Steering& response : responses)
      lanes.push_back(response.phasors);
    std::vector<double> out(responses.size(), -1.0);
    const double gain = 4.0;
    mmwave::array_gains(w, lanes, std::span<const double>(&gain, 1), out);
    for (const double g : out) EXPECT_TRUE(same_bits(g, 0.0));
  }
}

TEST(ArrayGains, ValidatesSizes) {
  const mmwave::PhasedArray ap = array_of(3, 5);
  LaneBlocks lanes(ap.element_count());
  EXPECT_THROW(lanes.push_back(Awv(14)), std::invalid_argument);
  for (int p = 0; p < 3; ++p) lanes.push_back(ap.steer({1, 0.1 * p, 0}));
  std::vector<Complex> lane;
  EXPECT_THROW(lanes.lane(3, lane), std::out_of_range);
  const Awv w = ap.steer({1, 0, 0});
  std::vector<double> out(3);
  const std::vector<double> two_gains = {1.0, 2.0};
  EXPECT_THROW(mmwave::array_gains(w, lanes, two_gains, out),
               std::invalid_argument);
  const std::vector<double> three_gains = {1.0, 2.0, 3.0};
  std::vector<double> short_out(2);
  EXPECT_THROW(mmwave::array_gains(w, lanes, three_gains, short_out),
               std::invalid_argument);
  EXPECT_NO_THROW(mmwave::array_gains(w, lanes, three_gains, out));
}

TEST(ArrayGains, LanesKeepTheirValuesAndPadWithZeros) {
  Rng rng(37);
  const mmwave::PhasedArray ap = array_of(3, 5);
  LaneBlocks lanes(ap.element_count());
  std::vector<Awv> pushed;
  for (int p = 0; p < 9; ++p) {
    pushed.push_back(random_awv(rng, ap));
    lanes.push_back(pushed.back());
    EXPECT_EQ(lanes.lanes(), pushed.size());
    const std::size_t blocks =
        (pushed.size() + mmwave::kLanes - 1) / mmwave::kLanes;
    EXPECT_EQ(lanes.data().size(),
              blocks * ap.element_count() * 2 * mmwave::kLanes);
  }
  std::vector<Complex> lane;
  for (std::size_t l = 0; l < pushed.size(); ++l) {
    lanes.lane(l, lane);
    ASSERT_EQ(lane.size(), pushed[l].size());
    EXPECT_EQ(std::memcmp(lane.data(), pushed[l].data(),
                          lane.size() * sizeof(Complex)),
              0)
        << "lane " << l;
  }
  // The second block holds lane 8 in slot 0; slots 1..7 stay zero.
  const std::span<const double> second =
      lanes.data().subspan(ap.element_count() * 2 * mmwave::kLanes);
  for (std::size_t i = 0; i < second.size(); ++i)
    if (i % mmwave::kLanes != 0) {
      EXPECT_TRUE(same_bits(second[i], 0.0)) << i;
    }
}

TEST(ArrayGains, CodebookGainsEqualEachBeamsGain) {
  // Codebook sizes that are not a multiple of the block, and one that is.
  struct Grid {
    std::size_t az;
    std::size_t el;
  };
  constexpr Grid kGrids[] = {{1, 1}, {5, 3}, {13, 3}, {8, 2}, {17, 1}};
  Rng rng(41);
  for (const Geometry g : kGeometries) {
    const mmwave::PhasedArray ap = array_of(g.ny, g.nz);
    for (const Grid grid : kGrids) {
      mmwave::CodebookConfig config;
      config.az_steps = grid.az;
      config.el_steps = grid.el;
      const mmwave::Codebook codebook(ap, config);
      ASSERT_EQ(codebook.size(), grid.az * grid.el);
      std::vector<double> gains(codebook.size());
      for (int trial = 0; trial < 10; ++trial) {
        const Steering response = ap.steering(random_direction(rng));
        codebook.gains(response, gains);
        for (std::size_t i = 0; i < codebook.size(); ++i)
          EXPECT_TRUE(same_bits(gains[i], response.gain(codebook.beam(i))))
              << g.ny << "x" << g.nz << " codebook " << codebook.size()
              << " sector " << i;
      }
      // A response of another array has the wrong length: every gain is 0,
      // as Steering::gain gives.
      const Steering foreign = array_of(2, 2).steering({1, 0, 0});
      codebook.gains(foreign, gains);
      for (const double gain : gains)
        EXPECT_TRUE(same_bits(gain, 0.0));
    }
  }
}

}  // namespace
}  // namespace volcast
