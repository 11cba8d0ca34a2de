#include "sim/arrival_queue.h"

#include <gtest/gtest.h>

#include <limits>
#include <stdexcept>
#include <vector>

namespace volcast::sim {
namespace {

Arrival arrival_at(double at, std::size_t user) {
  return Arrival{at, user, BufferedFrame{user, 0, 1.0}, true};
}

/// Lands everything due by `until` and returns the users in landing order.
std::vector<std::size_t> land_until(ArrivalQueue& q, double until) {
  std::vector<std::size_t> users;
  q.run_until(until, [&](const Arrival& a) { users.push_back(a.user); });
  return users;
}

TEST(ArrivalQueue, StartsAtZeroWithNothingDue) {
  ArrivalQueue q;
  EXPECT_EQ(q.now(), 0.0);
  EXPECT_TRUE(land_until(q, 0.0).empty());
}

TEST(ArrivalQueue, LandsInTimeOrder) {
  ArrivalQueue q;
  q.push(arrival_at(3.0, 3));
  q.push(arrival_at(1.0, 1));
  q.push(arrival_at(2.0, 2));
  EXPECT_EQ(land_until(q, std::numeric_limits<double>::infinity()),
            (std::vector<std::size_t>{1, 2, 3}));
}

TEST(ArrivalQueue, FifoForSimultaneousArrivals) {
  ArrivalQueue q;
  for (std::size_t u = 0; u < 10; ++u) q.push(arrival_at(1.0, u));
  EXPECT_EQ(land_until(q, 1.0),
            (std::vector<std::size_t>{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}));
}

TEST(ArrivalQueue, HandsOverTheWholeRecord) {
  ArrivalQueue q;
  q.push(Arrival{0.5, 4, BufferedFrame{17, 2, 1234.5}, false});
  std::vector<Arrival> landed;
  q.run_until(1.0, [&](const Arrival& a) { landed.push_back(a); });
  ASSERT_EQ(landed.size(), 1u);
  EXPECT_EQ(landed[0].at, 0.5);
  EXPECT_EQ(landed[0].user, 4u);
  EXPECT_EQ(landed[0].frame.frame_index, 17u);
  EXPECT_EQ(landed[0].frame.quality_tier, 2u);
  EXPECT_EQ(landed[0].frame.bits, 1234.5);
  EXPECT_FALSE(landed[0].intact);
}

TEST(ArrivalQueue, RejectsArrivalsInThePast) {
  ArrivalQueue q;
  q.push(arrival_at(5.0, 0));
  land_until(q, 5.0);
  EXPECT_THROW(q.push(arrival_at(4.0, 0)), std::invalid_argument);
  EXPECT_NO_THROW(q.push(arrival_at(5.0, 0)));  // "now" is not the past
}

TEST(ArrivalQueue, RunUntilStopsAtBoundaryInclusive) {
  ArrivalQueue q;
  for (std::size_t u = 1; u <= 4; ++u)
    q.push(arrival_at(static_cast<double>(u), u));
  EXPECT_EQ(land_until(q, 2.0), (std::vector<std::size_t>{1, 2}));
  EXPECT_DOUBLE_EQ(q.now(), 2.0);
  EXPECT_EQ(land_until(q, 4.0), (std::vector<std::size_t>{3, 4}));
}

TEST(ArrivalQueue, RunUntilAdvancesClockWithoutArrivals) {
  ArrivalQueue q;
  EXPECT_TRUE(land_until(q, 10.0).empty());
  EXPECT_DOUBLE_EQ(q.now(), 10.0);
  // The clock never runs backwards: an earlier bound leaves it at 10.
  EXPECT_TRUE(land_until(q, 3.0).empty());
  EXPECT_DOUBLE_EQ(q.now(), 10.0);
  EXPECT_THROW(q.push(arrival_at(9.0, 0)), std::invalid_argument);
}

TEST(ArrivalQueue, NowIsTheArrivalTimeInsideLand) {
  ArrivalQueue q;
  q.push(arrival_at(7.25, 0));
  q.push(arrival_at(8.5, 1));
  std::vector<double> seen;
  q.run_until(9.0, [&](const Arrival& a) {
    EXPECT_EQ(q.now(), a.at);
    seen.push_back(q.now());
  });
  EXPECT_EQ(seen, (std::vector<double>{7.25, 8.5}));
  EXPECT_DOUBLE_EQ(q.now(), 9.0);
}

}  // namespace
}  // namespace volcast::sim
