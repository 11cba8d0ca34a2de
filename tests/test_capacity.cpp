#include "phy80211/capacity.h"

#include <gtest/gtest.h>

namespace volcast::phy {
namespace {

TEST(Capacity, PaperSingleUserRates) {
  EXPECT_DOUBLE_EQ(
      CapacityModel::per_user_goodput_mbps(WlanStandard::k80211ac, 1), 374.0);
  EXPECT_DOUBLE_EQ(
      CapacityModel::per_user_goodput_mbps(WlanStandard::k80211ad, 1),
      1270.0);
}

TEST(Capacity, Table1PerUserRatesReproduced) {
  // The measured column of Table 1.
  const double ac[] = {374, 180, 112};
  for (std::size_t n = 1; n <= 3; ++n)
    EXPECT_DOUBLE_EQ(
        CapacityModel::per_user_goodput_mbps(WlanStandard::k80211ac, n),
        ac[n - 1]);
  const double ad[] = {1270, 575, 382, 298, 231, 175, 144};
  for (std::size_t n = 1; n <= 7; ++n)
    EXPECT_DOUBLE_EQ(
        CapacityModel::per_user_goodput_mbps(WlanStandard::k80211ad, n),
        ad[n - 1]);
}

TEST(Capacity, ZeroUsersZeroGoodput) {
  EXPECT_EQ(CapacityModel::total_goodput_mbps(WlanStandard::k80211ad, 0),
            0.0);
  EXPECT_EQ(CapacityModel::per_user_goodput_mbps(WlanStandard::k80211ac, 0),
            0.0);
}

TEST(Capacity, ExtrapolationDecaysGently) {
  const double at7 =
      CapacityModel::total_goodput_mbps(WlanStandard::k80211ad, 7);
  const double at8 =
      CapacityModel::total_goodput_mbps(WlanStandard::k80211ad, 8);
  const double at20 =
      CapacityModel::total_goodput_mbps(WlanStandard::k80211ad, 20);
  EXPECT_LT(at8, at7);
  EXPECT_GT(at8, at7 * 0.9);
  EXPECT_GE(at20, at7 * 0.6);  // floor
}

TEST(Capacity, AdAlwaysBeatsAc) {
  for (std::size_t n = 1; n <= 10; ++n) {
    EXPECT_GT(CapacityModel::total_goodput_mbps(WlanStandard::k80211ad, n),
              CapacityModel::total_goodput_mbps(WlanStandard::k80211ac, n));
  }
}

TEST(Capacity, Names) {
  EXPECT_STREQ(to_string(WlanStandard::k80211ac), "802.11ac");
  EXPECT_STREQ(to_string(WlanStandard::k80211ad), "802.11ad");
}

TEST(MaxFps, CappedByDecode) {
  // Plenty of bandwidth: decode cap binds.
  EXPECT_DOUBLE_EQ(max_achievable_fps(1270.0, 300.0), 30.0);
}

TEST(MaxFps, NetworkBound) {
  // Table 1 vanilla ac, 2 users, low tier: 30 * 180 / 251 = 21.5.
  EXPECT_NEAR(max_achievable_fps(180.0, 251.0), 21.5, 0.05);
}

TEST(MaxFps, ZeroBitrateIsZero) {
  EXPECT_EQ(max_achievable_fps(100.0, 0.0), 0.0);
  EXPECT_EQ(max_achievable_fps(100.0, 300.0, 0.0), 0.0);
}

TEST(MaxFps, ScalesLinearlyWithGoodputBelowCap) {
  const double f1 = max_achievable_fps(100.0, 400.0);
  const double f2 = max_achievable_fps(200.0, 400.0);
  EXPECT_NEAR(f2, 2.0 * f1, 1e-9);
}

class FpsMonotoneSweep : public ::testing::TestWithParam<double> {};

TEST_P(FpsMonotoneSweep, MoreUsersNeverMoreFps) {
  // Per-user FPS can only fall as users join (Table 1's vertical shape).
  const double bitrate = GetParam();
  double last = 1e9;
  for (std::size_t n = 1; n <= 8; ++n) {
    const double fps = max_achievable_fps(
        CapacityModel::per_user_goodput_mbps(WlanStandard::k80211ad, n),
        bitrate);
    EXPECT_LE(fps, last + 1e-9);
    last = fps;
  }
}

INSTANTIATE_TEST_SUITE_P(Bitrates, FpsMonotoneSweep,
                         ::testing::Values(150.0, 251.0, 310.0, 395.0,
                                           600.0));

}  // namespace
}  // namespace volcast::phy
