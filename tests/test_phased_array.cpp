#include "mmwave/phased_array.h"

#include <gtest/gtest.h>

#include <cmath>

#include "common/units.h"

namespace volcast::mmwave {
namespace {

PhasedArray default_array() {
  geo::Pose pose;  // boresight +X, elements in the Y-Z plane
  return PhasedArray({}, pose, kMmWaveCarrierHz);
}

TEST(PhasedArray, RejectsBadArguments) {
  geo::Pose pose;
  ArrayGeometry empty;
  empty.ny = 0;
  EXPECT_THROW(PhasedArray(empty, pose, kMmWaveCarrierHz),
               std::invalid_argument);
  EXPECT_THROW(PhasedArray({}, pose, 0.0), std::invalid_argument);
}

TEST(PhasedArray, ElementCountMatchesGeometry) {
  const auto array = default_array();
  EXPECT_EQ(array.element_count(), 32u);
}

TEST(PhasedArray, SteeredAwvIsPowerNormalized) {
  const auto array = default_array();
  const Awv w = array.steer({1, 0.3, -0.2});
  double power = 0.0;
  for (const Complex& c : w) power += std::norm(c);
  EXPECT_NEAR(power, 1.0, 1e-12);
}

TEST(PhasedArray, PeakGainAtSteeredDirection) {
  const auto array = default_array();
  const geo::Vec3 dir = geo::Vec3{1, 0.4, 0.1}.normalized();
  const Awv w = array.steer(dir);
  const double peak = array.gain(w, dir);
  // Peak = N * element_gain: grazing reduces element gain below 4.
  EXPECT_GT(peak, 32.0);
  // Any other direction has less gain.
  for (double az = -1.2; az <= 1.2; az += 0.1) {
    const geo::Vec3 other{std::cos(az), std::sin(az), 0.0};
    EXPECT_LE(array.gain(w, other), peak + 1e-9);
  }
}

TEST(PhasedArray, BoresightPeakGainValue) {
  const auto array = default_array();
  const Awv w = array.steer({1, 0, 0});
  // 32 elements x element peak 4 = 128 (21.07 dBi).
  EXPECT_NEAR(array.gain(w, {1, 0, 0}), 128.0, 1e-6);
  EXPECT_NEAR(array.gain_dbi(w, {1, 0, 0}), 21.07, 0.01);
}

TEST(PhasedArray, BackLobeSuppressed) {
  const auto array = default_array();
  const Awv w = array.steer({1, 0, 0});
  EXPECT_LT(array.gain_dbi(w, {-1, 0, 0}), 0.0);
}

TEST(PhasedArray, SteeringOffBoresightReducesPeak) {
  const auto array = default_array();
  const geo::Vec3 broadside{1, 0, 0};
  const geo::Vec3 steered = geo::Vec3{1, 1, 0}.normalized();  // 45 degrees
  const double g0 =
      array.gain(array.steer(broadside), broadside);
  const double g45 = array.gain(array.steer(steered), steered);
  EXPECT_LT(g45, g0);
  EXPECT_GT(g45, g0 * 0.3);  // cos^2(45) = 0.5 element rolloff
}

TEST(PhasedArray, NarrowMainLobe) {
  // 8 half-wavelength columns -> ~12.7 degree azimuth beamwidth; gain 3
  // dB down within ~7 degrees of boresight.
  const auto array = default_array();
  const Awv w = array.steer({1, 0, 0});
  const double peak = array.gain(w, {1, 0, 0});
  const double off7 =
      array.gain(w, {std::cos(0.125), std::sin(0.125), 0.0});
  EXPECT_LT(off7, peak * 0.6);
}

TEST(PhasedArray, GainFollowsArrayPose) {
  // Mount the array looking along +Y; boresight gain must move with it.
  const geo::Pose pose = geo::Pose::look_at({0, 0, 0}, {0, 5, 0});
  const PhasedArray array({}, pose, kMmWaveCarrierHz);
  const Awv w = array.steer({0, 1, 0});
  EXPECT_NEAR(array.gain(w, {0, 1, 0}), 128.0, 1e-6);
  EXPECT_LT(array.gain(w, {1, 0, 0}), 1.0);
}

TEST(PhasedArray, SteerAtUsesArrayOrigin) {
  geo::Pose pose;
  pose.position = {2, 3, 1};
  const PhasedArray array({}, pose, kMmWaveCarrierHz);
  const geo::Vec3 target{7, 3, 1};
  const Awv w = array.steer_at(target);
  const geo::Vec3 dir = (target - pose.position).normalized();
  EXPECT_NEAR(array.gain(w, dir), 128.0, 1e-6);
}

TEST(PhasedArray, MismatchedAwvGivesZeroGain) {
  const auto array = default_array();
  Awv wrong(5, Complex{1.0, 0.0});
  EXPECT_EQ(array.gain(wrong, {1, 0, 0}), 0.0);
}

TEST(PowerNormalized, ZeroVectorUnchanged) {
  Awv zero(4, Complex{0.0, 0.0});
  power_normalize(zero);
  for (const Complex& c : zero) EXPECT_EQ(c, Complex(0.0, 0.0));
}

TEST(ElementGain, CosineSquaredShape) {
  EXPECT_DOUBLE_EQ(PhasedArray::element_gain(1.0), 4.0);
  EXPECT_DOUBLE_EQ(PhasedArray::element_gain(0.5), 1.0);
  EXPECT_LT(PhasedArray::element_gain(-0.5), 0.01);
}

class SteeringSweep : public ::testing::TestWithParam<double> {};

TEST_P(SteeringSweep, SteeredBeamPeaksWhereAsked) {
  const auto array = default_array();
  const double az = GetParam();
  const geo::Vec3 dir{std::cos(az), std::sin(az), 0.0};
  const Awv w = array.steer(dir);
  const double at_target = array.gain(w, dir);
  // Sample nearby directions: target must be within 1% of the local max.
  for (double d = -0.1; d <= 0.1; d += 0.02) {
    const geo::Vec3 near_dir{std::cos(az + d), std::sin(az + d), 0.0};
    EXPECT_LE(array.gain(w, near_dir), at_target * 1.01);
  }
}

INSTANTIATE_TEST_SUITE_P(Azimuths, SteeringSweep,
                         ::testing::Values(-0.5, -0.35, -0.2, 0.0, 0.2, 0.35,
                                           0.5));

}  // namespace
}  // namespace volcast::mmwave
