#include "mmwave/beam_design.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>

#include "common/rng.h"
#include "common/units.h"
#include "mmwave/link.h"

namespace volcast::mmwave {
namespace {

struct Rig {
  Channel channel{Room{}};
  geo::Pose ap_pose = geo::Pose::look_at({4, 0.1, 2.6}, {4, 3, 1.2});
  PhasedArray ap{{}, ap_pose, kMmWaveCarrierHz};
  LinkBudget budget{};
};

TEST(CombineAwvs, RejectsBadInput) {
  Awv out;
  EXPECT_THROW(combine_awvs({}, {}, out), std::invalid_argument);
  const Awv a(32, Complex{0.17, 0.0});
  const Awv* beams[] = {&a, &a};
  const double bad_rss[] = {1.0};
  EXPECT_THROW(combine_awvs(beams, bad_rss, out), std::invalid_argument);
  const double neg_rss[] = {1.0, -2.0};
  EXPECT_THROW(combine_awvs(beams, neg_rss, out), std::invalid_argument);
  const Awv short_awv(4, Complex{0.5, 0.0});
  const Awv* ragged[] = {&a, &short_awv};
  const double ok_rss[] = {1.0, 1.0};
  EXPECT_THROW(combine_awvs(ragged, ok_rss, out), std::invalid_argument);
}

TEST(CombineAwvs, OutputPowerNormalized) {
  Rig s;
  const Awv b1 = s.ap.steer_at({2, 3, 1.5});
  const Awv b2 = s.ap.steer_at({6, 3, 1.5});
  const Awv* beams[] = {&b1, &b2};
  const double rss[] = {1e-6, 1e-6};
  Awv combined;
  combine_awvs(beams, rss, combined);
  double power = 0.0;
  for (const Complex& c : combined) power += std::norm(c);
  EXPECT_NEAR(power, 1.0, 1e-9);
}

TEST(CombineAwvs, TwoLobesCoverBothUsers) {
  Rig s;
  const geo::Vec3 u1{2.0, 3.0, 1.5};
  const geo::Vec3 u2{6.0, 3.0, 1.5};
  const Awv b1 = s.ap.steer_at(u1);
  const Awv b2 = s.ap.steer_at(u2);
  const Awv* beams[] = {&b1, &b2};
  const double rss[] = {1e-6, 1e-6};
  Awv combined;
  combine_awvs(beams, rss, combined);
  const double g1 = s.ap.gain(combined, u1 - s.ap.pose().position);
  const double g2 = s.ap.gain(combined, u2 - s.ap.pose().position);
  // Each user keeps a lobe within ~7 dB of the peak single-user gain
  // (half the power per lobe plus combining loss).
  const double solo1 = s.ap.gain(b1, u1 - s.ap.pose().position);
  const double solo2 = s.ap.gain(b2, u2 - s.ap.pose().position);
  EXPECT_GT(g1, solo1 * 0.2);
  EXPECT_GT(g2, solo2 * 0.2);
}

TEST(CombineAwvs, PaperRuleMatchesInverseRssWeights) {
  // For k=2 the implementation must equal (D2 w1 + D1 w2)/(D1 + D2) up to
  // normalization.
  Rig s;
  const Awv w1 = s.ap.steer_at({2, 3, 1.5});
  const Awv w2 = s.ap.steer_at({6, 3, 1.5});
  const double d1 = 4e-6;
  const double d2 = 1e-6;
  const Awv* beams[] = {&w1, &w2};
  const double rss[] = {d1, d2};
  Awv ours;
  combine_awvs(beams, rss, ours);

  Awv paper(w1.size());
  for (std::size_t i = 0; i < w1.size(); ++i)
    paper[i] = (d2 * w1[i] + d1 * w2[i]) / (d1 + d2);
  power_normalize(paper);

  for (std::size_t i = 0; i < ours.size(); ++i) {
    EXPECT_NEAR(ours[i].real(), paper[i].real(), 1e-9);
    EXPECT_NEAR(ours[i].imag(), paper[i].imag(), 1e-9);
  }
}

TEST(CombineAwvs, WeakerUserGetsMorePower) {
  Rig s;
  const geo::Vec3 u1{2.0, 3.0, 1.5};
  const geo::Vec3 u2{6.0, 3.0, 1.5};
  const Awv b1 = s.ap.steer_at(u1);
  const Awv b2 = s.ap.steer_at(u2);
  const Awv* beams[] = {&b1, &b2};
  // User 2 much weaker: its lobe must come out stronger than user 1's.
  const double rss[] = {1e-5, 1e-7};
  Awv combined;
  combine_awvs(beams, rss, combined);
  const double g1 = s.ap.gain(combined, u1 - s.ap.pose().position);
  const double g2 = s.ap.gain(combined, u2 - s.ap.pose().position);
  EXPECT_GT(g2, g1);
}

TEST(CombineAwvs, EqualWeightIsSymmetric) {
  // The equal-weight ablation baseline is combine_awvs with equal RSS. On
  // two beams each weight is exactly 1/2, so the result is the hand-summed,
  // power-normalized AWV bit for bit, whatever the common RSS. (On three
  // beams the weights are not exact and the last bits differ.)
  Rig s;
  Rng rng(31);
  for (int trial = 0; trial < 500; ++trial) {
    const Awv b1 = s.ap.steer_at(
        {rng.uniform(0.5, 7.5), rng.uniform(1.0, 5.5), rng.uniform(0.5, 2.0)});
    const Awv b2 = s.ap.steer_at(
        {rng.uniform(0.5, 7.5), rng.uniform(1.0, 5.5), rng.uniform(0.5, 2.0)});
    const double r = std::pow(10.0, rng.uniform(-12.0, -3.0));
    const Awv* pair[] = {&b1, &b2};
    const double equal_rss[] = {r, r};
    Awv combined;
    combine_awvs(pair, equal_rss, combined);
    Awv summed(b1.size(), Complex{0.0, 0.0});
    for (const Awv* b : pair)
      for (std::size_t i = 0; i < summed.size(); ++i) summed[i] += (*b)[i];
    power_normalize(summed);
    ASSERT_EQ(combined.size(), summed.size());
    ASSERT_EQ(std::memcmp(combined.data(), summed.data(),
                          summed.size() * sizeof(Complex)),
              0)
        << "trial " << trial;
  }

  const Awv b1 = s.ap.steer_at({2, 3, 1.5});
  const Awv b2 = s.ap.steer_at({6, 3, 1.5});
  const Awv* beams[] = {&b1, &b2};
  const double rss[] = {1e-6, 1e-6};
  Awv combined;
  combine_awvs(beams, rss, combined);
  const double g1 =
      s.ap.gain(combined, geo::Vec3{2, 3, 1.5} - s.ap.pose().position);
  const double g2 =
      s.ap.gain(combined, geo::Vec3{6, 3, 1.5} - s.ap.pose().position);
  EXPECT_NEAR(ratio_to_db(g1 / g2), 0.0, 2.0);
}

TEST(CombineAwvs, ImprovesMinRssOverCommonSector) {
  // The Fig. 3d claim, end to end: for separated users the combined beam's
  // worst-member RSS beats the best stock common sector.
  Rig s;
  Codebook cb(s.ap);
  const geo::Vec3 u1{2.5, 3.2, 1.5};
  const geo::Vec3 u2{5.8, 2.8, 1.5};
  const geo::Vec3 both[] = {u1, u2};
  const Awv stock = cb.beam(cb.best_common_beam(s.ap, both));
  const double stock_min =
      std::min(rss_dbm(s.ap, stock, s.channel, u1, {}, s.budget),
               rss_dbm(s.ap, stock, s.channel, u2, {}, s.budget));

  const Awv b1 = s.ap.steer_at(u1);
  const Awv b2 = s.ap.steer_at(u2);
  const double r1 = rss_dbm(s.ap, b1, s.channel, u1, {}, s.budget);
  const double r2 = rss_dbm(s.ap, b2, s.channel, u2, {}, s.budget);
  const Awv* beams[] = {&b1, &b2};
  const double rss_mw[] = {dbm_to_mw(r1), dbm_to_mw(r2)};
  Awv custom;
  combine_awvs(beams, rss_mw, custom);
  const double custom_min =
      std::min(rss_dbm(s.ap, custom, s.channel, u1, {}, s.budget),
               rss_dbm(s.ap, custom, s.channel, u2, {}, s.budget));
  EXPECT_GT(custom_min, stock_min + 3.0);
}

class CombineGroupSize : public ::testing::TestWithParam<int> {};

TEST_P(CombineGroupSize, PowerNormalizedForKUsers) {
  Rig s;
  std::vector<Awv> beams;
  std::vector<double> rss;
  for (int i = 0; i < GetParam(); ++i) {
    beams.push_back(
        s.ap.steer_at({1.5 + i * 1.2, 3.0, 1.5}));
    rss.push_back(1e-6 * (i + 1));
  }
  std::vector<const Awv*> beam_ptrs;
  for (const Awv& b : beams) beam_ptrs.push_back(&b);
  Awv combined;
  combine_awvs(beam_ptrs, rss, combined);
  double power = 0.0;
  for (const Complex& c : combined) power += std::norm(c);
  EXPECT_NEAR(power, 1.0, 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Sizes, CombineGroupSize, ::testing::Values(1, 2, 3,
                                                                    4, 5));

}  // namespace
}  // namespace volcast::mmwave
