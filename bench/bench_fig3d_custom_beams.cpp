// Reproduces Fig. 3d: CDF of the common (worst-member) RSS for two-user
// multicast with the default codebook vs. the paper's customized multi-lobe
// beams, on the same user positions. Also reports the "max common RSS
// improvement" the paper circles, and the ablation the design section
// implies: RSS-weighted vs. equal-weight AWV combination.
#include <cstdio>

#include "common/stats.h"
#include "common/units.h"
#include "core/beam_designer.h"
#include "mmwave/beam_design.h"
#include "mmwave/link.h"
#include "trace/user_study.h"

using namespace volcast;

int main() {
  std::printf("=== Fig. 3d: default vs customized beams, 2-user multicast "
              "===\n");
  core::Testbed testbed;
  trace::UserStudyConfig study_config;
  study_config.content_center =
      testbed.config().content_floor + geo::Vec3{0, 0, 1.1};
  const trace::UserStudy study(study_config);

  Rng rng(31337);
  auto random_position = [&] {
    const auto user = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(study.user_count()) - 1));
    const auto& poses = study.trace(user).poses;
    return poses[static_cast<std::size_t>(rng.uniform_int(
                     0, static_cast<std::int64_t>(poses.size()) - 1))]
        .position;
  };

  auto min_rss = [&](const mmwave::Awv& beam, const geo::Vec3& u1,
                     const geo::Vec3& u2) {
    return std::min(mmwave::rss_dbm(testbed.ap(), beam, testbed.channel(), u1,
                                    {}, testbed.budget()),
                    mmwave::rss_dbm(testbed.ap(), beam, testbed.channel(), u2,
                                    {}, testbed.budget()));
  };

  EmpiricalDistribution stock_dist, custom_dist, equal_dist, improvement;
  constexpr int kTrials = 4000;
  mmwave::Awv combined;
  for (int trial = 0; trial < kTrials; ++trial) {
    const geo::Vec3 u1 = random_position();
    const geo::Vec3 u2 = random_position();

    const geo::Vec3 group[] = {u1, u2};
    const auto stock_beam = testbed.codebook().beam(
        testbed.codebook().best_common_beam(testbed.ap(), group));
    const double stock = min_rss(stock_beam, u1, u2);

    const mmwave::Awv b1 = testbed.ap().steer_at(u1);
    const mmwave::Awv b2 = testbed.ap().steer_at(u2);
    const double r1 = mmwave::rss_dbm(testbed.ap(), b1, testbed.channel(), u1,
                                      {}, testbed.budget());
    const double r2 = mmwave::rss_dbm(testbed.ap(), b2, testbed.channel(), u2,
                                      {}, testbed.budget());
    const mmwave::Awv* beams[] = {&b1, &b2};
    const double rss_mw[] = {dbm_to_mw(r1), dbm_to_mw(r2)};
    mmwave::combine_awvs(beams, rss_mw, combined);
    const double custom = min_rss(combined, u1, u2);
    // Equal RSS weighs both beams 1/2: the plain, power-normalized sum.
    const double equal_rss[] = {1.0, 1.0};
    mmwave::combine_awvs(beams, equal_rss, combined);
    const double equal = min_rss(combined, u1, u2);

    stock_dist.add(stock);
    custom_dist.add(custom);
    equal_dist.add(equal);
    improvement.add(custom - stock);
  }

  auto report = [](const char* label, const EmpiricalDistribution& d) {
    std::printf("%s: p5=%.1f median=%.1f p95=%.1f dBm | >= -68 dBm: %.1f%%\n",
                label, d.percentile(5), d.median(), d.percentile(95),
                100.0 * (1.0 - d.cdf(-68.0)));
  };
  report("default codebook      ", stock_dist);
  report("custom two-lobe (RSS) ", custom_dist);
  report("custom two-lobe equal ", equal_dist);
  std::printf("\ncommon-RSS improvement custom-vs-default: median=%.1f dB, "
              "p90=%.1f dB, max=%.1f dB\n",
              improvement.median(), improvement.percentile(90),
              improvement.max());
  std::printf("(paper Fig. 3d: customized beams shift the whole CDF right; "
              "the circled region marks the max common-RSS improvement)\n");

  std::printf("\nCDF series (x = RSS dBm, y = CDF):\n");
  std::printf("-- default beam --\n%s", stock_dist.format_cdf(10).c_str());
  std::printf("-- customized beams --\n%s",
              custom_dist.format_cdf(10).c_str());
  return 0;
}
