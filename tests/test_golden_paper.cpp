// Golden regression tests pinning the headline paper reproductions
// (ISSUE 3): Table 1 supported-user counts and Fig. 2 viewport-similarity
// statistics, with explicit tolerances. These mirror the measurement code
// of bench_table1 / bench_fig2_viewport_similarity so drift in any layer
// underneath (codec bitrates, visibility pipeline, capacity model, mobility
// models) fails ctest instead of silently bending the paper's numbers.
// ctest runs these under the `golden` (and `slow`) labels.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "common/stats.h"
#include "phy80211/capacity.h"
#include "pointcloud/cell_grid.h"
#include "pointcloud/video_generator.h"
#include "pointcloud/video_store.h"
#include "trace/user_study.h"
#include "viewport/similarity.h"
#include "viewport/visibility.h"

namespace volcast {
namespace {

// --- Table 1 ---------------------------------------------------------------

/// Mean fraction of the stream a ViVo client actually fetches, measured
/// over the user-study traces with the full visibility pipeline (the
/// bench_table1 measurement, verbatim strides).
double measure_vivo_fetch_fraction(const vv::CellGrid& grid,
                                   const vv::VideoStore& store,
                                   std::size_t tier) {
  const trace::UserStudy study;
  view::VisibilityOptions options;
  double fetched = 0.0;
  double full = 0.0;
  for (std::size_t f = 0; f < store.frame_count(); f += 3) {
    std::vector<std::uint32_t> occupancy(grid.cell_count());
    for (vv::CellId c = 0; c < grid.cell_count(); ++c)
      occupancy[c] = store.cell_points(f, tier, c);
    const double frame_bytes = static_cast<double>(store.frame_bytes(f, tier));
    for (std::size_t u = 0; u < study.user_count(); u += 4) {
      options.intrinsics = view::device_intrinsics(study.device_of(u));
      const auto map = view::compute_visibility(
          grid, occupancy, study.trace(u).poses[f % 300], options);
      double user_bytes = 0.0;
      for (vv::CellId c = 0; c < grid.cell_count(); ++c) {
        if (map.lod(c) > 0.0)
          user_bytes +=
              static_cast<double>(store.cell_bytes(f, tier, c)) * map.lod(c);
      }
      fetched += user_bytes;
      full += frame_bytes;
    }
  }
  return full > 0.0 ? fetched / full : 1.0;
}

/// Users sustained at >= 29.5 FPS for an effective bitrate (the bench's
/// headline reduction).
std::size_t users_at_30(phy::WlanStandard standard, double bitrate_mbps) {
  std::size_t n = 0;
  for (std::size_t users = 1; users <= 12; ++users) {
    const double rate =
        phy::CapacityModel::per_user_goodput_mbps(standard, users);
    if (phy::max_achievable_fps(rate, bitrate_mbps) >= 29.5) n = users;
  }
  return n;
}

TEST(GoldenTable1, SupportedUsersAndBitratesMatchPaper) {
  // Full-scale content: the paper's 550K master with the 330K/430K tiers.
  vv::VideoConfig vc;
  vc.points_per_frame = 550'000;
  vc.frame_count = 30;
  const vv::VideoGenerator generator(vc);
  const vv::CellGrid grid(generator.content_bounds(), 0.25);
  vv::VideoStoreConfig sc;
  sc.sample_frames = 2;
  const vv::VideoStore store(generator, grid, sc);
  ASSERT_EQ(store.tier_count(), 3u);

  // Encoded tier bitrates: the paper's Draco pipeline lands at 235-364
  // Mbps; our codec is calibrated to ~236/301/378 (tolerance ±6%).
  EXPECT_NEAR(store.tier_bitrate_mbps(0), 236.0, 14.0);
  EXPECT_NEAR(store.tier_bitrate_mbps(1), 301.0, 18.0);
  EXPECT_NEAR(store.tier_bitrate_mbps(2), 378.0, 23.0);
  // Tiers must stay strictly ordered.
  EXPECT_LT(store.tier_bitrate_mbps(0), store.tier_bitrate_mbps(1));
  EXPECT_LT(store.tier_bitrate_mbps(1), store.tier_bitrate_mbps(2));

  // ViVo's visibility culling fetches ~0.61-0.70 of the stream (paper-
  // implied band); measured 0.66 on the 32-user study.
  std::vector<double> fraction(store.tier_count());
  for (std::size_t q = 0; q < store.tier_count(); ++q) {
    fraction[q] = measure_vivo_fetch_fraction(grid, store, q);
    EXPECT_GT(fraction[q], 0.58) << "tier " << q;
    EXPECT_LT(fraction[q], 0.74) << "tier " << q;
  }

  // The headline decision boundary (paper text + README): at 550K points,
  // 802.11ad sustains 3 users at 30 FPS vanilla and 4 with ViVo; 802.11ac
  // sustains 1 either way.
  const double b550 = store.tier_bitrate_mbps(2);
  EXPECT_EQ(users_at_30(phy::WlanStandard::k80211ad, b550), 3u);
  EXPECT_EQ(users_at_30(phy::WlanStandard::k80211ad, b550 * fraction[2]), 4u);
  EXPECT_EQ(users_at_30(phy::WlanStandard::k80211ac, b550), 1u);
  EXPECT_EQ(users_at_30(phy::WlanStandard::k80211ac, b550 * fraction[2]), 1u);
}

// --- Fig. 2 ----------------------------------------------------------------

struct Fig2Setup {
  vv::VideoGenerator generator;
  trace::UserStudy study;

  Fig2Setup()
      : generator([] {
          vv::VideoConfig vc;
          vc.points_per_frame = 100'000;  // occupancy-faithful, fast
          vc.frame_count = 300;
          return vc;
        }()) {}
};

std::vector<view::VisibilityMap> frame_maps(
    const Fig2Setup& s, const vv::CellGrid& grid, std::size_t frame,
    const std::vector<std::size_t>& users) {
  const auto occupancy = grid.occupancy(s.generator.frame_soa(frame));
  std::vector<view::VisibilityMap> maps;
  maps.reserve(users.size());
  for (std::size_t u : users) {
    view::VisibilityOptions options;
    options.intrinsics = view::device_intrinsics(s.study.device_of(u));
    maps.push_back(view::compute_visibility(
        grid, occupancy, s.study.trace(u).poses[frame], options));
  }
  return maps;
}

EmpiricalDistribution iou_distribution(const Fig2Setup& s,
                                       const vv::CellGrid& grid,
                                       trace::DeviceType device,
                                       std::size_t group_size) {
  const auto users = s.study.users_of(device);
  EmpiricalDistribution dist;
  for (std::size_t f = 0; f < 300; f += 5) {
    const auto maps = frame_maps(s, grid, f, users);
    const std::size_t n = std::min<std::size_t>(maps.size(), 10);
    if (group_size == 2) {
      for (std::size_t i = 0; i < n; ++i)
        for (std::size_t j = i + 1; j < n; ++j)
          dist.add(view::iou(maps[i], maps[j]));
    } else {
      for (std::size_t i = 0; i < n; ++i)
        for (std::size_t j = i + 1; j < n; ++j)
          for (std::size_t k = j + 1; k < n; ++k) {
            const view::VisibilityMap* group[] = {&maps[i], &maps[j],
                                                  &maps[k]};
            dist.add(view::group_iou(group));
          }
    }
  }
  return dist;
}

TEST(GoldenFig2, SimilarityStatisticsMatchPaperOrdering) {
  const Fig2Setup s;
  const vv::CellGrid grid50(s.generator.content_bounds(), 0.50);
  const vv::CellGrid grid100(s.generator.content_bounds(), 1.00);

  const EmpiricalDistribution hm2_100 =
      iou_distribution(s, grid100, trace::DeviceType::kHeadset, 2);
  const EmpiricalDistribution hm2_50 =
      iou_distribution(s, grid50, trace::DeviceType::kHeadset, 2);
  const EmpiricalDistribution ph2_50 =
      iou_distribution(s, grid50, trace::DeviceType::kSmartphone, 2);
  const EmpiricalDistribution hm3_50 =
      iou_distribution(s, grid50, trace::DeviceType::kHeadset, 3);

  // Pinned means (bench_fig2 measured 0.93 / 0.76 / 0.97 / 0.65), ±0.05.
  EXPECT_NEAR(hm2_100.mean(), 0.93, 0.05);
  EXPECT_NEAR(hm2_50.mean(), 0.76, 0.05);
  EXPECT_NEAR(ph2_50.mean(), 0.97, 0.05);
  EXPECT_NEAR(hm3_50.mean(), 0.65, 0.05);

  // Pinned medians for the two non-saturated curves, ±0.05.
  EXPECT_NEAR(hm2_50.median(), 0.80, 0.05);
  EXPECT_NEAR(hm3_50.median(), 0.70, 0.05);

  // The paper's qualitative claims, as strict inequalities: phones overlap
  // more than headsets, coarse cells more than fine, pairs more than
  // triples.
  EXPECT_GT(ph2_50.mean(), hm2_100.mean());
  EXPECT_GT(hm2_100.mean(), hm2_50.mean());
  EXPECT_GT(hm2_50.mean(), hm3_50.mean());
}

}  // namespace
}  // namespace volcast
