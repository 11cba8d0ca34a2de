// Reproduces Table 1: "Performance of multi-user volumetric video streaming
// with vanilla and ViVo systems" — maximum achievable FPS per user count
// (802.11ac 1-3, 802.11ad 1-7) and per quality tier (330K/430K/550K points).
//
// Pipeline: the synthetic soldier video is encoded per cell through the real
// codec to obtain each tier's bitrate; the vanilla system fetches whole
// frames; the multi-user ViVo system fetches only the cells its visibility
// pipeline (viewport + occlusion + distance) marks, measured against the
// 32-user study traces. Per-user goodput comes from the capacity model
// calibrated to the paper's own testbed measurements.
#include <cstdio>
#include <string>
#include <vector>

#include "common/table.h"
#include "common/units.h"
#include "phy80211/capacity.h"
#include "pointcloud/cell_grid.h"
#include "pointcloud/video_store.h"
#include "trace/user_study.h"
#include "viewport/visibility.h"

using namespace volcast;

namespace {

/// Mean fraction of the stream a ViVo client actually fetches, measured
/// over the user-study traces with the full visibility pipeline.
double measure_vivo_fetch_fraction(const vv::CellGrid& grid,
                                   const vv::VideoStore& store,
                                   std::size_t tier) {
  const trace::UserStudy study;
  view::VisibilityOptions options;
  double fetched = 0.0;
  double full = 0.0;
  const std::size_t frame_count = store.frame_count();
  for (std::size_t f = 0; f < frame_count; f += 3) {
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

}  // namespace

int main() {
  std::printf("=== Table 1: multi-user volumetric streaming, vanilla vs "
              "multi-user ViVo ===\n");
  std::printf("(max achievable FPS, capped at 30 by the decode ceiling)\n\n");

  // Full-scale content: the paper's 550K master with the 330K/430K tiers.
  vv::VideoConfig vc;
  vc.points_per_frame = 550'000;
  vc.frame_count = 30;  // one looped second is enough for stable bitrates
  const vv::VideoGenerator generator(vc);
  const vv::CellGrid grid(generator.content_bounds(), 0.25);
  vv::VideoStoreConfig sc;
  sc.sample_frames = 2;
  const vv::VideoStore store(generator, grid, sc);

  std::vector<double> bitrate(store.tier_count());
  std::vector<double> vivo_fraction(store.tier_count());
  for (std::size_t q = 0; q < store.tier_count(); ++q) {
    bitrate[q] = store.tier_bitrate_mbps(q);
    vivo_fraction[q] =
        measure_vivo_fetch_fraction(grid, store, q);
  }

  std::printf("encoded tier bitrates (Mbps):");
  for (std::size_t q = 0; q < store.tier_count(); ++q)
    std::printf(" %s=%.0f", store.tiers()[q].name.c_str(), bitrate[q]);
  std::printf("   (paper: 235-364 Mbps after Draco)\n");
  std::printf("ViVo mean fetch fraction:");
  for (std::size_t q = 0; q < store.tier_count(); ++q)
    std::printf(" %s=%.2f", store.tiers()[q].name.c_str(), vivo_fraction[q]);
  std::printf("   (paper-implied: ~0.61-0.70)\n\n");

  AsciiTable table;
  table.header({"net", "users", "per-user Mbps", "vanilla 330K", "430K",
                "550K", "ViVo 330K", "430K", "550K"});
  struct NetSpec {
    phy::WlanStandard standard;
    std::size_t max_users;
  };
  const NetSpec nets[] = {{phy::WlanStandard::k80211ac, 3},
                          {phy::WlanStandard::k80211ad, 7}};
  for (const auto& net : nets) {
    for (std::size_t users = 1; users <= net.max_users; ++users) {
      const double rate =
          phy::CapacityModel::per_user_goodput_mbps(net.standard, users);
      std::vector<std::string> row{
          users == 1 ? to_string(net.standard) : "",
          std::to_string(users), AsciiTable::num(rate, 0)};
      for (std::size_t q = 0; q < store.tier_count(); ++q)
        row.push_back(
            AsciiTable::num(phy::max_achievable_fps(rate, bitrate[q]), 1));
      for (std::size_t q = 0; q < store.tier_count(); ++q)
        row.push_back(AsciiTable::num(
            phy::max_achievable_fps(rate, bitrate[q] * vivo_fraction[q]), 1));
      table.row(std::move(row));
    }
  }
  std::printf("%s\n", table.render().c_str());

  // Headline numbers the paper calls out in the text.
  auto users_at_30 = [&](phy::WlanStandard std_, bool vivo,
                         std::size_t tier) {
    std::size_t n = 0;
    for (std::size_t users = 1; users <= 12; ++users) {
      const double rate =
          phy::CapacityModel::per_user_goodput_mbps(std_, users);
      const double eff_bitrate =
          vivo ? bitrate[tier] * vivo_fraction[tier] : bitrate[tier];
      if (phy::max_achievable_fps(rate, eff_bitrate) >= 29.5) n = users;
    }
    return n;
  };
  std::printf("users sustained at 30 FPS (550K): 802.11ac vanilla=%zu "
              "ViVo=%zu | 802.11ad vanilla=%zu ViVo=%zu\n",
              users_at_30(phy::WlanStandard::k80211ac, false, 2),
              users_at_30(phy::WlanStandard::k80211ac, true, 2),
              users_at_30(phy::WlanStandard::k80211ad, false, 2),
              users_at_30(phy::WlanStandard::k80211ad, true, 2));
  std::printf("(paper: ad vanilla=3, ad ViVo=4 at 550K)\n");
  return 0;
}
