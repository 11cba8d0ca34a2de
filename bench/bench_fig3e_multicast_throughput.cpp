// Reproduces Fig. 3e: normalized throughput of unicast, multicast with
// default beams, and multicast with customized beams, for two users
// watching the same volumetric video.
//
// Throughput of a scheme = overlapped + residual bits deliverable in a
// frame interval, computed with the paper's T_m(k) group transmit-time
// model over real visibility overlap from the user-study traces and
// RSS -> MCS rates from the channel simulator. Values are normalized to the
// customized-beam scheme's mean (the tallest bar in the paper).
//
// Expected shape: multicast with default beams sometimes *loses* to unicast
// (unbalanced RSS drags the common MCS down); customized beams win clearly.
#include <cstdio>

#include "common/stats.h"
#include "common/units.h"
#include "core/testbed.h"
#include "mac/schedule.h"
#include "mmwave/beam_design.h"
#include "mmwave/link.h"
#include "pointcloud/video_generator.h"
#include "pointcloud/video_store.h"
#include "trace/user_study.h"
#include "viewport/similarity.h"

using namespace volcast;

int main() {
  std::printf("=== Fig. 3e: normalized throughput, 2-user delivery ===\n");
  core::Testbed testbed;

  // Content and visibility setup (content-local coordinates).
  vv::VideoConfig vc;
  vc.points_per_frame = 550'000;
  vc.frame_count = 30;
  const vv::VideoGenerator generator(vc);
  const vv::CellGrid grid(generator.content_bounds(), 0.25);
  vv::VideoStoreConfig sc;
  sc.sample_frames = 2;
  const vv::VideoStore store(generator, grid, sc);
  const std::size_t tier = store.tier_count() - 1;  // 550K quality

  const trace::UserStudy study;  // content-local positions

  auto room = [&](const geo::Vec3& p) { return testbed.to_room(p); };
  auto rate_for = [&](const mmwave::Awv& beam, const geo::Vec3& pos) {
    return testbed.mcs().goodput_mbps(
        mmwave::rss_dbm(testbed.ap(), beam, testbed.channel(), room(pos), {},
                        testbed.budget()));
  };
  auto visible_bits = [&](const view::VisibilityMap& map, std::size_t frame) {
    double bits = 0.0;
    for (vv::CellId c = 0; c < map.cell_count(); ++c)
      if (map.lod(c) > 0.0)
        bits += byte_bits(static_cast<double>(store.cell_bytes(frame, tier, c))) *
                map.lod(c);
    return bits;
  };

  RunningStats unicast_tput, stock_tput, custom_tput;
  int stock_loses_to_unicast = 0;
  int samples = 0;

  const auto hm_users = study.users_of(trace::DeviceType::kHeadset);
  view::VisibilityMap overlap;
  mmwave::Awv custom_beam;
  for (std::size_t f = 0; f < 30; f += 2) {
    const auto occupancy_counts = [&] {
      std::vector<std::uint32_t> occ(grid.cell_count());
      for (vv::CellId c = 0; c < grid.cell_count(); ++c)
        occ[c] = store.cell_points(f, tier, c);
      return occ;
    }();
    for (std::size_t i = 0; i + 1 < hm_users.size(); i += 2) {
      const auto& pose1 = study.trace(hm_users[i]).poses[f * 7 % 300];
      const auto& pose2 = study.trace(hm_users[i + 1]).poses[f * 7 % 300];
      view::VisibilityOptions options;
      options.intrinsics =
          view::device_intrinsics(trace::DeviceType::kHeadset);
      const auto map1 =
          view::compute_visibility(grid, occupancy_counts, pose1, options);
      const auto map2 =
          view::compute_visibility(grid, occupancy_counts, pose2, options);
      const view::VisibilityMap* both[] = {&map1, &map2};
      view::intersection(both, overlap);
      const double s1 = visible_bits(map1, f);
      const double s2 = visible_bits(map2, f);
      const double sm = visible_bits(overlap, f);
      if (s1 <= 0.0 || s2 <= 0.0) continue;

      // Rates.
      const mmwave::Awv b1 = testbed.ap().steer_at(room(pose1.position));
      const mmwave::Awv b2 = testbed.ap().steer_at(room(pose2.position));
      const double r1 = rate_for(b1, pose1.position);
      const double r2 = rate_for(b2, pose2.position);
      if (r1 <= 0.0 || r2 <= 0.0) continue;

      const geo::Vec3 group[] = {room(pose1.position), room(pose2.position)};
      const auto stock_beam = testbed.codebook().beam(
          testbed.codebook().best_common_beam(testbed.ap(), group));
      const double stock_rate =
          std::min(rate_for(stock_beam, pose1.position),
                   rate_for(stock_beam, pose2.position));

      const double rss1 = mmwave::rss_dbm(testbed.ap(), b1, testbed.channel(),
                                          room(pose1.position), {},
                                          testbed.budget());
      const double rss2 = mmwave::rss_dbm(testbed.ap(), b2, testbed.channel(),
                                          room(pose2.position), {},
                                          testbed.budget());
      const mmwave::Awv* beams[] = {&b1, &b2};
      const double rss_mw[] = {dbm_to_mw(rss1), dbm_to_mw(rss2)};
      mmwave::combine_awvs(beams, rss_mw, custom_beam);
      const double custom_rate =
          std::min(rate_for(custom_beam, pose1.position),
                   rate_for(custom_beam, pose2.position));

      // Scheme airtime via the T_m(k) model; throughput = bits / airtime.
      auto scheme_tput = [&](double multicast_rate) {
        mac::GroupPlan plan;
        plan.members = {{0, s1, sm, r1}, {1, s2, sm, r2}};
        plan.group_overlap_bits = multicast_rate > 0.0 ? sm : 0.0;
        plan.multicast_rate_mbps = multicast_rate;
        const double airtime = plan.transmit_time_s();
        return airtime > 0.0 ? bits_to_megabits((s1 + s2) / airtime) : 0.0;
      };
      const double uni = scheme_tput(0.0);
      const double stock = scheme_tput(stock_rate);
      const double custom = scheme_tput(custom_rate);
      unicast_tput.add(uni);
      stock_tput.add(stock);
      custom_tput.add(custom);
      if (stock < uni) ++stock_loses_to_unicast;
      ++samples;
    }
  }

  const double norm = custom_tput.mean();
  std::printf("\nscheme                         normalized throughput\n");
  std::printf("----------------------------------------------------\n");
  std::printf("unicast                        %.2f\n",
              unicast_tput.mean() / norm);
  std::printf("multicast (default beams)      %.2f\n",
              stock_tput.mean() / norm);
  std::printf("multicast (customized beams)   1.00\n");
  std::printf("\nabsolute means: unicast=%.0f, default=%.0f, custom=%.0f "
              "Mbps effective\n",
              unicast_tput.mean(), stock_tput.mean(), custom_tput.mean());
  std::printf("default-beam multicast loses to unicast in %.0f%% of pairs "
              "(paper: \"may in fact sometimes reduce the data rate\")\n",
              100.0 * stock_loses_to_unicast / std::max(samples, 1));
  return 0;
}
