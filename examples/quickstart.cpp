// Quickstart: the volcast public API in ~80 lines.
//
//  1. generate volumetric video content and look at its encoded size,
//  2. compute what a viewer actually needs (ViVo-style visibility),
//  3. check the mmWave link that will carry it,
//  4. run a full multi-user cross-layer streaming session.
//
// Build & run:  cmake -B build -G Ninja && cmake --build build
//               ./build/examples/quickstart
#include <cstdio>

#include "core/session.h"
#include "core/testbed.h"
#include "mmwave/link.h"
#include "pointcloud/codec.h"
#include "pointcloud/video_generator.h"
#include "viewport/visibility.h"

using namespace volcast;

int main() {
  // --- 1. content -------------------------------------------------------
  vv::VideoConfig video;
  video.points_per_frame = 100'000;  // scale down for a quick demo
  video.frame_count = 30;
  const vv::VideoGenerator generator(video);
  const vv::FrameSoA frame = generator.frame_soa(0);
  const auto blob = vv::encode(frame);
  std::printf("frame 0: %zu points, %zu raw bytes -> %zu encoded (%.1f "
              "bits/point)\n",
              frame.size(), frame.raw_size_bytes(), blob.size(),
              8.0 * static_cast<double>(blob.size()) /
                  static_cast<double>(frame.size()));

  // --- 2. visibility ----------------------------------------------------
  const vv::CellGrid grid(generator.content_bounds(), 0.5);
  const auto occupancy = grid.occupancy(frame);
  const geo::Pose viewer = geo::Pose::look_at({2.0, 0.0, 1.6}, {0, 0, 1.1});
  const auto visibility =
      view::compute_visibility(grid, occupancy, viewer, {});
  std::size_t occupied = 0;
  for (auto n : occupancy)
    if (n > 0) ++occupied;
  std::printf("viewer at 2 m needs %zu of %zu occupied cells\n",
              visibility.visible_count(), occupied);

  // --- 3. the mmWave link ------------------------------------------------
  const core::Testbed testbed;  // 8x6x3 m room, wall-mounted 802.11ad AP
  const geo::Vec3 seat = testbed.to_room(viewer.position);
  const double rss = mmwave::best_beam_rss_dbm(
      testbed.ap(), testbed.codebook(), testbed.channel(), seat, {},
      testbed.budget());
  std::printf("best stock sector at the viewer's seat: %.1f dBm -> %.0f "
              "Mbps goodput\n",
              rss, testbed.mcs().goodput_mbps(rss));

  // --- 4. a full multi-user session --------------------------------------
  core::SessionConfig config;
  config.user_count = 4;
  config.duration_s = 5.0;
  config.master_points = 80'000;
  config.video_frames = 30;
  core::Session session(config);
  const core::SessionResult result = session.run();
  std::printf("\n4-user cross-layer session, 5 s:\n%s",
              result.qoe.summary().c_str());
  std::printf("multicast carried %.0f%% of delivered bits "
              "(mean group %.2f users)\n",
              100.0 * result.multicast_bit_share, result.mean_group_size);
  return 0;
}
