// Reproduces Fig. 2: inter-user viewport similarity.
//  (a) IoU over time for two user pairs (50 cm cells, 300 frames),
//  (b) CDF of IoU for HM(2)-Seg(100cm), HM(2)-Seg(50cm), PH(2)-Seg(50cm)
//      and HM(3)-Seg(50cm) across the whole 32-user study.
#include <cstdio>
#include <vector>

#include "common/stats.h"
#include "pointcloud/video_generator.h"
#include "trace/user_study.h"
#include "viewport/similarity.h"

using namespace volcast;

namespace {

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

}  // namespace

int main() {
  std::printf("=== Fig. 2a: viewport similarity (IoU) over time, "
              "50 cm cells ===\n");
  Fig2Setup s;
  const vv::CellGrid grid50(s.generator.content_bounds(), 0.50);
  const vv::CellGrid grid100(s.generator.content_bounds(), 1.00);

  const auto hm = s.study.users_of(trace::DeviceType::kHeadset);
  const std::vector<std::size_t> pair_a{hm[0], hm[1]};
  const std::vector<std::size_t> pair_b{hm[3], hm[9]};
  std::printf("frame  IoU(user0,user1)  IoU(user3,user9)\n");
  for (std::size_t f = 0; f < 300; f += 15) {
    const auto maps_a = frame_maps(s, grid50, f, pair_a);
    const auto maps_b = frame_maps(s, grid50, f, pair_b);
    std::printf("%5zu  %17.2f  %17.2f\n", f,
                view::iou(maps_a[0], maps_a[1]),
                view::iou(maps_b[0], maps_b[1]));
  }

  std::printf("\n=== Fig. 2b: CDF of IoU across the 32-user study ===\n");
  struct Curve {
    const char* label;
    EmpiricalDistribution dist;
  };
  Curve curves[] = {
      {"HM(2)-Seg(100cm)",
       iou_distribution(s, grid100, trace::DeviceType::kHeadset, 2)},
      {"HM(2)-Seg(50cm) ",
       iou_distribution(s, grid50, trace::DeviceType::kHeadset, 2)},
      {"PH(2)-Seg(50cm) ",
       iou_distribution(s, grid50, trace::DeviceType::kSmartphone, 2)},
      {"HM(3)-Seg(50cm) ",
       iou_distribution(s, grid50, trace::DeviceType::kHeadset, 3)},
  };
  std::printf("curve              p10   p25   p50   p75   mean\n");
  for (const Curve& c : curves) {
    std::printf("%s  %.2f  %.2f  %.2f  %.2f  %.2f\n", c.label,
                c.dist.percentile(10), c.dist.percentile(25), c.dist.median(),
                c.dist.percentile(75), c.dist.mean());
  }

  std::printf("\nexpected ordering (paper): PH(2) > HM(2)-100cm > "
              "HM(2)-50cm > HM(3)-50cm\n");
  const bool ordering_holds =
      curves[2].dist.mean() > curves[0].dist.mean() &&
      curves[0].dist.mean() > curves[1].dist.mean() &&
      curves[1].dist.mean() > curves[3].dist.mean();
  std::printf("ordering holds: %s\n", ordering_holds ? "YES" : "NO");

  std::printf("\nfull CDF, HM(2)-Seg(50cm)  (x = IoU, y = CDF):\n%s",
              curves[1].dist.format_cdf(12).c_str());
  return 0;
}
