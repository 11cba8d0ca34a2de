// ViVo-style visibility determination (paper Section 3): which cells of the
// partitioned point cloud does a viewer actually need, and at what density?
//
// Three optimizations, individually switchable for ablation:
//   * viewport  — frustum culling of cells against the 3D viewport,
//   * occlusion — cells hidden behind dense closer cells (or behind another
//                 user's body) are dropped,
//   * distance  — far cells are fetched at reduced point density
//                 (level-of-detail), since projected point spacing shrinks
//                 with 1/distance.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "geometry/frustum.h"
#include "geometry/obstacle.h"
#include "geometry/pose.h"
#include "pointcloud/cell_grid.h"
#include "trace/mobility.h"

namespace volcast::view {

/// Camera intrinsics of the study hardware: Magic Leap One class headsets
/// have a narrow ~45 degree AR field of view; smartphone AR sessions render
/// a wider ~60 degree camera view. The narrow headset FoV is one reason the
/// paper finds lower viewport similarity for the HM group.
[[nodiscard]] geo::CameraIntrinsics device_intrinsics(
    trace::DeviceType device) noexcept;

/// Per-viewer map over the cell grid: visibility flag + fetch density in
/// (0, 1] for each visible cell.
class VisibilityMap {
 public:
  VisibilityMap() = default;
  explicit VisibilityMap(std::size_t cell_count)
      : lod_(cell_count, 0.0f) {}

  [[nodiscard]] std::size_t cell_count() const noexcept { return lod_.size(); }

  /// Makes this map equal to VisibilityMap(cell_count), keeping its
  /// storage.
  void clear(std::size_t cell_count) {
    lod_.assign(cell_count, 0.0f);
    visible_ = 0;
  }

  void set(vv::CellId cell, double lod = 1.0) {
    float& slot = lod_.at(cell);
    const bool was = slot > 0.0f;
    slot = static_cast<float>(lod);
    const bool now = slot > 0.0f;
    if (now && !was)
      ++visible_;
    else if (was && !now)
      --visible_;
  }

  [[nodiscard]] bool visible(vv::CellId cell) const {
    return lod_.at(cell) > 0.0f;
  }
  /// Fetch density for the cell; 0 when not visible.
  [[nodiscard]] double lod(vv::CellId cell) const { return lod_.at(cell); }

  /// Number of visible cells. O(1): the count is maintained on write.
  [[nodiscard]] std::size_t visible_count() const noexcept {
    return visible_;
  }

 private:
  std::vector<float> lod_;
  std::size_t visible_ = 0;
};

/// A person standing in the scene (shared with the mmWave blockage model;
/// see geometry/obstacle.h).
using BodyObstacle = geo::BodyObstacle;
using geo::segment_hits_body;

/// Which of the three ViVo optimizations to apply.
struct VisibilityOptions {
  bool viewport_culling = true;
  bool occlusion_culling = true;
  bool distance_lod = true;

  geo::CameraIntrinsics intrinsics{};
  /// Distance at which full density is required; beyond it the needed
  /// fraction falls off as (reference / d)^2 (projected point spacing).
  double lod_reference_m = 1.8;
  /// Floor for the LoD fraction, so far content is never dropped entirely.
  double lod_min = 0.25;
  /// A cell is opaque for self-occlusion when its point count exceeds this
  /// multiple of the mean occupied-cell count.
  double occluder_density_factor = 0.6;
  /// Opaque path length (in multiples of the cell size) the sight ray must
  /// cross before the target cell counts as occluded: ~1.2 cells of dense
  /// surface in front hides what is behind.
  double occluder_thickness_cells = 1.2;
};

/// Computes the visibility map of a viewer at `pose` over `grid`, given the
/// per-cell point counts `occupancy` of the current frame.
/// `others` lists other people in the room for user-user occlusion (pass
/// empty for single-user ViVo semantics).
/// Pure function of its arguments: `grid` and `occupancy` are only read, so
/// many sessions may compute visibility against one shared WorkloadBundle's
/// grid/occupancy concurrently.
[[nodiscard]] VisibilityMap compute_visibility(
    const vv::CellGrid& grid, std::span<const std::uint32_t> occupancy,
    const geo::Pose& pose, const VisibilityOptions& options = {},
    std::span<const BodyObstacle> others = {});

}  // namespace volcast::view
