// Procedural volumetric-video source.
//
// Stands in for the 8i "soldier" dynamic voxelized point cloud used by the
// paper (Section 3): an articulated human figure (head, torso, limbs built
// from ellipsoid shells) performing a walk-in-place cycle at 30 FPS. What the
// experiments need from the dataset — human-shaped cell occupancy, temporal
// coherence, 330K/430K/550K points per frame, ~2 m spatial extent — is all
// reproduced; see DESIGN.md substitution table.
#pragma once

#include <cstdint>
#include <vector>

#include "geometry/aabb.h"
#include "geometry/quat.h"
#include "pointcloud/point_cloud.h"

namespace volcast {
class Rng;  // common/rng.h
}  // namespace volcast

namespace volcast::common {
class ThreadPool;  // common/thread_pool.h
}  // namespace volcast::common

namespace volcast::vv {

/// Generator parameters.
struct VideoConfig {
  std::size_t points_per_frame = 550'000;
  std::size_t frame_count = 300;
  double fps = 30.0;
  std::uint64_t seed = 1;
  /// Walk-cycle rate; one full gait cycle per 1/rate seconds.
  double walk_rate_hz = 0.9;
  /// Slow whole-body yaw oscillation amplitude (radians), mimicking the
  /// subject turning in place.
  double yaw_amplitude_rad = 0.5;
};

/// Deterministic articulated-figure video. `frame_soa(i)` is a pure
/// function of (config, i): the same index always yields the same frame, so
/// streaming components can regenerate frames instead of buffering them.
///
/// Thread safety: the generator holds its config and the per-point
/// samples, both fixed at construction, so frame_soa() and every other member
/// may be called concurrently without locking — sessions sharing one
/// core::WorkloadBundle do exactly that.
class VideoGenerator {
 public:
  /// Samples every body part's shell once. With a pool the drawn points
  /// are split into one contiguous slice per lane, each drawn from a copy
  /// of the Rng taken at the slice's start (skip_point() walks the Rng
  /// there), so the samples are bit-identical at any pool size; a
  /// one-lane pool or none draws in order, with no extra pass. The pool
  /// is used only during construction.
  explicit VideoGenerator(VideoConfig config,
                          common::ThreadPool* pool = nullptr);

  [[nodiscard]] const VideoConfig& config() const noexcept { return config_; }

  /// Generates frame `index` (wraps modulo frame_count for looping
  /// playback): positions() plus the color column, in the same point order.
  [[nodiscard]] FrameSoA frame_soa(std::size_t index) const;

  /// Fills x/y/z (resized to points_per_frame) with frame `index`'s point
  /// positions: each run of one body part goes through place() with the
  /// part's pose.
  void positions(std::size_t index, std::vector<double>& x,
                 std::vector<double>& y, std::vector<double>& z) const;

  /// A point's body part and its offset from the part's pivot (already
  /// scaled); the same in every frame. Throws std::out_of_range for a
  /// point at or past points_per_frame.
  struct Sample {
    std::size_t part = 0;
    geo::Vec3 local{};
  };
  [[nodiscard]] Sample sample(std::size_t point) const;

  /// Rigid motion of body part `part` in frame `index`: a point at offset
  /// `local` sits at body_rot.rotate(pivot + part_rot.rotate(local)), raised
  /// by `bob` along z. positions() applies exactly this, point by point.
  /// Throws std::out_of_range for an unknown part (the figure has 10).
  struct PartPose {
    geo::Vec3 pivot{};
    geo::Quat part_rot{};
    geo::Quat body_rot{};
    double bob = 0.0;
  };
  [[nodiscard]] PartPose part_pose(std::size_t index, std::size_t part) const;

  /// Moves `n` offsets (lx/ly/lz) of one body part to their positions
  /// (x/y/z) under `pose`, the PartPose formula point by point. The only
  /// copy of the per-point transform: positions(), frame_soa() and the
  /// store's leaves all go through it, so equal offsets under equal poses
  /// give the same doubles wherever they sit in a column. The columns must
  /// not overlap.
  static void place(const PartPose& pose, const double* lx, const double* ly,
                    const double* lz, std::size_t n, double* x, double* y,
                    double* z) noexcept;

  /// A maximal range [begin, end) of samples on one body part. Samples are
  /// laid out part by part; only the short top-up tail mixes parts.
  struct PartRun {
    std::size_t part = 0;
    std::size_t begin = 0;
    std::size_t end = 0;
    bool operator==(const PartRun&) const = default;
  };
  /// The part runs in sample order; together they cover every sample.
  [[nodiscard]] const std::vector<PartRun>& runs() const noexcept {
    return runs_;
  }
  /// The samples' offsets as columns, one entry per point (sample(i).local
  /// is {local_x()[i], local_y()[i], local_z()[i]}).
  [[nodiscard]] const std::vector<double>& local_x() const noexcept {
    return local_x_;
  }
  [[nodiscard]] const std::vector<double>& local_y() const noexcept {
    return local_y_;
  }
  [[nodiscard]] const std::vector<double>& local_z() const noexcept {
    return local_z_;
  }

  /// One point drawn on a body part's shell: its offset from the part's
  /// pivot and its colour.
  struct DrawnPoint {
    geo::Vec3 local{};
    std::uint8_t r = 0;
    std::uint8_t g = 0;
    std::uint8_t b = 0;
  };
  /// Draws one point of body part `part` from `rng`: three normals give a
  /// direction, one uniform the depth within the shell, three more
  /// normals the colour jitter. Throws std::out_of_range for an unknown
  /// part.
  static DrawnPoint draw_point(Rng& rng, std::size_t part);
  /// Advances `rng` exactly as one draw_point() does, for any part,
  /// without computing the point: three Box-Muller pairs (u1 redrawn
  /// while it is 0, then u2) with the shell uniform after the second.
  /// Six normals are three whole pairs, so a draw that starts with no
  /// cached normal leaves none, and `rng` ends in the state draw_point()
  /// leaves.
  static void skip_point(Rng& rng) noexcept;

  /// Analytic bound that contains the figure in every frame; used to build
  /// the stable CellGrid.
  [[nodiscard]] geo::Aabb content_bounds() const noexcept;

  /// Approximate centroid of the content (the "look-at" target for traces).
  [[nodiscard]] geo::Vec3 content_center() const noexcept;

 private:
  VideoConfig config_;
  // One entry per output point: the offset from its part's pivot (already
  // scaled) and its packed r, g, b.
  std::vector<double> local_x_;
  std::vector<double> local_y_;
  std::vector<double> local_z_;
  std::vector<std::uint8_t> rgb_;
  std::vector<PartRun> runs_;
};

/// The index test behind thin(): keeps(i) is true exactly for the points
/// thin(frame, fraction) keeps. A Knuth multiplicative hash of the index
/// against a bound, so it is order-free and stable under re-runs, and a
/// smaller fraction keeps a subset of what a larger one keeps.
class ThinFilter {
 public:
  explicit ThinFilter(double fraction) noexcept;

  [[nodiscard]] bool keeps(std::uint32_t index) const noexcept {
    return std::uint32_t{index * 2654435761u} < bound_;
  }

  /// keeps(i) is hash(i) < bound(); 2^32 keeps every index. A filter keeps
  /// a subset of what any filter with a bound at least as large keeps.
  [[nodiscard]] std::uint64_t bound() const noexcept { return bound_; }

 private:
  std::uint64_t bound_;
};

/// Deterministically thins a frame to ~`fraction` of its points, uniformly
/// across the frame and in their order (ThinFilter: a hash of the index
/// alone, stable under re-runs). The 430K / 330K quality tiers are this
/// thinning of the 550K master; the store applies the filter to its
/// buckets directly.
[[nodiscard]] FrameSoA thin(const FrameSoA& frame, double fraction);

}  // namespace volcast::vv
