// A generator's samples grouped into small cubic leaves, so the store's
// modeled frames count points per (tier class, cell) a leaf at a time
// instead of a point at a time (DESIGN.md §8, "Setup cost").
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "geometry/vec3.h"
#include "pointcloud/cell_grid.h"
#include "pointcloud/video_generator.h"

namespace volcast::vv {

/// The samples of a VideoGenerator, bucketed part run by part run into
/// cubic leaves of about `edge` metres in the parts' own frames. Each body
/// part moves rigidly, so a leaf moves as one piece: count() moves the
/// leaf centres, and when the two corners centre ± radius land in one
/// cell, the whole leaf does (the radius is inflated far past any
/// rounding of the transform, and locate() is monotone on each axis), so
/// the leaf adds its per-class counts there. The other leaves move and
/// locate their members one by one. The counts equal moving and locating
/// every sample, for any grid.
///
/// Thread safety: immutable after construction; count() writes only its
/// scratch and histogram, so lanes may count frames concurrently. The
/// generator must outlive the leaves.
class SampleLeaves {
 public:
  /// Leaves of `generator`'s samples; sample i has tier class `classes[i]`,
  /// below `class_count`. A run whose box of candidate leaves would be far
  /// larger than its sample count (a very fine edge) takes the smallest
  /// power-of-two multiple of `edge` that keeps the box small. Throws
  /// std::invalid_argument for a non-positive edge or a class list of the
  /// wrong length.
  SampleLeaves(const VideoGenerator& generator, double edge,
               std::span<const std::uint8_t> classes, std::size_t class_count);

  /// count()'s working columns, reused across frames.
  struct Scratch {
    std::vector<double> lo_x, lo_y, lo_z;
    std::vector<double> hi_x, hi_y, hi_z;
    std::vector<CellId> lo_ids, hi_ids;
    std::vector<double> x, y, z;
    std::vector<CellId> ids;
  };

  /// Adds frame `frame`'s points to `hist`, a [class][cell] table of
  /// class_count * grid.cell_count() entries: a point of class k in cell c
  /// adds one to hist[k * cell_count + c].
  void count(std::size_t frame, const CellGrid& grid, Scratch& scratch,
             std::span<std::uint32_t> hist) const;

  /// A leaf and its members, for inspection.
  struct Leaf {
    std::size_t part = 0;
    geo::Vec3 centre{};
    /// The largest member distance from the centre, r, inflated to
    /// r * (1 + 1e-9) + 1e-9.
    double radius = 0.0;
    /// The members' offsets and classes.
    std::span<const double> x, y, z;
    std::span<const std::uint8_t> classes;
    /// How many members each class has.
    std::span<const std::uint32_t> class_counts;
  };
  [[nodiscard]] std::size_t size() const noexcept { return radius_.size(); }
  [[nodiscard]] Leaf leaf(std::size_t i) const;

 private:
  /// The leaves [begin, end) of one part run.
  struct LeafRun {
    std::size_t part = 0;
    std::size_t begin = 0;
    std::size_t end = 0;
  };

  const VideoGenerator* generator_;
  std::size_t class_count_;
  std::vector<LeafRun> runs_;
  // Per leaf: centre, inflated radius, counts per class ([leaf][class]),
  // and its members' rows [offsets[i], offsets[i + 1]).
  std::vector<double> centre_x_, centre_y_, centre_z_;
  std::vector<double> radius_;
  std::vector<std::uint32_t> counts_;
  std::vector<std::uint32_t> offsets_;
  // Per member, in leaf order: its offset and class.
  std::vector<double> member_x_, member_y_, member_z_;
  std::vector<std::uint8_t> member_class_;
};

}  // namespace volcast::vv
