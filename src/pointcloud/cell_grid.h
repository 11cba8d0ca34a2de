// Spatial partition of a volumetric video into independently prefetchable,
// independently decodable cells (the paper partitions into 25/50/100 cm
// cubes; Section 3, Fig. 1).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "geometry/aabb.h"
#include "pointcloud/point_cloud.h"

namespace volcast::vv {

/// Index of a cell within a CellGrid (linear, row-major x-fastest).
using CellId = std::uint32_t;

/// CSR-style point bucketing: one flat index array plus per-cell offsets,
/// built with a counting sort over contiguous arrays — no per-cell
/// allocations, and the store's per-cell gather reads one contiguous slice.
struct FlatAssignment {
  /// offsets.size() == cell_count() + 1; cell c's indices live at
  /// indices[offsets[c] .. offsets[c + 1]).
  std::vector<std::uint32_t> offsets;
  /// Point indices grouped by cell, ascending within each cell.
  std::vector<std::uint32_t> indices;

  [[nodiscard]] std::span<const std::uint32_t> cell(CellId c) const noexcept {
    return {indices.data() + offsets[c], offsets[c + 1] - offsets[c]};
  }
};

/// Uniform grid of cubic cells covering a content bounding box.
///
/// The grid geometry is fixed for the whole video (built from the union of
/// all frame bounds) so that cell ids are stable across frames — a
/// requirement for visibility maps and per-cell rate adaptation.
///
/// Thread safety: immutable after construction; every member function is
/// const and touches only construction-time state, so concurrent queries
/// from any number of threads are race-free (a shared core::WorkloadBundle
/// relies on this). Note VideoStore aliases the grid by pointer — keep the
/// grid alive for as long as any store built on it.
class CellGrid {
 public:
  /// Covers `content_bounds` with cubes of edge `cell_size_m`.
  /// Throws std::invalid_argument for non-positive sizes or invalid bounds.
  CellGrid(const geo::Aabb& content_bounds, double cell_size_m);

  [[nodiscard]] double cell_size_m() const noexcept { return cell_size_; }
  [[nodiscard]] std::size_t cell_count() const noexcept {
    return static_cast<std::size_t>(nx_) * ny_ * nz_;
  }
  [[nodiscard]] std::uint32_t nx() const noexcept { return nx_; }
  [[nodiscard]] std::uint32_t ny() const noexcept { return ny_; }
  [[nodiscard]] std::uint32_t nz() const noexcept { return nz_; }
  [[nodiscard]] const geo::Aabb& bounds() const noexcept { return bounds_; }

  /// Axis-aligned box of the given cell.
  [[nodiscard]] geo::Aabb cell_bounds(CellId id) const;

  /// Center point of the given cell.
  [[nodiscard]] geo::Vec3 cell_center(CellId id) const;

  /// Cell containing `p`; points on the outer boundary are clamped into the
  /// closest edge cell so every content point maps somewhere (a NaN
  /// coordinate maps to index 0 on its axis). The scalar reference: per
  /// axis it divides by the cell edge, clamps the quotient to
  /// [0, cells - 1] in double and truncates, which equals truncating to
  /// int64 and clamping wherever that truncation is defined.
  [[nodiscard]] CellId locate(const geo::Vec3& p) const noexcept;

  /// Column form of locate(): ids[i] = locate({x[i], y[i], z[i]}) for
  /// every i < n, bit for bit. One loop that vectorizes: when the cell edge
  /// is a power of two it multiplies by the edge's exact reciprocal (equal
  /// to dividing), otherwise it divides.
  void locate_columns(const double* x, const double* y, const double* z,
                      std::size_t n, CellId* ids) const noexcept;

  /// locate() over a whole frame: ids[i] = locate(frame.position(i)),
  /// through locate_columns().
  [[nodiscard]] std::vector<CellId> locate_batch(const FrameSoA& frame) const;

  /// Buckets every point of `frame` by containing cell: cell c lists the
  /// indices i with locate(frame.position(i)) == c, ascending.
  [[nodiscard]] FlatAssignment assign_flat(const FrameSoA& frame) const;

  /// Per-cell point counts of `frame` (cheaper than assign_flat()); entry
  /// c counts the points that locate() puts in cell c.
  [[nodiscard]] std::vector<std::uint32_t> occupancy(
      const FrameSoA& frame) const;

 private:
  geo::Aabb bounds_;
  double cell_size_;
  /// 1 / cell_size_ when both are powers of two (so multiplying by it is
  /// dividing by the edge, bit for bit), else 0.
  double reciprocal_ = 0.0;
  std::uint32_t nx_ = 0;
  std::uint32_t ny_ = 0;
  std::uint32_t nz_ = 0;
};

}  // namespace volcast::vv
