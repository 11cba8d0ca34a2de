#include "pointcloud/cell_grid.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace volcast::vv {
namespace {

/// One axis of locate(): the quotient clamped to [0, hi] in double, then
/// truncated. std::max(0.0, q) keeps 0.0 for NaN and for -0.0. For every q
/// whose int64 truncation is defined this equals truncating first and
/// clamping the integer, and a clamped value fits an int32, whose packed
/// conversion SSE2 has (the int64 one it lacks).
inline std::uint32_t axis_cell(double q, double hi) noexcept {
  return static_cast<std::uint32_t>(
      static_cast<std::int32_t>(std::min(std::max(0.0, q), hi)));
}

/// The locate_columns() loop; `quotient(d)` is d / edge.
template <typename Quotient>
void locate_kernel(const double* __restrict x, const double* __restrict y,
                   const double* __restrict z, std::size_t n,
                   const geo::Vec3& lo, const geo::Vec3& hi, std::uint32_t nx,
                   std::uint32_t ny, Quotient quotient,
                   CellId* __restrict ids) noexcept {
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint32_t ix = axis_cell(quotient(x[i] - lo.x), hi.x);
    const std::uint32_t iy = axis_cell(quotient(y[i] - lo.y), hi.y);
    const std::uint32_t iz = axis_cell(quotient(z[i] - lo.z), hi.z);
    ids[i] = ix + nx * (iy + ny * iz);
  }
}

/// True when `v` is a positive, finite power of two.
bool power_of_two(double v) noexcept {
  int exponent = 0;
  return std::isfinite(v) && v > 0.0 && std::frexp(v, &exponent) == 0.5;
}

}  // namespace

CellGrid::CellGrid(const geo::Aabb& content_bounds, double cell_size_m)
    : bounds_(content_bounds), cell_size_(cell_size_m) {
  if (!(cell_size_m > 0.0))
    throw std::invalid_argument("CellGrid: cell size must be positive");
  if (!content_bounds.valid())
    throw std::invalid_argument("CellGrid: invalid content bounds");
  const geo::Vec3 extent = content_bounds.extent();
  auto cells_along = [cell_size_m](double len) {
    return std::max<std::uint32_t>(
        1, static_cast<std::uint32_t>(std::ceil(len / cell_size_m - 1e-9)));
  };
  nx_ = cells_along(extent.x);
  ny_ = cells_along(extent.y);
  nz_ = cells_along(extent.z);
  if (cell_count() > 16u * 1024u * 1024u)
    throw std::invalid_argument("CellGrid: too many cells");
  if (power_of_two(cell_size_m) && power_of_two(1.0 / cell_size_m))
    reciprocal_ = 1.0 / cell_size_m;
}

geo::Aabb CellGrid::cell_bounds(CellId id) const {
  if (id >= cell_count()) throw std::out_of_range("CellGrid::cell_bounds");
  const std::uint32_t ix = id % nx_;
  const std::uint32_t iy = (id / nx_) % ny_;
  const std::uint32_t iz = id / (nx_ * ny_);
  const geo::Vec3 lo = bounds_.lo + geo::Vec3{ix * cell_size_, iy * cell_size_,
                                              iz * cell_size_};
  return {lo, lo + geo::Vec3{cell_size_, cell_size_, cell_size_}};
}

geo::Vec3 CellGrid::cell_center(CellId id) const {
  return cell_bounds(id).center();
}

CellId CellGrid::locate(const geo::Vec3& p) const noexcept {
  auto along = [this](double v, double lo, std::uint32_t count) {
    return axis_cell((v - lo) / cell_size_, count - 1.0);
  };
  const std::uint32_t ix = along(p.x, bounds_.lo.x, nx_);
  const std::uint32_t iy = along(p.y, bounds_.lo.y, ny_);
  const std::uint32_t iz = along(p.z, bounds_.lo.z, nz_);
  return ix + nx_ * (iy + ny_ * iz);
}

void CellGrid::locate_columns(const double* x, const double* y,
                              const double* z, std::size_t n,
                              CellId* ids) const noexcept {
  const geo::Vec3 hi{nx_ - 1.0, ny_ - 1.0, nz_ - 1.0};
  if (reciprocal_ > 0.0) {
    const double r = reciprocal_;
    locate_kernel(x, y, z, n, bounds_.lo, hi, nx_, ny_,
                  [r](double d) { return d * r; }, ids);
  } else {
    const double edge = cell_size_;
    locate_kernel(x, y, z, n, bounds_.lo, hi, nx_, ny_,
                  [edge](double d) { return d / edge; }, ids);
  }
}

std::vector<CellId> CellGrid::locate_batch(const FrameSoA& frame) const {
  std::vector<CellId> ids(frame.size());
  locate_columns(frame.xs().data(), frame.ys().data(), frame.zs().data(),
                 ids.size(), ids.data());
  return ids;
}

FlatAssignment CellGrid::assign_flat(const FrameSoA& frame) const {
  const std::vector<CellId> ids = locate_batch(frame);
  FlatAssignment out;
  // Counting sort: histogram, exclusive prefix sum, then a stable placement
  // pass in ascending point order, so each cell lists its points ascending.
  out.offsets.assign(cell_count() + 1, 0);
  for (const CellId id : ids) ++out.offsets[id + 1];
  for (std::size_t c = 1; c < out.offsets.size(); ++c)
    out.offsets[c] += out.offsets[c - 1];
  out.indices.resize(ids.size());
  std::vector<std::uint32_t> cursor(out.offsets.begin(), out.offsets.end() - 1);
  for (std::uint32_t i = 0; i < ids.size(); ++i)
    out.indices[cursor[ids[i]]++] = i;
  return out;
}

std::vector<std::uint32_t> CellGrid::occupancy(const FrameSoA& frame) const {
  std::vector<std::uint32_t> counts(cell_count(), 0);
  for (const CellId id : locate_batch(frame)) ++counts[id];
  return counts;
}

}  // namespace volcast::vv
