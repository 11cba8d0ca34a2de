#include "viewport/visibility.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

namespace volcast::view {

geo::CameraIntrinsics device_intrinsics(trace::DeviceType device) noexcept {
  geo::CameraIntrinsics intr;
  if (device == trace::DeviceType::kSmartphone) {
    intr.horizontal_fov_rad = 1.0471975511965976;  // 60 degrees
    intr.aspect = 0.75;
  } else {
    intr.horizontal_fov_rad = 0.7853981633974483;  // 45 degrees
    intr.aspect = 0.75;
  }
  return intr;
}

namespace {

/// Truncation floor for the DDA entry coordinate: exact for x >= 0, and a
/// (slightly) negative x — FP noise at the grid's lower face — lands on
/// slot 0 just as a floor + clamp would.
[[nodiscard]] inline std::int64_t floor_clamped(double x,
                                                std::int64_t n) noexcept {
  if (x <= 0.0) return 0;
  const auto i = static_cast<std::int64_t>(x);
  return i < n ? i : n - 1;
}

/// Per-batch constants of the occlusion pass: everything that is the same
/// for every ray of one compute_visibility call (grid geometry, opaque box,
/// eye, thresholds), hoisted out of the per-ray DDA so a batch of rays pays
/// for it once. The values are the exact same doubles the per-ray code used
/// to derive, so hoisting does not perturb any result.
struct RayBatch {
  std::span<const std::uint32_t> occupancy;
  std::uint64_t opaque_thr = 0;  // integer form of the opacity threshold
  double thickness_cell = 0.0;  // occluder_thickness_cells * cell
  double cell = 0.0;
  double inv_cell = 0.0;
  geo::Vec3 eye;
  double origin[3] = {0, 0, 0};
  double lo[3] = {0, 0, 0};  // opaque-cell bounding box
  double hi[3] = {0, 0, 0};
  double glo[3] = {0, 0, 0};  // grid origin
  std::int64_t n[3] = {0, 0, 0};
  std::int64_t nx = 0;
  std::int64_t nxy = 0;
};

/// True when the sight ray from the batch eye to `target_center` is blocked
/// by opaque cells (cells with occupancy >= opaque_threshold clearly in
/// front of the target).
///
/// Walks the grid cell-by-cell with an Amanatides–Woo 3D DDA and
/// accumulates the exact opaque path length the ray crosses: enough dense
/// surface in front hides the target, regardless of how much empty air the
/// ray also traverses. Cost is O(cells crossed) — independent of any sample
/// step — and the per-cell segment lengths are exact, so there is no
/// step-size aliasing. The traversal is parameterized by the unnormalized
/// eye->target delta (s in [0, 1]), which needs no direction normalization.
bool ray_occluded(const RayBatch& bat, const geo::Vec3& target_center,
                  vv::CellId target) {
  const geo::Vec3 delta = target_center - bat.eye;
  const double dist = delta.norm();
  if (dist < 1e-9) return false;
  const double cell = bat.cell;
  const double inv_dist = 1.0 / dist;
  // Guard bands at both ends: leave the eye's own surroundings, stop before
  // the target so it never occludes itself. All in s-units (fractions of
  // the full segment).
  double s0 = cell * 0.5 * inv_dist;
  double s1 = 1.0 - cell * 0.75 * inv_dist;
  if (s1 <= s0) return false;
  // Opaque path length needed to occlude, in s-units.
  const double needed = bat.thickness_cell * inv_dist;

  // Clip [s0, s1] to the bounding box of the opaque cells — outside it
  // nothing can occlude — computing each axis' reciprocal once (reused by
  // the DDA set-up). The clipped span caps the achievable opaque path
  // length, so a span shorter than `needed` rejects the ray with no
  // traversal at all.
  const double d[3] = {delta.x, delta.y, delta.z};
  constexpr double kInf = std::numeric_limits<double>::infinity();
  double inv[3];
  for (int axis = 0; axis < 3; ++axis) {
    if (std::abs(d[axis]) < 1e-15) {
      if (bat.origin[axis] < bat.lo[axis] || bat.origin[axis] > bat.hi[axis])
        return false;
      inv[axis] = kInf;
      continue;
    }
    inv[axis] = 1.0 / d[axis];
    double sa = (bat.lo[axis] - bat.origin[axis]) * inv[axis];
    double sb = (bat.hi[axis] - bat.origin[axis]) * inv[axis];
    if (sa > sb) std::swap(sa, sb);
    s0 = std::max(s0, sa);
    s1 = std::min(s1, sb);
    if (s0 >= s1) return false;
  }
  if (s1 - s0 < needed) return false;

  // DDA state: integer cell coordinates of the entry point, the s of the
  // next boundary crossing per axis (s_max), and the s advance per full
  // cell (s_delta). Cell indexing is relative to the grid origin; the
  // entry point lies inside the grid because the opaque box is within it.
  std::int64_t idx[3];
  double s_max[3];
  double s_delta[3];
  for (int axis = 0; axis < 3; ++axis) {
    const double entry = bat.origin[axis] + d[axis] * s0;
    idx[axis] =
        floor_clamped((entry - bat.glo[axis]) * bat.inv_cell, bat.n[axis]);
    if (inv[axis] == kInf) {
      s_max[axis] = kInf;
      s_delta[axis] = kInf;
    } else {
      const double next_boundary =
          bat.glo[axis] +
          static_cast<double>(idx[axis] + (d[axis] > 0.0 ? 1 : 0)) * cell;
      s_max[axis] = (next_boundary - bat.origin[axis]) * inv[axis];
      s_delta[axis] = cell * std::abs(inv[axis]);
    }
  }

  double s_cur = s0;
  double opaque_length = 0.0;
  while (s_cur < s1) {
    const double s_next = std::min({s_max[0], s_max[1], s_max[2], s1});
    const auto c = static_cast<vv::CellId>(idx[0] + bat.nx * idx[1] +
                                           bat.nxy * idx[2]);
    if (c != target && bat.occupancy[c] >= bat.opaque_thr) {
      opaque_length += s_next - s_cur;
      if (opaque_length >= needed) return true;
    }
    if (s_next >= s1) break;
    // Advance across the nearest boundary (ties advance one axis; the next
    // iteration advances the other for a zero-length corner segment).
    int step_axis = 0;
    if (s_max[1] < s_max[0]) step_axis = 1;
    if (s_max[2] < s_max[step_axis]) step_axis = 2;
    idx[step_axis] += d[step_axis] > 0.0 ? 1 : -1;
    if (idx[step_axis] < 0 || idx[step_axis] >= bat.n[step_axis]) break;
    s_cur = s_max[step_axis];
    s_max[step_axis] += s_delta[step_axis];
  }
  return false;
}

}  // namespace

VisibilityMap compute_visibility(const vv::CellGrid& grid,
                                 std::span<const std::uint32_t> occupancy,
                                 const geo::Pose& pose,
                                 const VisibilityOptions& options,
                                 std::span<const BodyObstacle> others) {
  VisibilityMap map(grid.cell_count());
  if (occupancy.size() != grid.cell_count()) return map;

  // Opacity threshold for self-occlusion: relative to the mean occupied
  // cell so it adapts across quality tiers and cell sizes. The counts are
  // integers, so a uint64 sum is exact — and so was the old double
  // accumulation (every partial sum is an integer far below 2^53), so the
  // mean is the same double either way; the integer loop just vectorizes.
  std::uint64_t occ_sum = 0;
  std::size_t occupied = 0;
  for (std::uint32_t n : occupancy) {
    occ_sum += n;
    occupied += n > 0 ? 1 : 0;
  }
  if (occupied == 0) return map;
  const double mean_occupied =
      static_cast<double>(occ_sum) / static_cast<double>(occupied);
  const double opaque_threshold =
      mean_occupied * options.occluder_density_factor;
  // Integer form of the opacity test: counts are exact in double, so for
  // finite t > 0, double(n) >= t  <=>  n >= ceil(t). Both threshold scans
  // below compare integers instead of converting every count to double.
  // t <= 0 keeps every cell (thr 0); t at or above 2^32 — including
  // inf/NaN — can never pass with 32-bit counts, so it clamps to 2^32.
  std::uint64_t opaque_thr = std::uint64_t{1} << 32;
  if (opaque_threshold <= 0.0) {
    opaque_thr = 0;
  } else if (opaque_threshold < 4294967296.0) {
    opaque_thr = static_cast<std::uint64_t>(std::ceil(opaque_threshold));
  }

  const geo::Frustum frustum(pose, options.intrinsics);
  const geo::Vec3 eye = pose.position;
  const double cell_m = grid.cell_size_m();
  const geo::Vec3 grid_lo = grid.bounds().lo;

  // Bounding box of the opaque cells: occlusion rays are clipped to it, so
  // the DDA walks only the region that can actually occlude.
  geo::Aabb opaque_bounds{{0, 0, 0}, {-1, -1, -1}};  // invalid == none
  if (options.occlusion_culling) {
    std::uint32_t omin[3] = {0, 0, 0};
    std::uint32_t omax[3] = {0, 0, 0};
    bool any_opaque = false;
    vv::CellId oc = 0;
    for (std::uint32_t iz = 0; iz < grid.nz(); ++iz) {
      for (std::uint32_t iy = 0; iy < grid.ny(); ++iy) {
        for (std::uint32_t ix = 0; ix < grid.nx(); ++ix, ++oc) {
          if (occupancy[oc] < opaque_thr) continue;
          const std::uint32_t at[3] = {ix, iy, iz};
          if (!any_opaque) {
            for (int a = 0; a < 3; ++a) omin[a] = omax[a] = at[a];
            any_opaque = true;
          } else {
            for (int a = 0; a < 3; ++a) {
              omin[a] = std::min(omin[a], at[a]);
              omax[a] = std::max(omax[a], at[a]);
            }
          }
        }
      }
    }
    if (any_opaque) {
      opaque_bounds.lo =
          grid_lo + geo::Vec3{omin[0] * cell_m, omin[1] * cell_m,
                              omin[2] * cell_m};
      opaque_bounds.hi =
          grid_lo + geo::Vec3{(omax[0] + 1) * cell_m, (omax[1] + 1) * cell_m,
                              (omax[2] + 1) * cell_m};
    }
  }
  const bool cast_rays = options.occlusion_culling && opaque_bounds.valid();

  // Every cell is an identical cube, so the p-vertex of the box-vs-plane
  // test sits at a fixed offset (0 or cell_m per axis, by normal sign) from
  // the cell's lo corner. Precomputing those offsets per plane turns the
  // per-cell test into six add+dot+compare steps with no per-axis selects,
  // and is bit-identical to Frustum::intersects on these cells (the cell's
  // hi corner is constructed as lo + cell_m).
  const auto& planes = frustum.planes();
  geo::Vec3 pvert_off[6];
  for (std::size_t k = 0; k < 6; ++k) {
    pvert_off[k] = {planes[k].normal.x >= 0.0 ? cell_m : 0.0,
                    planes[k].normal.y >= 0.0 ? cell_m : 0.0,
                    planes[k].normal.z >= 0.0 ? cell_m : 0.0};
  }
  const auto cell_in_frustum = [&](const geo::Vec3& lo) noexcept {
    for (std::size_t k = 0; k < 6; ++k) {
      if (planes[k].signed_distance(lo + pvert_off[k]) < 0.0) return false;
    }
    return true;
  };

  // Three passes over a SoA candidate layout instead of one interleaved
  // per-cell loop:
  //   A) gather — walk cells in (z, y, x) order (cell box maintained
  //      incrementally, no per-cell div/mod), frustum-cull, and append the
  //      survivors' ids and center coordinates to contiguous columns;
  //   B) batched occlusion rays — run the DDA over the candidate columns
  //      with all per-batch constants hoisted into RayBatch, writing one
  //      occluded bit per candidate into a bitset;
  //   C) finalize — body occlusion, distance LoD and map.set over the
  //      unoccluded candidates, still in ascending cell order.
  // Every candidate sees the exact computations of the old fused loop, in
  // the same order, so the resulting map is bit-identical. The columns
  // live in thread-local scratch: visibility runs per user per tick, and
  // per-call allocations would cost more than the small grids' whole walk.
  // Capacity is bounded by the largest cell count seen on the thread, and
  // no data flows between calls (everything is cleared and rewritten).
  struct Scratch {
    std::vector<vv::CellId> id;
    std::vector<double> cx;
    std::vector<double> cy;
    std::vector<double> cz;
    std::vector<std::uint64_t> occluded;
  };
  thread_local Scratch scratch;
  std::vector<vv::CellId>& cand_id = scratch.id;
  std::vector<double>& cand_cx = scratch.cx;
  std::vector<double>& cand_cy = scratch.cy;
  std::vector<double>& cand_cz = scratch.cz;
  cand_id.clear();
  cand_cx.clear();
  cand_cy.clear();
  cand_cz.clear();
  vv::CellId c = 0;
  for (std::uint32_t iz = 0; iz < grid.nz(); ++iz) {
    for (std::uint32_t iy = 0; iy < grid.ny(); ++iy) {
      for (std::uint32_t ix = 0; ix < grid.nx(); ++ix, ++c) {
        if (occupancy[c] == 0) continue;
        const geo::Vec3 lo =
            grid_lo + geo::Vec3{ix * cell_m, iy * cell_m, iz * cell_m};
        if (options.viewport_culling && !cell_in_frustum(lo)) continue;
        const geo::Vec3 center =
            (lo + (lo + geo::Vec3{cell_m, cell_m, cell_m})) * 0.5;
        cand_id.push_back(c);
        cand_cx.push_back(center.x);
        cand_cy.push_back(center.y);
        cand_cz.push_back(center.z);
      }
    }
  }

  std::vector<std::uint64_t>& occluded_bits = scratch.occluded;
  if (cast_rays) {
    occluded_bits.assign((cand_id.size() + 63) / 64, 0);
    RayBatch bat;
    bat.occupancy = occupancy;
    bat.opaque_thr = opaque_thr;
    bat.thickness_cell = options.occluder_thickness_cells * cell_m;
    bat.cell = cell_m;
    bat.inv_cell = 1.0 / cell_m;
    bat.eye = eye;
    bat.origin[0] = eye.x;
    bat.origin[1] = eye.y;
    bat.origin[2] = eye.z;
    bat.lo[0] = opaque_bounds.lo.x;
    bat.lo[1] = opaque_bounds.lo.y;
    bat.lo[2] = opaque_bounds.lo.z;
    bat.hi[0] = opaque_bounds.hi.x;
    bat.hi[1] = opaque_bounds.hi.y;
    bat.hi[2] = opaque_bounds.hi.z;
    bat.glo[0] = grid_lo.x;
    bat.glo[1] = grid_lo.y;
    bat.glo[2] = grid_lo.z;
    bat.n[0] = grid.nx();
    bat.n[1] = grid.ny();
    bat.n[2] = grid.nz();
    bat.nx = bat.n[0];
    bat.nxy = bat.n[0] * bat.n[1];
    for (std::size_t i = 0; i < cand_id.size(); ++i) {
      if (ray_occluded(bat, {cand_cx[i], cand_cy[i], cand_cz[i]},
                       cand_id[i]))
        occluded_bits[i >> 6] |= std::uint64_t{1} << (i & 63);
    }
  }

  const bool check_body = options.occlusion_culling && !others.empty();
  for (std::size_t i = 0; i < cand_id.size(); ++i) {
    if (cast_rays && ((occluded_bits[i >> 6] >> (i & 63)) & 1)) continue;
    const geo::Vec3 center{cand_cx[i], cand_cy[i], cand_cz[i]};
    if (check_body) {
      bool behind_body = false;
      for (const BodyObstacle& body : others) {
        if (segment_hits_body(eye, center, body)) {
          behind_body = true;
          break;
        }
      }
      if (behind_body) continue;
    }
    double lod = 1.0;
    if (options.distance_lod) {
      const double d = std::max(center.distance(eye), 1e-3);
      if (d > options.lod_reference_m) {
        const double ratio = options.lod_reference_m / d;
        lod = std::max(ratio * ratio, options.lod_min);
      }
    }
    map.set(cand_id[i], lod);
  }
  return map;
}

}  // namespace volcast::view
