#include "pointcloud/cell_grid.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <string>
#include <vector>

#include "common/rng.h"

namespace volcast::vv {
namespace {

const geo::Aabb kUnitBox({0, 0, 0}, {1, 1, 1});

/// locate()'s contract written out with int64 truncation, for quotients
/// that fit an int64.
CellId int64_locate(const CellGrid& grid, const geo::Vec3& p) {
  const geo::Vec3 lo = grid.bounds().lo;
  auto axis = [&grid](double v, double origin, std::uint32_t count) {
    const auto raw =
        static_cast<std::int64_t>((v - origin) / grid.cell_size_m());
    return static_cast<std::uint32_t>(std::clamp<std::int64_t>(
        raw, 0, static_cast<std::int64_t>(count) - 1));
  };
  return axis(p.x, lo.x, grid.nx()) +
         grid.nx() * (axis(p.y, lo.y, grid.ny()) +
                      grid.ny() * axis(p.z, lo.z, grid.nz()));
}

/// Coordinates where rounding and clamping decide the cell along one axis
/// of `grid`: exact multiples of the edge, +-0, one ulp either side of
/// every cell boundary and of the bounds, and far-out values.
std::vector<double> edge_values(const CellGrid& grid, double lo,
                                std::uint32_t count) {
  std::vector<double> v{0.0, -0.0, 1e12, -1e12, 1e300, -1e300, 1e-300};
  const double edge = grid.cell_size_m();
  for (std::uint32_t k = 0; k <= count + 1; ++k) {
    for (const double b : {lo + k * edge, k * edge, lo + (k + 0.5) * edge}) {
      v.push_back(b);
      v.push_back(std::nextafter(b, -1e308));
      v.push_back(std::nextafter(b, 1e308));
    }
  }
  return v;
}

TEST(CellGridLocate, ColumnsEqualScalarLocateAtEveryEdge) {
  const geo::Aabb boxes[] = {kUnitBox,
                             {{-0.8, -0.8, 0.0}, {0.8, 0.8, 2.0}},
                             {{-1.3, 0.1, -0.7}, {0.9, 1.25, 1.0}}};
  // Powers of two multiply by the reciprocal; the others divide.
  for (const double edge : {0.125, 0.25, 0.5, 1.0, 0.1, 0.3, 0.7}) {
    for (const geo::Aabb& box : boxes) {
      SCOPED_TRACE("edge " + std::to_string(edge));
      const CellGrid grid(box, edge);
      const std::vector<double> xs = edge_values(grid, box.lo.x, grid.nx());
      const std::vector<double> ys = edge_values(grid, box.lo.y, grid.ny());
      const std::vector<double> zs = edge_values(grid, box.lo.z, grid.nz());
      // Every x against a cycling y and z, so each value meets the
      // vectorized body and, at the odd tail, the scalar epilogue.
      std::vector<double> x;
      std::vector<double> y;
      std::vector<double> z;
      for (std::size_t i = 0; i < xs.size() * 3 + 1; ++i) {
        x.push_back(xs[i % xs.size()]);
        y.push_back(ys[(i * 7) % ys.size()]);
        z.push_back(zs[(i * 13) % zs.size()]);
      }
      std::vector<CellId> ids(x.size(), 0xdeadbeef);
      grid.locate_columns(x.data(), y.data(), z.data(), x.size(), ids.data());
      for (std::size_t i = 0; i < x.size(); ++i) {
        const geo::Vec3 p{x[i], y[i], z[i]};
        ASSERT_EQ(ids[i], grid.locate(p)) << p.x << " " << p.y << " " << p.z;
        ASSERT_LT(ids[i], grid.cell_count());
        CellId one = 0;
        grid.locate_columns(&p.x, &p.y, &p.z, 1, &one);
        ASSERT_EQ(one, ids[i]);
        if (std::abs(p.x) < 1e15 && std::abs(p.y) < 1e15 &&
            std::abs(p.z) < 1e15) {
          ASSERT_EQ(ids[i], int64_locate(grid, p))
              << p.x << " " << p.y << " " << p.z;
        }
      }
    }
  }
}

TEST(CellGridLocate, NonFiniteCoordinatesClampIntoTheGrid) {
  const CellGrid grid(kUnitBox, 0.25);
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  EXPECT_EQ(grid.locate({inf, inf, inf}), grid.cell_count() - 1);
  EXPECT_EQ(grid.locate({-inf, -inf, -inf}), 0u);
  EXPECT_EQ(grid.locate({nan, nan, nan}), 0u);
  const double x[] = {inf, -inf, nan};
  CellId ids[3];
  grid.locate_columns(x, x, x, 3, ids);
  EXPECT_EQ(ids[0], grid.cell_count() - 1);
  EXPECT_EQ(ids[1], 0u);
  EXPECT_EQ(ids[2], 0u);
}

TEST(CellGrid, RejectsBadArguments) {
  EXPECT_THROW(CellGrid(kUnitBox, 0.0), std::invalid_argument);
  EXPECT_THROW(CellGrid(kUnitBox, -1.0), std::invalid_argument);
  EXPECT_THROW(CellGrid(geo::Aabb{}, 0.5), std::invalid_argument);
}

TEST(CellGrid, CellCountsMatchDimensions) {
  const CellGrid grid(geo::Aabb({0, 0, 0}, {2, 1, 0.5}), 0.5);
  EXPECT_EQ(grid.nx(), 4u);
  EXPECT_EQ(grid.ny(), 2u);
  EXPECT_EQ(grid.nz(), 1u);
  EXPECT_EQ(grid.cell_count(), 8u);
}

TEST(CellGrid, CellLargerThanContentGivesOneCell) {
  const CellGrid grid(kUnitBox, 5.0);
  EXPECT_EQ(grid.cell_count(), 1u);
}

TEST(CellGrid, PaperCellSizes) {
  // The paper's three partition granularities over a ~1.6x1.6x1.9 m body.
  const geo::Aabb body({-0.8, -0.8, 0.0}, {0.8, 0.8, 1.9});
  EXPECT_EQ(CellGrid(body, 1.00).cell_count(), 2u * 2u * 2u);
  EXPECT_EQ(CellGrid(body, 0.50).cell_count(), 4u * 4u * 4u);
  EXPECT_EQ(CellGrid(body, 0.25).cell_count(),
            7u * 7u * 8u);
}

TEST(CellGrid, CellBoundsTileTheBox) {
  const CellGrid grid(kUnitBox, 0.5);
  double total = 0.0;
  for (CellId c = 0; c < grid.cell_count(); ++c)
    total += grid.cell_bounds(c).volume();
  EXPECT_NEAR(total, 1.0, 1e-9);
}

TEST(CellGrid, CellBoundsOutOfRangeThrows) {
  const CellGrid grid(kUnitBox, 0.5);
  EXPECT_THROW((void)grid.cell_bounds(grid.cell_count()), std::out_of_range);
}

TEST(CellGrid, LocateRoundTripsWithCellBounds) {
  const CellGrid grid(kUnitBox, 0.3);
  for (CellId c = 0; c < grid.cell_count(); ++c) {
    EXPECT_EQ(grid.locate(grid.cell_center(c)), c);
  }
}

TEST(CellGrid, LocateClampsOutOfBoundsPoints) {
  const CellGrid grid(kUnitBox, 0.5);
  EXPECT_EQ(grid.locate({-5, -5, -5}), grid.locate({0, 0, 0}));
  EXPECT_EQ(grid.locate({5, 5, 5}), grid.locate({1, 1, 1}));
}

TEST(CellGrid, AssignPartitionsAllPoints) {
  const CellGrid grid(kUnitBox, 0.5);
  FrameSoA frame;
  for (int i = 0; i < 100; ++i) {
    const double v = i / 100.0;
    frame.push_back({v, 1.0 - v, 0.5}, 0, 0, 0);
  }
  const FlatAssignment buckets = grid.assign_flat(frame);
  std::size_t total = 0;
  for (CellId c = 0; c < grid.cell_count(); ++c)
    total += buckets.cell(c).size();
  EXPECT_EQ(total, frame.size());
  // Indices must be valid and unique, each in its point's cell.
  std::vector<bool> seen(frame.size(), false);
  for (CellId c = 0; c < grid.cell_count(); ++c) {
    for (auto i : buckets.cell(c)) {
      ASSERT_LT(i, frame.size());
      EXPECT_FALSE(seen[i]);
      seen[i] = true;
      EXPECT_EQ(grid.locate(frame.position(i)), c);
    }
  }
}

TEST(CellGrid, OccupancyMatchesAssign) {
  const CellGrid grid(kUnitBox, 0.34);
  FrameSoA frame;
  volcast::Rng rng(5);
  for (int i = 0; i < 500; ++i) {
    const geo::Vec3 p{rng.uniform(), rng.uniform(), rng.uniform()};
    frame.push_back(p, 0, 0, 0);
  }
  const FlatAssignment buckets = grid.assign_flat(frame);
  const auto counts = grid.occupancy(frame);
  ASSERT_EQ(buckets.offsets.size(), counts.size() + 1);
  for (CellId c = 0; c < counts.size(); ++c)
    EXPECT_EQ(counts[c], buckets.cell(c).size());
  EXPECT_EQ(std::accumulate(counts.begin(), counts.end(), 0u), 500u);
}

TEST(CellGrid, PointsLandInContainingCell) {
  const CellGrid grid(kUnitBox, 0.25);
  volcast::Rng rng(9);
  for (int i = 0; i < 1000; ++i) {
    const geo::Vec3 p{rng.uniform(), rng.uniform(), rng.uniform()};
    const CellId c = grid.locate(p);
    // The located cell's padded bounds must contain the point (padding for
    // boundary points assigned to the lower cell).
    EXPECT_TRUE(grid.cell_bounds(c).padded(1e-9).contains(p));
  }
}

class CellGridSizeSweep : public ::testing::TestWithParam<double> {};

TEST_P(CellGridSizeSweep, FinerGridsHaveMoreCells) {
  const double size = GetParam();
  const CellGrid coarse(kUnitBox, size * 2.0);
  const CellGrid fine(kUnitBox, size);
  EXPECT_GE(fine.cell_count(), coarse.cell_count());
}

INSTANTIATE_TEST_SUITE_P(Sizes, CellGridSizeSweep,
                         ::testing::Values(0.1, 0.2, 0.25, 0.3, 0.5));

}  // namespace
}  // namespace volcast::vv
