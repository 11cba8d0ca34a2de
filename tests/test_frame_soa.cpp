// Frame layout suite: FrameSoA holds pushed points exactly, adopts columns
// and gathers sub-frames bit for bit, the cell grid's column bucketing
// equals a per-point locate(), and sessions built on it reproduce the
// committed goldens at every thread count (worker_threads 1/4,
// parallel_sessions 1/8).
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "common/rng.h"
#include "core/fleet.h"
#include "pointcloud/cell_grid.h"
#include "pointcloud/point_cloud.h"
#include "session_compare.h"
#include "session_golden.h"

#ifndef VOLCAST_GOLDEN_DIR
#error "VOLCAST_GOLDEN_DIR must point at tests/golden"
#endif

namespace volcast::vv {
namespace {

FrameSoA random_frame(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  FrameSoA frame;
  frame.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    const geo::Vec3 p{rng.uniform(-10.0, 10.0), rng.uniform(-10.0, 10.0),
                      rng.uniform(-10.0, 10.0)};
    const auto r = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
    const auto g = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
    const auto b = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
    frame.push_back(p, r, g, b);
  }
  return frame;
}

/// Bit-level double equality: NaN-safe and distinguishes -0.0 from 0.0,
/// which is exactly the strength of guarantee these tests claim.
::testing::AssertionResult bits_equal(double a, double b) {
  if (std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b))
    return ::testing::AssertionSuccess();
  return ::testing::AssertionFailure()
         << a << " and " << b << " differ in bits";
}

/// Copies every column of `frame` into a new frame through from_columns.
FrameSoA adopt_columns(const FrameSoA& frame) {
  return FrameSoA::from_columns({frame.xs().begin(), frame.xs().end()},
                                {frame.ys().begin(), frame.ys().end()},
                                {frame.zs().begin(), frame.zs().end()},
                                {frame.rgb().begin(), frame.rgb().end()});
}

TEST(FrameSoARoundTrip, ExactAcrossSizesSweep) {
  for (const std::size_t n : {std::size_t{2}, std::size_t{3}, std::size_t{17},
                              std::size_t{256}, std::size_t{1000},
                              std::size_t{4096}}) {
    SCOPED_TRACE(std::to_string(n) + " points");
    // The same draws as random_frame, kept so every column can be checked
    // against what was pushed.
    Rng rng(0xABCD00 + n);
    std::vector<geo::Vec3> positions;
    std::vector<std::uint8_t> colours;
    FrameSoA frame;
    frame.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
      const geo::Vec3 p{rng.uniform(-10.0, 10.0), rng.uniform(-10.0, 10.0),
                        rng.uniform(-10.0, 10.0)};
      const auto r = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
      const auto g = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
      const auto b = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
      frame.push_back(p, r, g, b);
      positions.push_back(p);
      colours.insert(colours.end(), {r, g, b});
    }
    ASSERT_EQ(frame.size(), n);

    // The columns hold every pushed point exactly, in order.
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_TRUE(bits_equal(frame.xs()[i], positions[i].x));
      EXPECT_TRUE(bits_equal(frame.ys()[i], positions[i].y));
      EXPECT_TRUE(bits_equal(frame.zs()[i], positions[i].z));
      EXPECT_EQ(frame.rgb()[3 * i], colours[3 * i]);
      EXPECT_EQ(frame.rgb()[3 * i + 1], colours[3 * i + 1]);
      EXPECT_EQ(frame.rgb()[3 * i + 2], colours[3 * i + 2]);
    }

    // Columns -> frame -> columns is a fixed point.
    EXPECT_TRUE(adopt_columns(adopt_columns(frame)) == frame);

    // Cached bounds equal a fresh scan of the positions, bit for bit.
    geo::Aabb scan;
    for (const geo::Vec3& p : positions) scan.expand(p);
    EXPECT_TRUE(bits_equal(frame.bounds().lo.x, scan.lo.x));
    EXPECT_TRUE(bits_equal(frame.bounds().lo.y, scan.lo.y));
    EXPECT_TRUE(bits_equal(frame.bounds().lo.z, scan.lo.z));
    EXPECT_TRUE(bits_equal(frame.bounds().hi.x, scan.hi.x));
    EXPECT_TRUE(bits_equal(frame.bounds().hi.y, scan.hi.y));
    EXPECT_TRUE(bits_equal(frame.bounds().hi.z, scan.hi.z));
    EXPECT_EQ(frame.raw_size_bytes(), 15 * n);
  }
}

TEST(FrameSoARoundTrip, EmptyFrame) {
  const FrameSoA frame;
  EXPECT_TRUE(frame.empty());
  EXPECT_EQ(frame.size(), 0u);
  EXPECT_EQ(frame.raw_size_bytes(), 0u);
  EXPECT_FALSE(frame.bounds().valid());
  const FrameSoA adopted = adopt_columns(frame);
  EXPECT_TRUE(adopted.empty());
  EXPECT_TRUE(adopted == frame);
  EXPECT_FALSE(adopted.bounds().valid());
}

TEST(FrameSoARoundTrip, SinglePointFrame) {
  FrameSoA frame;
  frame.push_back({-1.5, 0.0, 2.25}, 7, 8, 9);
  ASSERT_EQ(frame.size(), 1u);
  EXPECT_TRUE(bits_equal(frame.xs()[0], -1.5));
  EXPECT_TRUE(bits_equal(frame.ys()[0], 0.0));
  EXPECT_TRUE(bits_equal(frame.zs()[0], 2.25));
  EXPECT_EQ(frame.rgb()[0], 7);
  EXPECT_EQ(frame.rgb()[1], 8);
  EXPECT_EQ(frame.rgb()[2], 9);
  EXPECT_TRUE(adopt_columns(frame) == frame);
  // A single point is its own bounding box.
  EXPECT_TRUE(bits_equal(frame.bounds().lo.x, frame.bounds().hi.x));
  EXPECT_TRUE(bits_equal(frame.bounds().lo.z, frame.bounds().hi.z));
}

TEST(FrameSoAColumns, FromColumnsMatchesPushBack) {
  const FrameSoA pushed = random_frame(137, 42);
  const FrameSoA adopted = adopt_columns(pushed);
  EXPECT_TRUE(adopted == pushed);
  EXPECT_TRUE(bits_equal(adopted.bounds().lo.x, pushed.bounds().lo.x));
  EXPECT_TRUE(bits_equal(adopted.bounds().hi.z, pushed.bounds().hi.z));
}

TEST(FrameSoAColumns, FromColumnsRejectsMismatchedLengths) {
  EXPECT_THROW(FrameSoA::from_columns({1.0, 2.0}, {1.0}, {1.0, 2.0},
                                      std::vector<std::uint8_t>(6)),
               std::invalid_argument);
  EXPECT_THROW(FrameSoA::from_columns({1.0}, {1.0}, {1.0},
                                      std::vector<std::uint8_t>(2)),
               std::invalid_argument);
}

TEST(FrameSoAColumns, GatherMatchesIndexedCopy) {
  const FrameSoA frame = random_frame(64, 99);
  const std::vector<std::uint32_t> indices{3, 3, 0, 63, 17};
  const FrameSoA sub = frame.gather(indices);
  ASSERT_EQ(sub.size(), indices.size());
  for (std::size_t k = 0; k < indices.size(); ++k) {
    const std::uint32_t i = indices[k];
    EXPECT_TRUE(bits_equal(sub.xs()[k], frame.xs()[i]));
    EXPECT_TRUE(bits_equal(sub.ys()[k], frame.ys()[i]));
    EXPECT_TRUE(bits_equal(sub.zs()[k], frame.zs()[i]));
    EXPECT_EQ(sub.rgb()[3 * k], frame.rgb()[3 * i]);
  }
}

TEST(FrameSoACellGrid, AssignFlatMatchesAssign) {
  // The reference bucketing: the scalar locate() of every point, appended
  // in point order.
  const FrameSoA frame = random_frame(2000, 0x6121D);
  // 1 m is a power of two (located by multiplying), 0.7 m is not.
  for (const double edge : {1.0, 0.7}) {
    SCOPED_TRACE("edge " + std::to_string(edge));
    const CellGrid grid(frame.bounds(), edge);
    std::vector<std::vector<std::uint32_t>> buckets(grid.cell_count());
    for (std::uint32_t i = 0; i < frame.size(); ++i)
      buckets[grid.locate(frame.position(i))].push_back(i);
    const FlatAssignment flat = grid.assign_flat(frame);
    ASSERT_EQ(flat.offsets.size(), grid.cell_count() + 1);
    EXPECT_EQ(flat.indices.size(), frame.size());
    const std::vector<std::uint32_t> counts = grid.occupancy(frame);
    ASSERT_EQ(counts.size(), grid.cell_count());
    for (CellId c = 0; c < grid.cell_count(); ++c) {
      const auto span = flat.cell(c);
      ASSERT_EQ(span.size(), buckets[c].size()) << "cell " << c;
      for (std::size_t k = 0; k < span.size(); ++k)
        EXPECT_EQ(span[k], buckets[c][k]) << "cell " << c;
      EXPECT_EQ(counts[c], buckets[c].size()) << "cell " << c;
    }
  }
}

}  // namespace
}  // namespace volcast::vv

namespace volcast::core {
namespace {

/// name -> serialized block of the committed session golden file.
std::map<std::string, std::string> load_goldens() {
  const std::string path =
      std::string(VOLCAST_GOLDEN_DIR) + "/session_results.golden";
  std::ifstream in(path);
  EXPECT_TRUE(in.is_open()) << "missing golden file: " << path;
  std::map<std::string, std::string> blocks;
  std::string line;
  while (std::getline(in, line)) {
    const auto dot = line.find('.');
    if (dot == std::string::npos) continue;
    blocks[line.substr(0, dot)] += line + '\n';
  }
  return blocks;
}

TEST(FrameSoASession, SoABuiltSessionMatchesPreRefactorGolden) {
  // Spot-check of the bit-equality bar at both worker thread counts: the
  // full ablation matrix runs in the dedicated equivalence suite; here the
  // default and chaos cases prove the SoA-built store/visibility pipeline
  // reproduces the golden bytes.
  const auto goldens = load_goldens();
  ASSERT_FALSE(goldens.empty());
  for (const GoldenCase& c : golden_matrix()) {
    if (c.name != "default" && c.name != "chaos") continue;
    const auto it = goldens.find(c.name);
    ASSERT_NE(it, goldens.end()) << "no golden block for case " << c.name;
    for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
      SessionConfig config = c.config;
      config.worker_threads = threads;
      Session session(config);
      EXPECT_EQ(serialize_result(c.name, session.run()), it->second)
          << "case " << c.name << " threads " << threads;
    }
  }
}

TEST(FrameSoAFleet, BitIdenticalAtParallelSessions1And8) {
  FleetConfig fc;
  fc.session.user_count = 2;
  fc.session.duration_s = 1.0;
  fc.session.master_points = 30'000;
  fc.session.video_frames = 20;
  fc.session.worker_threads = 1;
  fc.sessions = 8;

  fc.parallel_sessions = 1;
  const FleetResult serial = run_fleet(fc);
  fc.parallel_sessions = 8;
  const FleetResult parallel = run_fleet(fc);

  ASSERT_EQ(serial.sessions.size(), 8u);
  ASSERT_EQ(parallel.sessions.size(), 8u);
  for (std::size_t k = 0; k < 8; ++k)
    expect_identical(serial.sessions[k], parallel.sessions[k]);
}

}  // namespace
}  // namespace volcast::core
