#include "pointcloud/video_generator.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/thread_pool.h"

namespace volcast::vv {
namespace {

VideoConfig small_config() {
  VideoConfig c;
  c.points_per_frame = 10'000;
  c.frame_count = 30;
  return c;
}

/// Point i of `frame` as (x, y, z, r, g, b), for whole-point comparisons.
std::array<double, 6> point_at(const FrameSoA& frame, std::size_t i) {
  const std::span<const std::uint8_t> rgb = frame.rgb();
  return {frame.xs()[i], frame.ys()[i], frame.zs()[i],
          static_cast<double>(rgb[3 * i]), static_cast<double>(rgb[3 * i + 1]),
          static_cast<double>(rgb[3 * i + 2])};
}

TEST(VideoGenerator, ExactPointBudget) {
  const VideoGenerator gen(small_config());
  EXPECT_EQ(gen.frame_soa(0).size(), 10'000u);
  EXPECT_EQ(gen.frame_soa(7).size(), 10'000u);
}

TEST(VideoGenerator, DeterministicPerIndex) {
  const VideoGenerator a(small_config());
  const VideoGenerator b(small_config());
  const FrameSoA fa = a.frame_soa(5);
  const FrameSoA fb = b.frame_soa(5);
  ASSERT_EQ(fa.size(), fb.size());
  for (std::size_t i = 0; i < fa.size(); i += 500)
    EXPECT_EQ(point_at(fa, i), point_at(fb, i));
}

TEST(VideoGenerator, SeedChangesSampling) {
  VideoConfig c1 = small_config();
  VideoConfig c2 = small_config();
  c2.seed = 999;
  const FrameSoA f1 = VideoGenerator(c1).frame_soa(0);
  const FrameSoA f2 = VideoGenerator(c2).frame_soa(0);
  int differing = 0;
  for (std::size_t i = 0; i < f1.size(); i += 100)
    if (point_at(f1, i) != point_at(f2, i)) ++differing;
  EXPECT_GT(differing, 50);
}

TEST(VideoGenerator, FramesStayInsideContentBounds) {
  const VideoGenerator gen(small_config());
  const auto bounds = gen.content_bounds();
  for (std::size_t f = 0; f < 30; f += 5) {
    const FrameSoA frame = gen.frame_soa(f);
    for (std::size_t i = 0; i < frame.size(); ++i)
      EXPECT_TRUE(bounds.contains(frame.position(i)));
  }
}

TEST(VideoGenerator, AnimationMovesPoints) {
  const VideoGenerator gen(small_config());
  const FrameSoA f0 = gen.frame_soa(0);
  const FrameSoA f10 = gen.frame_soa(10);
  double total_motion = 0.0;
  for (std::size_t i = 0; i < f0.size(); i += 50)
    total_motion += f0.position(i).distance(f10.position(i));
  EXPECT_GT(total_motion, 1.0);  // limbs swing
}

TEST(VideoGenerator, TemporalCoherenceBetweenAdjacentFrames) {
  const VideoGenerator gen(small_config());
  const FrameSoA f0 = gen.frame_soa(0);
  const FrameSoA f1 = gen.frame_soa(1);
  for (std::size_t i = 0; i < f0.size(); i += 111) {
    EXPECT_LT(f0.position(i).distance(f1.position(i)), 0.15)
        << "point " << i << " teleported between adjacent frames";
  }
}

TEST(VideoGenerator, LoopsModuloFrameCount) {
  const VideoGenerator gen(small_config());
  const FrameSoA f2 = gen.frame_soa(2);
  const FrameSoA f32 = gen.frame_soa(32);  // 32 % 30 == 2
  ASSERT_EQ(f2.size(), f32.size());
  for (std::size_t i = 0; i < f2.size(); i += 1000)
    EXPECT_EQ(point_at(f2, i), point_at(f32, i));
}

TEST(VideoGenerator, ContentCenterInsideBounds) {
  const VideoGenerator gen(small_config());
  EXPECT_TRUE(gen.content_bounds().contains(gen.content_center()));
}

TEST(VideoGenerator, HumanlikeVerticalExtent) {
  const VideoGenerator gen(small_config());
  const auto bounds = gen.frame_soa(0).bounds();
  EXPECT_GT(bounds.hi.z - bounds.lo.z, 1.4);  // roughly person-sized
  EXPECT_LT(bounds.hi.z - bounds.lo.z, 2.0);
}

/// FNV-1a64 over the sample columns, the colours and the part runs.
std::uint64_t samples_hash(const VideoGenerator& gen) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  const auto mix = [&h](const void* data, std::size_t bytes) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < bytes; ++i) {
      h ^= p[i];
      h *= 0x100000001b3ULL;
    }
  };
  const std::size_t n = gen.config().points_per_frame;
  mix(gen.local_x().data(), 8 * n);
  mix(gen.local_y().data(), 8 * n);
  mix(gen.local_z().data(), 8 * n);
  const FrameSoA frame = gen.frame_soa(0);
  mix(frame.rgb().data(), frame.rgb().size());
  for (const VideoGenerator::PartRun& run : gen.runs()) {
    const std::uint64_t fields[3] = {run.part, run.begin, run.end};
    mix(fields, sizeof fields);
  }
  return h;
}

VideoConfig sampling_config(std::uint64_t seed, std::size_t points) {
  VideoConfig c;
  c.points_per_frame = points;
  c.frame_count = 30;
  c.seed = seed;
  return c;
}

TEST(VideoGenerator, SerialDrawMatchesPinnedHashes) {
  // The samples of the serial draw, hashed when points were still drawn
  // one push_back at a time: drawing into pre-sized rows must not move a
  // single bit. Tiny budgets cover the one-point fallback (1) and the
  // top-up with copies (2, 3, 5).
  struct Pinned {
    std::uint64_t seed;
    std::size_t points;
    std::uint64_t hash;
  };
  const Pinned pinned[] = {
      {1, 1, 0xc80abbb3933af582ULL},      {1, 2, 0x8c4a992adae3ca8fULL},
      {1, 3, 0xa338ef6c983b1058ULL},      {1, 5, 0x337299df9f5e9fbaULL},
      {1, 1000, 0xa71e99a87985df88ULL},   {1, 120000, 0xada3b40d13c758deULL},
      {7, 5, 0xa345bb4e1b63fd1fULL},      {7, 1000, 0x7c6de96ec3fbdf13ULL},
      {7, 120000, 0x611a2062583d1f69ULL}, {11, 1, 0x7be83e9833cac27fULL},
      {11, 5, 0x2eba8ba2c4b48bf2ULL},     {11, 120000, 0xb263cec21e9e81afULL},
  };
  for (const Pinned& p : pinned) {
    EXPECT_EQ(samples_hash(VideoGenerator(sampling_config(p.seed, p.points))),
              p.hash)
        << "seed " << p.seed << ", " << p.points << " points";
  }
}

TEST(VideoGenerator, PooledDrawEqualsSerialDrawAtAnyPoolSize) {
  // Pools of up to 7 lanes, on budgets with more lanes than points, with
  // the one-point fallback, with top-up copies and at the ledger's size.
  for (const std::uint64_t seed : {1u, 7u, 11u}) {
    for (const std::size_t points : {1u, 2u, 3u, 5u, 1000u, 120000u}) {
      const VideoGenerator serial(sampling_config(seed, points));
      const FrameSoA serial_frame = serial.frame_soa(0);
      for (const std::size_t threads : {1u, 2u, 3u, 4u, 7u}) {
        SCOPED_TRACE("seed " + std::to_string(seed) + ", " +
                     std::to_string(points) + " points, " +
                     std::to_string(threads) + " lanes");
        common::ThreadPool pool(threads);
        const VideoGenerator pooled(sampling_config(seed, points), &pool);
        EXPECT_EQ(pooled.local_x(), serial.local_x());
        EXPECT_EQ(pooled.local_y(), serial.local_y());
        EXPECT_EQ(pooled.local_z(), serial.local_z());
        EXPECT_EQ(pooled.runs(), serial.runs());
        const FrameSoA frame = pooled.frame_soa(0);
        EXPECT_TRUE(std::ranges::equal(frame.rgb(), serial_frame.rgb()));
      }
    }
  }
}

TEST(VideoGenerator, SkipPointLeavesTheRngWhereDrawPointDoes) {
  for (const std::uint64_t seed : {3u, 1234u}) {
    Rng drawn(seed);
    Rng skipped(seed);
    for (std::size_t k = 1; k <= 300; ++k) {
      static_cast<void>(VideoGenerator::draw_point(drawn, k % 10));
      VideoGenerator::skip_point(skipped);
      // Copies, so the walk goes on: equal raw outputs, and the next
      // normal() is drawn fresh by both (neither holds a cached one).
      Rng a = drawn;
      Rng b = skipped;
      ASSERT_EQ(a.normal(), b.normal()) << "after " << k << " points";
      ASSERT_EQ(a.normal(), b.normal()) << "after " << k << " points";
      ASSERT_EQ(a.next_u64(), b.next_u64()) << "after " << k << " points";
    }
  }
}

TEST(VideoGenerator, DrawPointRejectsAnUnknownPart) {
  Rng rng(1);
  EXPECT_THROW(static_cast<void>(VideoGenerator::draw_point(rng, 10)),
               std::out_of_range);
}

TEST(Thin, FractionOneIsIdentity) {
  const VideoGenerator gen(small_config());
  const FrameSoA cloud = gen.frame_soa(0);
  EXPECT_TRUE(thin(cloud, 1.0) == cloud);
  EXPECT_TRUE(thin(cloud, 2.0) == cloud);
}

TEST(Thin, FractionZeroIsEmpty) {
  const VideoGenerator gen(small_config());
  EXPECT_TRUE(thin(gen.frame_soa(0), 0.0).empty());
  EXPECT_TRUE(thin(gen.frame_soa(0), -1.0).empty());
}

TEST(Thin, ApproximatesRequestedFraction) {
  const VideoGenerator gen(small_config());
  const FrameSoA cloud = gen.frame_soa(0);
  for (double f : {0.25, 0.5, 0.6, 0.78}) {
    const auto thinned = thin(cloud, f);
    const double actual =
        static_cast<double>(thinned.size()) / static_cast<double>(cloud.size());
    EXPECT_NEAR(actual, f, 0.03) << "fraction " << f;
  }
}

TEST(Thin, DeterministicAndNested) {
  // Thinning is index-hash based: thinning to 0.3 keeps a subset of the
  // points kept at 0.6 (nested levels of detail).
  const VideoGenerator gen(small_config());
  const FrameSoA cloud = gen.frame_soa(0);
  const FrameSoA t1 = thin(cloud, 0.6);
  const FrameSoA t2 = thin(cloud, 0.6);
  ASSERT_EQ(t1.size(), t2.size());
  for (std::size_t i = 0; i < t1.size(); i += 97)
    EXPECT_EQ(point_at(t1, i), point_at(t2, i));
}

TEST(Thin, KeepsTheFilteredPointsInOrder) {
  // thin() is the ThinFilter index test applied in point order: the kept
  // points are exactly those whose index passes, with unchanged bits.
  const VideoGenerator gen(small_config());
  const FrameSoA cloud = gen.frame_soa(3);
  for (double fraction : {0.05, 0.6, 0.999}) {
    const ThinFilter filter(fraction);
    FrameSoA expected;
    const std::span<const std::uint8_t> rgb = cloud.rgb();
    for (std::uint32_t i = 0; i < cloud.size(); ++i)
      if (filter.keeps(i))
        expected.push_back(cloud.position(i), rgb[3 * i], rgb[3 * i + 1],
                           rgb[3 * i + 2]);
    EXPECT_TRUE(thin(cloud, fraction) == expected) << "fraction " << fraction;
  }
}

TEST(Thin, PreservesSpatialCoverage) {
  // The thinned cloud must still span the figure (uniform thinning).
  const VideoGenerator gen(small_config());
  const FrameSoA cloud = gen.frame_soa(0);
  const FrameSoA thinned = thin(cloud, 0.3);
  const auto full_bounds = cloud.bounds();
  const auto thin_bounds = thinned.bounds();
  EXPECT_LT(full_bounds.hi.z - thin_bounds.hi.z, 0.1);
  EXPECT_LT(thin_bounds.lo.z - full_bounds.lo.z, 0.1);
}

}  // namespace
}  // namespace volcast::vv
