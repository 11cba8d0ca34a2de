#include "pointcloud/video_store.h"

#include <gtest/gtest.h>

namespace volcast::vv {
namespace {

VideoGenerator small_generator() {
  VideoConfig c;
  c.points_per_frame = 20'000;
  c.frame_count = 6;
  return VideoGenerator(c);
}

VideoStoreConfig scaled_tiers(bool exact) {
  VideoStoreConfig sc;
  sc.tiers = {{"low", 12'000}, {"med", 16'000}, {"high", 20'000}};
  sc.exact = exact;
  sc.sample_frames = 2;
  return sc;
}

TEST(VideoStore, RejectsBadTiers) {
  const VideoGenerator gen = small_generator();
  const CellGrid grid(gen.content_bounds(), 0.5);
  VideoStoreConfig sc;
  sc.tiers.clear();
  EXPECT_THROW(VideoStore(gen, grid, sc), std::invalid_argument);
  sc.tiers = {{"too-big", 30'000}};
  EXPECT_THROW(VideoStore(gen, grid, sc), std::invalid_argument);
  sc.tiers = {{"zero", 0}};
  EXPECT_THROW(VideoStore(gen, grid, sc), std::invalid_argument);
  // The blob format holds at most 64 tiers.
  sc.tiers.assign(65, {"t", 1'000});
  EXPECT_THROW(VideoStore(gen, grid, sc), std::invalid_argument);
}

TEST(VideoStore, DimensionsMatchConfig) {
  const VideoGenerator gen = small_generator();
  const CellGrid grid(gen.content_bounds(), 0.5);
  const VideoStore store(gen, grid, scaled_tiers(false));
  EXPECT_EQ(store.frame_count(), 6u);
  EXPECT_EQ(store.tier_count(), 3u);
  EXPECT_DOUBLE_EQ(store.fps(), 30.0);
}

TEST(VideoStore, CellPointsSumToTierBudget) {
  const VideoGenerator gen = small_generator();
  const CellGrid grid(gen.content_bounds(), 0.5);
  const VideoStore store(gen, grid, scaled_tiers(false));
  for (std::size_t q = 0; q < 3; ++q) {
    std::size_t total = 0;
    for (CellId c = 0; c < grid.cell_count(); ++c)
      total += store.cell_points(0, q, c);
    const std::size_t budget = scaled_tiers(false).tiers[q].points_per_frame;
    EXPECT_NEAR(static_cast<double>(total), static_cast<double>(budget),
                static_cast<double>(budget) * 0.05);
  }
}

TEST(VideoStore, HigherTierIsLarger) {
  const VideoGenerator gen = small_generator();
  const CellGrid grid(gen.content_bounds(), 0.5);
  const VideoStore store(gen, grid, scaled_tiers(false));
  for (std::size_t f = 0; f < store.frame_count(); ++f) {
    EXPECT_LT(store.frame_bytes(f, 0), store.frame_bytes(f, 1));
    EXPECT_LT(store.frame_bytes(f, 1), store.frame_bytes(f, 2));
  }
}

TEST(VideoStore, EmptyCellsHaveZeroBytes) {
  const VideoGenerator gen = small_generator();
  const CellGrid grid(gen.content_bounds(), 0.25);
  const VideoStore store(gen, grid, scaled_tiers(false));
  std::size_t empty_cells = 0;
  for (CellId c = 0; c < grid.cell_count(); ++c) {
    if (store.cell_points(0, 2, c) == 0) {
      EXPECT_EQ(store.cell_bytes(0, 2, c), 0u);
      ++empty_cells;
    } else {
      EXPECT_GT(store.cell_bytes(0, 2, c), 0u);
    }
  }
  EXPECT_GT(empty_cells, 0u);  // a human figure never fills the whole box
}

TEST(VideoStore, ModeledSizesTrackExactSizes) {
  const VideoGenerator gen = small_generator();
  const CellGrid grid(gen.content_bounds(), 0.5);
  const VideoStore exact(gen, grid, scaled_tiers(true));
  const VideoStore modeled(gen, grid, scaled_tiers(false));
  // Frames beyond the sample window are modeled; totals must agree within
  // 15% (the linear model's tolerance).
  for (std::size_t f = 3; f < 6; ++f) {
    const double e = static_cast<double>(exact.frame_bytes(f, 2));
    const double m = static_cast<double>(modeled.frame_bytes(f, 2));
    EXPECT_NEAR(m / e, 1.0, 0.15) << "frame " << f;
  }
}

TEST(VideoStore, BitrateScalesWithPointCount) {
  const VideoGenerator gen = small_generator();
  const CellGrid grid(gen.content_bounds(), 0.5);
  const VideoStore store(gen, grid, scaled_tiers(false));
  const double low = store.tier_bitrate_mbps(0);
  const double high = store.tier_bitrate_mbps(2);
  EXPECT_GT(low, 0.0);
  // 12K -> 20K points is a 1.67x increase; bitrate should grow comparably.
  EXPECT_NEAR(high / low, 20.0 / 12.0, 0.35);
}

TEST(VideoStore, BitsPerPointInCodecRegime) {
  const VideoGenerator gen = small_generator();
  const CellGrid grid(gen.content_bounds(), 0.5);
  const VideoStore store(gen, grid, scaled_tiers(true));
  for (std::size_t q = 0; q < 3; ++q) {
    const double bpp = store.tier_bits_per_point(q);
    EXPECT_GT(bpp, 10.0);
    EXPECT_LT(bpp, 60.0);
  }
}

TEST(VideoStore, AccessorsRangeCheck) {
  const VideoGenerator gen = small_generator();
  const CellGrid grid(gen.content_bounds(), 0.5);
  const VideoStore store(gen, grid, scaled_tiers(false));
  EXPECT_THROW((void)store.cell_bytes(99, 0, 0), std::out_of_range);
  EXPECT_THROW((void)store.cell_bytes(0, 99, 0), std::out_of_range);
  EXPECT_THROW((void)store.cell_bytes(0, 0, grid.cell_count() + 5),
               std::out_of_range);
}

TEST(VideoStore, PaperTiersAreDefault) {
  const auto tiers = paper_quality_tiers();
  ASSERT_EQ(tiers.size(), 3u);
  EXPECT_EQ(tiers[0].points_per_frame, 330'000u);
  EXPECT_EQ(tiers[1].points_per_frame, 430'000u);
  EXPECT_EQ(tiers[2].points_per_frame, 550'000u);
}

}  // namespace
}  // namespace volcast::vv
