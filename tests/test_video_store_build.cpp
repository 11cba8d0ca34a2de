// Equivalence wall for the store build. Each fast path is checked against
// a plain reference written here:
//  * modeled frames, counted by tier class leaf by leaf, equal
//    occupancy(thin(master, fraction)) per tier at five cell edges and on
//    a grid smaller than the content, and the whole
//    serialized store equals a reference blob (thin, bucket by scalar
//    locate(), gather and encode every tier of every sample frame) for
//    power-of-two and other cell edges,
//    unsorted and duplicate tier ladders, 0 to 2 sample frames, exact
//    stores, and pools of 1, 2 and 4 workers (whose lanes size the
//    sample frame's cells largest first), and the ledger-shaped bundle
//    store hashes as pinned from a serial build;
//  * the radix-sorted encoder equals an encoder that sorts (code, index)
//    pairs with a comparator, byte for byte, on tie-heavy clouds;
//  * the leaves partition the samples, their radii are inflated past
//    every member, moved members stay inside the moved corners, and their
//    counts equal locating every sample;
//  * VideoGenerator::positions() equals a per-point Quat::rotate of each
//    sample by its part's pose, bit for bit;
//  * the bundle's occupancy is the store's top-tier row, not a copy.
// Suite names start with VideoStore so the TSan run selects them.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cstring>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/endian.h"
#include "common/fnv.h"
#include "common/rng.h"
#include "common/stats.h"
#include "common/thread_pool.h"
#include "core/session.h"
#include "core/workload_bundle.h"
#include "geometry/morton.h"
#include "pointcloud/codec.h"
#include "pointcloud/range_coder.h"
#include "pointcloud/sample_leaves.h"
#include "pointcloud/video_store.h"

namespace volcast::vv {
namespace {

// ---------------------------------------------------------------------------
// Reference store: thin every tier of every frame, bucket its points one
// by one with the scalar CellGrid::locate(), gather and encode each cell of
// the sample frames, fit the size model, and serialize the tables in the
// VSTR layout.

// [frame][tier][cell]
using Table = std::vector<std::vector<std::vector<std::uint32_t>>>;

struct ReferenceTables {
  Table bytes;
  Table points;
};

ReferenceTables reference_tables(const VideoGenerator& gen,
                                 const CellGrid& grid,
                                 const VideoStoreConfig& config) {
  const std::size_t n_frames = gen.config().frame_count;
  const std::size_t n_tiers = config.tiers.size();
  // The store encodes at least one sample frame, and every frame when
  // exact (then no size model is fitted).
  const std::size_t samples =
      config.exact ? n_frames
                   : std::min(std::max<std::size_t>(config.sample_frames, 1),
                              n_frames);
  const auto master_points =
      static_cast<double>(gen.config().points_per_frame);
  ReferenceTables ref;
  ref.bytes.assign(n_frames, {});
  ref.points.assign(n_frames, {});
  std::vector<std::vector<double>> fit_x(n_tiers);
  std::vector<std::vector<double>> fit_y(n_tiers);
  for (std::size_t f = 0; f < n_frames; ++f) {
    const FrameSoA master = gen.frame_soa(f);
    for (std::size_t q = 0; q < n_tiers; ++q) {
      const double fraction =
          static_cast<double>(config.tiers[q].points_per_frame) /
          master_points;
      const FrameSoA frame = thin(master, fraction);
      std::vector<std::vector<std::uint32_t>> buckets(grid.cell_count());
      for (std::uint32_t i = 0; i < frame.size(); ++i)
        buckets[grid.locate(frame.position(i))].push_back(i);
      std::vector<std::uint32_t> points(grid.cell_count(), 0);
      for (CellId c = 0; c < grid.cell_count(); ++c)
        points[c] = static_cast<std::uint32_t>(buckets[c].size());
      ref.points[f].push_back(std::move(points));
      std::vector<std::uint32_t> bytes(grid.cell_count(), 0);
      if (f < samples) {
        for (CellId c = 0; c < grid.cell_count(); ++c) {
          if (buckets[c].empty()) continue;
          const FrameSoA cell = frame.gather(buckets[c]);
          bytes[c] = static_cast<std::uint32_t>(encode(cell).size());
          fit_x[q].push_back(static_cast<double>(buckets[c].size()));
          fit_y[q].push_back(static_cast<double>(bytes[c]));
        }
      }
      ref.bytes[f].push_back(std::move(bytes));
    }
  }
  for (std::size_t q = 0; q < n_tiers; ++q) {
    const LinearFit fit = fit_line(fit_x[q], fit_y[q]);
    for (std::size_t f = samples; f < n_frames; ++f) {
      for (CellId c = 0; c < grid.cell_count(); ++c) {
        const std::uint32_t count = ref.points[f][q][c];
        if (count == 0) continue;
        ref.bytes[f][q][c] = static_cast<std::uint32_t>(
            std::max(fit.at(static_cast<double>(count)),
                     static_cast<double>(kCodecHeaderBytes)));
      }
    }
  }
  return ref;
}

std::vector<std::uint8_t> reference_blob(const ReferenceTables& ref,
                                         const VideoStoreConfig& config,
                                         double fps, std::size_t cells) {
  std::vector<std::uint8_t> out{'V', 'S', 'T', 'R'};
  common::put_u32(out, 1);
  common::put_f64(out, fps);
  common::put_u32(out, static_cast<std::uint32_t>(config.tiers.size()));
  common::put_u32(out, static_cast<std::uint32_t>(ref.bytes.size()));
  common::put_u64(out, cells);
  for (const QualityTier& tier : config.tiers) {
    common::put_u32(out, static_cast<std::uint32_t>(tier.name.size()));
    out.insert(out.end(), tier.name.begin(), tier.name.end());
    common::put_u64(out, tier.points_per_frame);
  }
  for (std::size_t f = 0; f < ref.bytes.size(); ++f) {
    for (std::size_t q = 0; q < config.tiers.size(); ++q) {
      for (std::uint32_t b : ref.bytes[f][q]) common::put_u32(out, b);
      for (std::uint32_t p : ref.points[f][q]) common::put_u32(out, p);
    }
  }
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (std::uint8_t b : out) {
    h ^= b;
    h *= 0x100000001b3ULL;
  }
  common::put_u64(out, h);
  return out;
}

struct BuildCase {
  std::uint64_t seed;
  std::size_t master_points;
  std::vector<std::size_t> tier_points;
  std::size_t sample_frames;
  double cell_m = 0.5;
  bool exact = false;
};

VideoStoreConfig case_config(const BuildCase& bc) {
  VideoStoreConfig sc;
  sc.tiers.clear();
  for (std::size_t p : bc.tier_points) {
    // Appended rather than "t" + to_string(p), where GCC 12 warns of an
    // overlapping copy (-Wrestrict) inside the inlined concatenation.
    std::string name = "t";
    name += std::to_string(p);
    sc.tiers.push_back({std::move(name), p});
  }
  sc.sample_frames = bc.sample_frames;
  sc.exact = bc.exact;
  return sc;
}

std::string case_name(const BuildCase& bc) {
  std::string name = "seed " + std::to_string(bc.seed) + ", master " +
                     std::to_string(bc.master_points) + ", cell " +
                     std::to_string(bc.cell_m) + ", samples " +
                     std::to_string(bc.sample_frames) + ", tiers";
  for (std::size_t p : bc.tier_points) name += " " + std::to_string(p);
  return bc.exact ? name + ", exact" : name;
}

std::vector<BuildCase> build_cases() {
  Rng rng(0x5704e);
  std::vector<BuildCase> cases;
  for (int k = 0; k < 3; ++k) {
    const auto seed = static_cast<std::uint64_t>(rng.uniform_int(1, 1 << 30));
    const auto master =
        static_cast<std::size_t>(rng.uniform_int(2'000, 12'000));
    // The paper's three-tier ladder scaled to the master, the top tier
    // equal to the master (fraction 1).
    cases.push_back({seed, master,
                     {master * 330 / 550, master * 430 / 550, master},
                     1});
  }
  // A one-point tier and a master tier side by side.
  cases.push_back({7, 5'001, {1, 5'001}, 1});
  // A four-tier ladder below the master, two sample frames.
  cases.push_back({13, 9'999, {1'000, 3'333, 6'000, 9'998}, 2});
  // Cell edges: 0.25 m is a power of two (located by multiplying with its
  // reciprocal), 0.3 m and 0.7 m are not (located by dividing).
  cases.push_back({21, 4'000, {2'400, 3'127, 4'000}, 1, 0.25});
  cases.push_back({22, 4'000, {2'400, 3'127, 4'000}, 2, 0.3});
  cases.push_back({23, 4'000, {2'400, 3'127, 4'000}, 0, 0.7});
  // Unsorted ladders and duplicate fractions: tier classes follow the
  // filters' bounds, not the tier order.
  cases.push_back({24, 3'000, {3'000, 900, 2'100}, 1, 0.3});
  cases.push_back({25, 3'000, {1'800, 600, 1'800, 3'000, 600}, 2, 0.25});
  cases.push_back({26, 2'500, {2'500, 2'500, 1'000}, 0, 0.7});
  // Every frame exact: no size model, frames spread over the pool.
  cases.push_back({27, 2'000, {600, 2'000, 1'300}, 0, 0.3, true});
  // A one-point video.
  cases.push_back({28, 1, {1}, 1, 0.25});
  return cases;
}

/// Grids for the modeled-frame and leaf tests: the content bounds at cell
/// edges of 0.25 (a power of two), 0.3, 0.5, 0.7 and 1.0 m, and a box
/// smaller than the content, so points clamp into its edge cells.
std::vector<CellGrid> leaf_grids(const VideoGenerator& gen) {
  std::vector<CellGrid> grids;
  for (double edge : {0.25, 0.3, 0.5, 0.7, 1.0})
    grids.emplace_back(gen.content_bounds(), edge);
  grids.emplace_back(geo::Aabb{{-0.3, -0.2, 0.6}, {0.3, 0.25, 1.5}}, 0.3);
  return grids;
}

/// Every row of `store` equals occupancy(thin(master, fraction)).
void expect_rows_equal_thin_then_occupancy(const VideoGenerator& gen,
                                           const CellGrid& grid,
                                           const VideoStoreConfig& sc,
                                           const VideoStore& store) {
  const auto master_points =
      static_cast<double>(gen.config().points_per_frame);
  for (std::size_t f = 0; f < gen.config().frame_count; ++f) {
    const FrameSoA master = gen.frame_soa(f);
    for (std::size_t q = 0; q < sc.tiers.size(); ++q) {
      const double fraction =
          static_cast<double>(sc.tiers[q].points_per_frame) / master_points;
      const auto expected = grid.occupancy(thin(master, fraction));
      const auto row = store.tier_points(f, q);
      ASSERT_TRUE(std::equal(row.begin(), row.end(), expected.begin(),
                             expected.end()))
          << "frame " << f << " tier " << q;
    }
  }
}

TEST(VideoStoreFusedBuild, ModeledFramesEqualThinThenOccupancy) {
  for (const BuildCase& bc : build_cases()) {
    SCOPED_TRACE(case_name(bc));
    VideoConfig vc;
    vc.points_per_frame = bc.master_points;
    vc.frame_count = 5;
    vc.seed = bc.seed;
    const VideoGenerator gen(vc);
    const CellGrid grid(gen.content_bounds(), bc.cell_m);
    const VideoStoreConfig sc = case_config(bc);
    const VideoStore store(gen, grid, sc);
    expect_rows_equal_thin_then_occupancy(gen, grid, sc, store);
  }
  // Every leaf grid, tiny and large videos, a ladder topped by the master
  // and one below it (points no tier keeps), on pools of 1, 2 and 4.
  for (std::size_t points : {1u, 7u, 11u, 3'000u}) {
    VideoConfig vc;
    vc.points_per_frame = points;
    vc.frame_count = 6;
    vc.seed = 40 + points;
    const VideoGenerator gen(vc);
    const auto share = [points](std::size_t of_550) {
      return std::max<std::size_t>(1, points * of_550 / 550);
    };
    for (const std::vector<std::size_t>& ladder :
         {std::vector<std::size_t>{share(330), share(430), points},
          std::vector<std::size_t>{share(330), share(500)}}) {
      BuildCase bc{vc.seed, points, ladder, 1};
      VideoStoreConfig sc = case_config(bc);
      for (const CellGrid& grid : leaf_grids(gen)) {
        for (std::size_t threads : {1u, 2u, 4u}) {
          SCOPED_TRACE(case_name(bc) + ", grid edge " +
                       std::to_string(grid.cell_size_m()) + " with " +
                       std::to_string(grid.cell_count()) + " cells, " +
                       std::to_string(threads) + " workers");
          common::ThreadPool pool(threads);
          sc.pool = &pool;
          const VideoStore store(gen, grid, sc);
          expect_rows_equal_thin_then_occupancy(gen, grid, sc, store);
        }
      }
    }
  }
}

TEST(VideoStoreFusedBuild, SerializedStoreEqualsReferenceAtAnyPoolSize) {
  for (const BuildCase& bc : build_cases()) {
    SCOPED_TRACE(case_name(bc));
    VideoConfig vc;
    vc.points_per_frame = bc.master_points;
    vc.frame_count = 4;
    vc.seed = bc.seed;
    const VideoGenerator gen(vc);
    const CellGrid grid(gen.content_bounds(), bc.cell_m);
    VideoStoreConfig sc = case_config(bc);
    const std::vector<std::uint8_t> expected = reference_blob(
        reference_tables(gen, grid, sc), sc, vc.fps, grid.cell_count());
    for (std::size_t threads : {1u, 2u, 4u}) {
      common::ThreadPool pool(threads);
      sc.pool = &pool;
      const VideoStore store(gen, grid, sc);
      EXPECT_EQ(store.serialize(), expected) << threads << " worker threads";
    }
  }
}

TEST(VideoStoreFusedBuild, BundleStoreMatchesPinnedHashesAtAnyPoolSize) {
  // The ledger's content (120k points, 30 frames, 0.5 m cells, one sample
  // frame) built through WorkloadBundle, whose pool also draws the
  // generator's samples and sizes the sample frame's cells largest
  // first. The FNV-1a64 of serialize() was pinned from a serial build
  // with cells sized in index order; worker_threads 0 is every core.
  struct Pinned {
    std::uint64_t content_seed;
    std::uint64_t hash;
  };
  for (const Pinned& p : {Pinned{1, 0x7218988de7ff18b1ULL},
                          Pinned{7, 0xc6e5cf68f57e26efULL},
                          Pinned{11, 0x73264652a2775a48ULL}}) {
    for (const std::size_t threads : {0u, 1u, 2u, 4u}) {
      core::SessionConfig c;
      c.master_points = 120'000;
      c.video_frames = 30;
      c.content_seed = p.content_seed;
      c.worker_threads = threads;
      const std::vector<std::uint8_t> blob =
          core::WorkloadBundle::build(c)->store().serialize();
      EXPECT_EQ(common::fnv1a(blob), p.hash)
          << "content seed " << p.content_seed << ", " << threads
          << " worker threads";
    }
  }
}

// ---------------------------------------------------------------------------
// Reference encoder: the codec pipeline with a comparator sort of
// (code, index) pairs. Explicit quant_bits (resolution_m <= 0) only.

struct RefUIntModels {
  std::array<BitModel, 65> length;
  std::array<BitModel, 2> payload;
};

void ref_encode_uint(RangeEncoder& enc, RefUIntModels& m, std::uint64_t v) {
  const auto len = static_cast<unsigned>(std::bit_width(v));
  for (unsigned i = 0; i < len; ++i) enc.encode_bit(m.length[i], true);
  if (len < 64) enc.encode_bit(m.length[len], false);
  if (len <= 1) return;
  unsigned remaining = len - 1;
  for (unsigned k = 0; k < 2 && remaining > 0; ++k) {
    --remaining;
    enc.encode_bit(m.payload[k], ((v >> remaining) & 1u) != 0);
  }
  if (remaining > 0)
    enc.encode_raw(v & ((std::uint64_t{1} << remaining) - 1), remaining);
}

std::vector<std::uint8_t> comparator_encode(const FrameSoA& frame,
                                            unsigned quant_bits) {
  const std::size_t n = frame.size();
  const geo::Aabb bounds = n == 0 ? geo::Aabb{{0, 0, 0}, {0, 0, 0}}
                                  : frame.bounds();
  std::vector<std::uint8_t> out{'V', 'P', 'C', '1'};
  common::put_u32(out, static_cast<std::uint32_t>(n));
  out.push_back(static_cast<std::uint8_t>(quant_bits));
  out.push_back(1);
  for (double v : {bounds.lo.x, bounds.lo.y, bounds.lo.z, bounds.hi.x,
                   bounds.hi.y, bounds.hi.z})
    common::put_f64(out, v);
  if (n == 0) return out;

  const double max_q =
      static_cast<double>((std::uint64_t{1} << quant_bits) - 1);
  const geo::Vec3 extent = bounds.extent();
  const auto quantize = [max_q](double v, double lo, double len) {
    if (len <= 0.0) return std::uint32_t{0};
    const double q = std::round((v - lo) * (max_q / len));
    return static_cast<std::uint32_t>(std::clamp(q, 0.0, max_q));
  };
  std::vector<std::pair<std::uint64_t, std::uint32_t>> keyed(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    const geo::Vec3 p = frame.position(i);
    keyed[i] = {geo::morton_encode(quantize(p.x, bounds.lo.x, extent.x),
                                   quantize(p.y, bounds.lo.y, extent.y),
                                   quantize(p.z, bounds.lo.z, extent.z)),
                i};
  }
  std::sort(keyed.begin(), keyed.end(), [](const auto& a, const auto& b) {
    return a.first < b.first || (a.first == b.first && a.second < b.second);
  });

  RangeEncoder enc;
  RefUIntModels delta_models;
  std::array<BitModel, 3> zero_models;
  std::array<RefUIntModels, 3> magnitude_models;
  std::uint64_t prev_code = 0;
  std::array<int, 3> prev_color{128, 128, 128};
  for (const auto& [code, index] : keyed) {
    ref_encode_uint(enc, delta_models, code - prev_code);
    prev_code = code;
    for (std::size_t ch = 0; ch < 3; ++ch) {
      const int c = frame.rgb()[3 * index + ch];
      const std::int64_t diff = c - prev_color[ch];
      enc.encode_bit(zero_models[ch], diff != 0);
      if (diff != 0) {
        const auto zig = (static_cast<std::uint64_t>(diff) << 1) ^
                         static_cast<std::uint64_t>(diff >> 63);
        ref_encode_uint(enc, magnitude_models[ch], zig - 1);
      }
      prev_color[ch] = c;
    }
  }
  const std::vector<std::uint8_t> payload = enc.finish();
  out.insert(out.end(), payload.begin(), payload.end());
  return out;
}

/// `n` points drawn from `distinct` random positions, each with a random
/// color, so many points share a quantized position (and a Morton code)
/// while differing in color: the tie order shows in the bytes.
FrameSoA tie_heavy_cloud(std::size_t n, std::size_t distinct,
                         std::uint64_t seed) {
  Rng rng(seed);
  std::vector<geo::Vec3> sites(distinct);
  for (geo::Vec3& s : sites)
    s = {rng.uniform(-1, 1), rng.uniform(-1, 1), rng.uniform(0, 2)};
  FrameSoA frame;
  for (std::size_t i = 0; i < n; ++i) {
    const auto pick = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(distinct) - 1));
    frame.push_back(sites[pick],
                    static_cast<std::uint8_t>(rng.uniform_int(0, 255)),
                    static_cast<std::uint8_t>(rng.uniform_int(0, 255)),
                    static_cast<std::uint8_t>(rng.uniform_int(0, 255)));
  }
  return frame;
}

TEST(VideoStoreEncoder, RadixSortedEncodeEqualsComparatorSort) {
  std::uint64_t seed = 1;
  for (unsigned quant_bits : {1u, 2u, 9u, 11u, 21u}) {
    CodecConfig config;
    config.resolution_m = 0.0;
    config.quant_bits = quant_bits;
    for (std::size_t n : {0u, 1u, 2u, 3u, 100u, 2'000u}) {
      for (std::size_t distinct : {std::size_t{1}, std::size_t{7}, n + 1}) {
        const FrameSoA frame = tie_heavy_cloud(n, distinct, seed++);
        EXPECT_EQ(encode(frame, config), comparator_encode(frame, quant_bits))
            << "quant_bits " << quant_bits << ", " << n << " points, "
            << distinct << " sites";
      }
    }
  }
}

TEST(VideoStoreEncoder, RealContentEncodesEqualComparatorSort) {
  VideoConfig vc;
  vc.points_per_frame = 4'000;
  vc.frame_count = 2;
  const VideoGenerator gen(vc);
  for (unsigned quant_bits : {1u, 10u, 21u}) {
    CodecConfig config;
    config.resolution_m = 0.0;
    config.quant_bits = quant_bits;
    const FrameSoA frame = gen.frame_soa(1);
    EXPECT_EQ(encode(frame, config), comparator_encode(frame, quant_bits))
        << "quant_bits " << quant_bits;
  }
}

// ---------------------------------------------------------------------------
// Leaves: the modeled frames' counts, leaf by leaf.

/// Test classes: sample i has class i % 4.
std::vector<std::uint8_t> test_classes(std::size_t points) {
  std::vector<std::uint8_t> classes(points);
  for (std::size_t i = 0; i < points; ++i)
    classes[i] = static_cast<std::uint8_t>(i % 4);
  return classes;
}

TEST(VideoStoreLeaves, PartitionTheSamplesWithInflatedRadii) {
  using Member = std::array<double, 5>;  // part, x, y, z, class
  for (std::size_t points : {1u, 7u, 11u, 3'000u}) {
    VideoConfig vc;
    vc.points_per_frame = points;
    vc.frame_count = 2;
    vc.seed = 60 + points;
    const VideoGenerator gen(vc);
    const std::vector<std::uint8_t> classes = test_classes(points);
    std::vector<Member> samples;
    for (std::size_t i = 0; i < points; ++i) {
      const VideoGenerator::Sample s = gen.sample(i);
      samples.push_back({static_cast<double>(s.part), s.local.x, s.local.y,
                         s.local.z, static_cast<double>(classes[i])});
    }
    std::sort(samples.begin(), samples.end());
    // 1e-7 m is far finer than any run allows, so runs coarsen it.
    for (double edge : {0.25 / 16, 0.5 / 16, 1.0 / 16, 1e-7}) {
      SCOPED_TRACE(std::to_string(points) + " points, edge " +
                   std::to_string(edge));
      const SampleLeaves leaves(gen, edge, classes, 4);
      ASSERT_LE(leaves.size(), points);
      std::vector<Member> members;
      for (std::size_t l = 0; l < leaves.size(); ++l) {
        const SampleLeaves::Leaf leaf = leaves.leaf(l);
        ASSERT_FALSE(leaf.x.empty()) << "leaf " << l;
        std::array<std::uint32_t, 4> counts{};
        for (std::size_t m = 0; m < leaf.x.size(); ++m) {
          members.push_back({static_cast<double>(leaf.part), leaf.x[m],
                             leaf.y[m], leaf.z[m],
                             static_cast<double>(leaf.classes[m])});
          ++counts[leaf.classes[m]];
          const double d =
              (geo::Vec3{leaf.x[m], leaf.y[m], leaf.z[m]} - leaf.centre)
                  .norm();
          ASSERT_GE(leaf.radius, d * (1.0 + 1e-9) + 1e-9)
              << "leaf " << l << ", member " << m;
        }
        ASSERT_TRUE(std::equal(counts.begin(), counts.end(),
                               leaf.class_counts.begin(),
                               leaf.class_counts.end()))
            << "leaf " << l;
      }
      std::sort(members.begin(), members.end());
      EXPECT_EQ(members, samples);
      EXPECT_THROW((void)leaves.leaf(leaves.size()), std::out_of_range);
    }
  }
  VideoConfig vc;
  vc.points_per_frame = 10;
  const VideoGenerator gen(vc);
  EXPECT_THROW(SampleLeaves(gen, 0.0, test_classes(10), 4),
               std::invalid_argument);
  EXPECT_THROW(SampleLeaves(gen, 0.01, test_classes(9), 4),
               std::invalid_argument);
}

TEST(VideoStoreLeaves, MovedMembersStayInsideTheCorners) {
  VideoConfig vc;
  vc.points_per_frame = 3'000;
  vc.frame_count = 30;
  const VideoGenerator gen(vc);
  const SampleLeaves leaves(gen, 0.3 / 16, test_classes(3'000), 4);
  for (std::size_t f : {0u, 3u, 11u, 29u}) {
    for (std::size_t l = 0; l < leaves.size(); ++l) {
      const SampleLeaves::Leaf leaf = leaves.leaf(l);
      const VideoGenerator::PartPose pose = gen.part_pose(f, leaf.part);
      double c[3];
      VideoGenerator::place(pose, &leaf.centre.x, &leaf.centre.y,
                            &leaf.centre.z, 1, &c[0], &c[1], &c[2]);
      const std::size_t n = leaf.x.size();
      std::vector<double> x(n), y(n), z(n);
      VideoGenerator::place(pose, leaf.x.data(), leaf.y.data(), leaf.z.data(),
                            n, x.data(), y.data(), z.data());
      // The margin is about 1e-9 m; rounding moves a point by ~1e-15 m.
      for (std::size_t m = 0; m < n; ++m) {
        const double moved[3] = {x[m], y[m], z[m]};
        for (int a = 0; a < 3; ++a) {
          ASSERT_LE(moved[a], c[a] + leaf.radius - 5e-10)
              << "frame " << f << ", leaf " << l << ", member " << m;
          ASSERT_GE(moved[a], c[a] - leaf.radius + 5e-10)
              << "frame " << f << ", leaf " << l << ", member " << m;
        }
      }
    }
  }
}

TEST(VideoStoreLeaves, CountsEqualLocatingEverySample) {
  std::size_t whole = 0;
  std::size_t split = 0;
  for (std::size_t points : {1u, 7u, 11u, 3'000u}) {
    VideoConfig vc;
    vc.points_per_frame = points;
    vc.frame_count = 5;
    vc.seed = 80 + points;
    const VideoGenerator gen(vc);
    const std::vector<std::uint8_t> classes = test_classes(points);
    SampleLeaves::Scratch scratch;  // reused across grids and frames
    for (const CellGrid& grid : leaf_grids(gen)) {
      const std::size_t cells = grid.cell_count();
      const SampleLeaves leaves(gen, grid.cell_size_m() / 16, classes, 4);
      for (std::size_t f = 0; f < vc.frame_count + 2; ++f) {  // wraps
        SCOPED_TRACE(std::to_string(points) + " points, edge " +
                     std::to_string(grid.cell_size_m()) + ", " +
                     std::to_string(cells) + " cells, frame " +
                     std::to_string(f));
        std::vector<std::uint32_t> expected(4 * cells, 0);
        const FrameSoA frame = gen.frame_soa(f);
        for (std::uint32_t i = 0; i < points; ++i)
          ++expected[classes[i] * cells + grid.locate(frame.position(i))];
        std::vector<std::uint32_t> hist(4 * cells, 0);
        leaves.count(f, grid, scratch, hist);
        ASSERT_EQ(hist, expected);
        for (std::size_t l = 0; l < leaves.size(); ++l)
          ++(scratch.lo_ids[l] == scratch.hi_ids[l] ? whole : split);
      }
    }
  }
  // Both paths ran: leaves counted whole and leaves located per member.
  EXPECT_GT(whole, 0u);
  EXPECT_GT(split, 0u);
}

// ---------------------------------------------------------------------------

TEST(VideoStorePositions, EqualPerPointRotateOfEachSample) {
  // Small budgets round per part, and some leave a top-up tail of copies
  // that mixes parts (5, 17 and 39 points); 1 point is a lone torso sample.
  bool tail_mixes_parts = false;
  for (std::size_t points : {1u, 5u, 7u, 11u, 17u, 39u, 3'000u}) {
    SCOPED_TRACE(std::to_string(points) + " points");
    VideoConfig vc;
    vc.points_per_frame = points;
    vc.frame_count = 4;
    vc.seed = 99 + points;
    const VideoGenerator gen(vc);
    for (std::size_t i = 1; i < points; ++i)
      tail_mixes_parts |= gen.sample(i).part < gen.sample(i - 1).part;
    // Stale, oversized columns: positions() must resize, not append.
    std::vector<double> x(5'000, 1.0);
    std::vector<double> y(7, 2.0);
    std::vector<double> z;
    for (std::size_t f : {0u, 1u, 3u, 6u}) {  // 6 wraps to frame 2
      gen.positions(f, x, y, z);
      ASSERT_EQ(x.size(), points);
      ASSERT_EQ(y.size(), points);
      ASSERT_EQ(z.size(), points);
      for (std::size_t i = 0; i < points; ++i) {
        const VideoGenerator::Sample s = gen.sample(i);
        const VideoGenerator::PartPose pose = gen.part_pose(f, s.part);
        const geo::Vec3 p =
            pose.body_rot.rotate(pose.pivot + pose.part_rot.rotate(s.local));
        const double expected[3] = {p.x, p.y, p.z + pose.bob};
        const double actual[3] = {x[i], y[i], z[i]};
        ASSERT_EQ(std::memcmp(actual, expected, sizeof actual), 0)
            << "frame " << f << ", point " << i;
      }
      const FrameSoA frame = gen.frame_soa(f);
      EXPECT_EQ(std::memcmp(x.data(), frame.xs().data(), x.size() * 8), 0);
      EXPECT_EQ(std::memcmp(z.data(), frame.zs().data(), z.size() * 8), 0);
    }
  }
  EXPECT_TRUE(tail_mixes_parts);
}

TEST(VideoStorePositions, PosesFollowTheGaitAndWrapModuloFrameCount) {
  VideoConfig vc;
  vc.points_per_frame = 100;
  vc.frame_count = 30;
  const VideoGenerator gen(vc);
  const VideoGenerator::PartPose a = gen.part_pose(3, 2);
  const VideoGenerator::PartPose wrapped = gen.part_pose(33, 2);
  EXPECT_EQ(std::memcmp(&a, &wrapped, sizeof a), 0);
  // Arms swing: the upper-arm rotation differs between frames 3 and 10.
  EXPECT_NE(a.part_rot.w, gen.part_pose(10, 2).part_rot.w);
  EXPECT_THROW((void)gen.part_pose(0, 10), std::out_of_range);
  EXPECT_THROW((void)gen.sample(100), std::out_of_range);
}

TEST(VideoStoreOccupancy, BundleServesTheStoreTopTierRows) {
  core::SessionConfig c;
  c.master_points = 6'000;
  c.video_frames = 4;
  c.worker_threads = 1;
  const auto bundle = core::WorkloadBundle::build(c);
  const VideoStore& store = bundle->store();
  const std::size_t top = store.tier_count() - 1;
  const core::OccupancyTable occupancy = bundle->occupancy();
  for (std::size_t f = 0; f < c.video_frames; ++f) {
    EXPECT_EQ(occupancy[f].data(), store.tier_points(f, top).data());
    for (CellId cell = 0; cell < bundle->grid().cell_count(); ++cell)
      EXPECT_EQ(occupancy[f][cell], store.cell_points(f, top, cell));
  }
  EXPECT_THROW((void)occupancy[c.video_frames], std::out_of_range);
}

}  // namespace
}  // namespace volcast::vv
