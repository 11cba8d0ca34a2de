// Micro-benchmarks (google-benchmark) for the library's hot paths: codec
// encode/decode and size-only encoding, the generator's sampling, the
// store and bundle builds, the store's modeled frames, frustum culling,
// visibility computation, beam gain evaluation (direct and from a link
// table), codebook sector sweeps, reflection and stock multicast beam
// design, AWV synthesis and the grouping search. These are the budgets that decide whether the
// cross-layer scheduler can run per frame interval (33 ms at 30 FPS) on an
// edge server.
#include <benchmark/benchmark.h>

#include <cstdint>
#include <vector>

#include "common/rng.h"
#include "common/thread_pool.h"
#include "common/units.h"
#include "core/beam_designer.h"
#include "core/grouping.h"
#include "core/session.h"
#include "core/testbed.h"
#include "core/workload_bundle.h"
#include "mmwave/beam_design.h"
#include "mmwave/link.h"
#include "pointcloud/codec.h"
#include "pointcloud/sample_leaves.h"
#include "pointcloud/video_generator.h"
#include "pointcloud/video_store.h"
#include "viewport/similarity.h"
#include "viewport/visibility.h"

using namespace volcast;

namespace {

const vv::VideoGenerator& generator() {
  static const vv::VideoGenerator gen([] {
    vv::VideoConfig vc;
    vc.points_per_frame = 100'000;
    vc.frame_count = 4;
    return vc;
  }());
  return gen;
}

void BM_CodecEncode(benchmark::State& state) {
  const auto frame =
      vv::thin(generator().frame_soa(0),
               static_cast<double>(state.range(0)) / 100'000.0);
  std::size_t bytes = 0;
  for (auto _ : state) {
    const auto blob = vv::encode(frame);
    bytes = blob.size();
    benchmark::DoNotOptimize(blob.data());
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations()) *
      static_cast<std::int64_t>(frame.size()));
  state.counters["bits/pt"] =
      8.0 * static_cast<double>(bytes) / static_cast<double>(frame.size());
}
BENCHMARK(BM_CodecEncode)->Arg(10'000)->Arg(50'000)->Arg(100'000);

void BM_CodecDecode(benchmark::State& state) {
  const auto frame =
      vv::thin(generator().frame_soa(0),
               static_cast<double>(state.range(0)) / 100'000.0);
  const auto blob = vv::encode(frame);
  for (auto _ : state) {
    const auto back = vv::decode_soa(blob);
    benchmark::DoNotOptimize(back.xs().data());
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations()) *
      static_cast<std::int64_t>(frame.size()));
}
BENCHMARK(BM_CodecDecode)->Arg(10'000)->Arg(100'000);

// One cell of the store's sample frame: the fullest 0.5 m cell of a
// 100k-point frame, encoded to bytes and sized without them.
const vv::FrameSoA& fullest_cell() {
  static const vv::FrameSoA cell = [] {
    const vv::FrameSoA frame = generator().frame_soa(0);
    const vv::CellGrid grid(generator().content_bounds(), 0.5);
    const vv::FlatAssignment buckets = grid.assign_flat(frame);
    vv::CellId fullest = 0;
    for (vv::CellId c = 0; c < grid.cell_count(); ++c)
      if (buckets.cell(c).size() > buckets.cell(fullest).size()) fullest = c;
    return frame.gather(buckets.cell(fullest));
  }();
  return cell;
}

void BM_EncodeCell(benchmark::State& state) {
  const vv::FrameSoA& cell = fullest_cell();
  for (auto _ : state) {
    const auto blob = vv::encode(cell);
    benchmark::DoNotOptimize(blob.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(cell.size()));
}
BENCHMARK(BM_EncodeCell);

void BM_EncodedSize(benchmark::State& state) {
  const vv::FrameSoA& cell = fullest_cell();
  for (auto _ : state) benchmark::DoNotOptimize(vv::encoded_size(cell));
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(cell.size()));
}
BENCHMARK(BM_EncodedSize);

// Set-up cost at the ledger's content size (120k points, 30 frames) on 1,
// 2 and 4 workers: the generator's sampling, the store alone, then the
// whole bundle (pool start-up, generator, grid, store).
void BM_VideoGenerator(benchmark::State& state) {
  vv::VideoConfig vc;
  vc.points_per_frame = 120'000;
  vc.frame_count = 30;
  common::ThreadPool pool(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    const vv::VideoGenerator gen(vc, &pool);
    benchmark::DoNotOptimize(gen.local_x().data());
  }
}
BENCHMARK(BM_VideoGenerator)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Unit(benchmark::kMillisecond);

void BM_VideoStoreBuild(benchmark::State& state) {
  vv::VideoConfig vc;
  vc.points_per_frame = 120'000;
  vc.frame_count = 30;
  const vv::VideoGenerator gen(vc);
  const vv::CellGrid grid(gen.content_bounds(), 0.5);
  common::ThreadPool pool(static_cast<std::size_t>(state.range(0)));
  vv::VideoStoreConfig sc;
  const double scale = 120'000.0 / 550'000.0;  // the bundle's tier ladder
  sc.tiers = {{"low", static_cast<std::size_t>(330'000 * scale)},
              {"med", static_cast<std::size_t>(430'000 * scale)},
              {"high", 120'000}};
  sc.sample_frames = 1;
  sc.pool = &pool;
  for (auto _ : state) {
    const vv::VideoStore store(gen, grid, sc);
    benchmark::DoNotOptimize(store.frame_bytes(0, 0));
  }
}
BENCHMARK(BM_VideoStoreBuild)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Unit(benchmark::kMillisecond);

// The store's modeled frames at the same content: build the leaves of the
// generator's samples, then count frames 1..29 per (tier class, cell).
void BM_ModeledFrames(benchmark::State& state) {
  vv::VideoConfig vc;
  vc.points_per_frame = 120'000;
  vc.frame_count = 30;
  const vv::VideoGenerator gen(vc);
  const vv::CellGrid grid(gen.content_bounds(), 0.5);
  // Tier classes of the bundle's ladder (how many tiers keep each point).
  const double scale = 120'000.0 / 550'000.0;
  const std::vector<vv::ThinFilter> filters{
      vv::ThinFilter(330'000 * scale / 120'000.0),
      vv::ThinFilter(430'000 * scale / 120'000.0), vv::ThinFilter(1.0)};
  std::vector<std::uint8_t> classes(vc.points_per_frame, 0);
  for (std::uint32_t i = 0; i < classes.size(); ++i)
    for (const vv::ThinFilter& filter : filters)
      classes[i] = static_cast<std::uint8_t>(classes[i] + filter.keeps(i));
  vv::SampleLeaves::Scratch scratch;
  std::vector<std::uint32_t> hist;
  for (auto _ : state) {
    const vv::SampleLeaves leaves(gen, grid.cell_size_m() / 16.0, classes,
                                  filters.size() + 1);
    for (std::size_t f = 1; f < vc.frame_count; ++f) {
      hist.assign((filters.size() + 1) * grid.cell_count(), 0);
      leaves.count(f, grid, scratch, hist);
    }
    benchmark::DoNotOptimize(hist.data());
  }
}
BENCHMARK(BM_ModeledFrames)->Unit(benchmark::kMillisecond);

void BM_WorkloadBundleBuild(benchmark::State& state) {
  core::SessionConfig config;
  config.master_points = 120'000;
  config.video_frames = 30;
  config.worker_threads = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    const auto bundle = core::WorkloadBundle::build(config);
    benchmark::DoNotOptimize(bundle->store().frame_bytes(0, 0));
  }
}
BENCHMARK(BM_WorkloadBundleBuild)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Unit(benchmark::kMillisecond);

void BM_FrustumCulling(benchmark::State& state) {
  const vv::CellGrid grid(generator().content_bounds(), 0.25);
  const geo::Pose pose = geo::Pose::look_at({2.5, 0, 1.5}, {0, 0, 1.1});
  const geo::Frustum frustum(pose, {});
  for (auto _ : state) {
    std::size_t visible = 0;
    for (vv::CellId c = 0; c < grid.cell_count(); ++c)
      if (frustum.intersects(grid.cell_bounds(c))) ++visible;
    benchmark::DoNotOptimize(visible);
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations()) *
      static_cast<std::int64_t>(grid.cell_count()));
}
BENCHMARK(BM_FrustumCulling);

void BM_ComputeVisibility(benchmark::State& state) {
  const vv::CellGrid grid(generator().content_bounds(),
                          state.range(0) / 100.0);
  const auto occupancy = grid.occupancy(generator().frame_soa(0));
  const geo::Pose pose = geo::Pose::look_at({2.5, 0, 1.5}, {0, 0, 1.1});
  for (auto _ : state) {
    const auto map = view::compute_visibility(grid, occupancy, pose, {});
    benchmark::DoNotOptimize(map.visible_count());
  }
}
BENCHMARK(BM_ComputeVisibility)->Arg(25)->Arg(50)->Arg(100);

void BM_BeamGain(benchmark::State& state) {
  const core::Testbed testbed;
  const mmwave::Awv beam = testbed.ap().steer_at({4, 3, 1.5});
  Rng rng(1);
  for (auto _ : state) {
    const geo::Vec3 dir{rng.uniform(-1, 1), rng.uniform(0, 1),
                        rng.uniform(-0.5, 0)};
    benchmark::DoNotOptimize(testbed.ap().gain(beam, dir));
  }
}
BENCHMARK(BM_BeamGain);

void BM_ArrayResponse(benchmark::State& state) {
  // One response of the default 8x4 array toward a seated user: the
  // per-axis phasors and their products, the work behind every lane of a
  // link row and every steered beam.
  const core::Testbed testbed;
  const mmwave::PhasedArray& ap = testbed.ap();
  const geo::Vec3 local =
      ap.local_direction(geo::Vec3{4, 3, 1.5} - ap.pose().position);
  mmwave::Steering response;
  for (auto _ : state) {
    ap.response(local, response);
    benchmark::DoNotOptimize(response.phasors.data());
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_ArrayResponse);

void BM_RssEvaluation(benchmark::State& state) {
  const core::Testbed testbed;
  const mmwave::Awv beam = testbed.ap().steer_at({4, 3, 1.5});
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        mmwave::rss_dbm(testbed.ap(), beam, testbed.channel(), {4, 3, 1.5},
                        {}, testbed.budget()));
  }
}
BENCHMARK(BM_RssEvaluation);

void BM_RssLinkTable(benchmark::State& state) {
  // The same link priced from a per-tick link table: the path geometry,
  // array responses and body losses are built once (on the first call),
  // each evaluation only sums the per-path terms. Bit-equal to
  // BM_RssEvaluation's result.
  const core::Testbed testbed;
  const mmwave::Awv beam = testbed.ap().steer_at({4, 3, 1.5});
  const geo::Vec3 receivers[] = {{4, 3, 1.5}};
  mmwave::LinkTable table(testbed.ap(), testbed.channel(), testbed.budget(),
                          testbed.blockage(), receivers, {});
  for (auto _ : state) {
    benchmark::DoNotOptimize(table.rss(beam, 0, {}));
  }
}
BENCHMARK(BM_RssLinkTable);

void BM_RssLinkTableOrder2(benchmark::State& state) {
  // BM_RssLinkTable at reflection order 2, where one row holds more paths
  // than one lane block: every evaluation prices several blocks.
  core::TestbedConfig config;
  config.room.max_reflection_order = 2;
  const core::Testbed testbed(config);
  const mmwave::Awv beam = testbed.ap().steer_at({4, 3, 1.5});
  const geo::Vec3 receivers[] = {{4, 3, 1.5}};
  mmwave::LinkTable table(testbed.ap(), testbed.channel(), testbed.budget(),
                          testbed.blockage(), receivers, {});
  for (auto _ : state) {
    benchmark::DoNotOptimize(table.rss(beam, 0, {}));
  }
}
BENCHMARK(BM_RssLinkTableOrder2);

void BM_CodebookGains(benchmark::State& state) {
  // Every stock sector's gain toward one response: the sector-gain cache of
  // a link table row, and each best_beam_toward / best_common_beam target.
  const core::Testbed testbed;
  const mmwave::PhasedArray& ap = testbed.ap();
  const mmwave::Steering response =
      ap.steering(geo::Vec3{4, 3, 1.5} - ap.pose().position);
  std::vector<double> gains(testbed.codebook().size());
  for (auto _ : state) {
    testbed.codebook().gains(response, gains);
    benchmark::DoNotOptimize(gains.data());
  }
}
BENCHMARK(BM_CodebookGains);

void BM_DesignReflection(benchmark::State& state) {
  // The mitigation designer's position overload: one one-shot table row
  // (trace + per-path responses), then every bounce's steered beam priced
  // as a masked sum over that row.
  const core::Testbed testbed;
  const core::BeamDesigner designer(testbed);
  const geo::Vec3 user{4, 3, 1.5};
  for (auto _ : state) {
    benchmark::DoNotOptimize(designer.design_reflection(user));
  }
}
BENCHMARK(BM_DesignReflection);

void BM_DesignMulticastStock(benchmark::State& state) {
  // A stock-sector multicast design over a tick link table whose rows (and
  // their cached sector gains) already exist: the common-sector pick reads
  // cached gains, the members are priced as masked sums.
  const core::Testbed testbed;
  core::BeamDesignerConfig config;
  config.enable_custom_beams = false;
  const core::BeamDesigner designer(testbed, config);
  const geo::Vec3 users[] = {{3, 3, 1.5}, {4, 3.5, 1.5}, {5, 3, 1.5},
                             {4, 4.5, 1.5}};
  std::vector<geo::BodyObstacle> bodies;
  for (const geo::Vec3& u : users) bodies.push_back({u, 0.25, 1.8});
  mmwave::LinkTable table = designer.link_table(users, bodies);
  const std::size_t group[] = {0, 1, 2};
  const std::uint8_t outside[] = {0, 0, 0, 1};
  core::GroupBeam beam;
  for (auto _ : state) {
    designer.design_multicast(table, group, outside, {}, beam);
    benchmark::DoNotOptimize(beam.awv.data());
  }
}
BENCHMARK(BM_DesignMulticastStock);

/// A crowd of 16 standing users on a grid, and the link table of the
/// default testbed toward them with their bodies as the body list.
struct CrowdTable {
  core::Testbed testbed;
  core::BeamDesigner designer{testbed};
  std::vector<geo::Vec3> users;
  std::vector<geo::BodyObstacle> bodies;

  CrowdTable() {
    for (int i = 0; i < 16; ++i) {
      users.push_back({1.5 + 0.7 * (i % 8), 2.5 + 1.2 * (i / 8), 1.5});
      bodies.push_back({users.back(), 0.25, 1.8});
    }
  }
  mmwave::LinkTable table() const { return designer.link_table(users, bodies); }
};

void BM_LinkRowBuild(benchmark::State& state) {
  // One tick-table row with 16 bodies: the trace, every path's response
  // written into its lane, the body scan behind SegmentReach, and the
  // response toward the receiver (a copy of the line-of-sight lane when
  // the two directions agree bit for bit).
  const CrowdTable crowd;
  for (auto _ : state) {
    mmwave::LinkTable table = crowd.table();
    benchmark::DoNotOptimize(table.steering(5).element_gain);
  }
}
BENCHMARK(BM_LinkRowBuild);

void BM_LinkRowRebuild(benchmark::State& state) {
  // BM_LinkRowBuild's row in one table rebound every iteration, as a
  // session rebinds its tick tables: the row is rebuilt into the storage
  // the previous build grew, so only the first iteration allocates.
  const CrowdTable crowd;
  mmwave::LinkTable table = crowd.table();
  for (auto _ : state) {
    table.rebind(crowd.users, crowd.bodies);
    benchmark::DoNotOptimize(table.steering(5).element_gain);
  }
}
BENCHMARK(BM_LinkRowRebuild);

void BM_SpillProbe(benchmark::State& state) {
  // design_multicast's spill probe of a two-user custom beam at a third
  // user, against max_spill_dbm: Arg 0 compares the exact rss(), Arg 1
  // asks rss_above(), which decides it in linear power.
  const CrowdTable crowd;
  mmwave::LinkTable table = crowd.table();
  const mmwave::Awv* beams[] = {&table.steered(2), &table.steered(3)};
  const double rss_mw[] = {1e-6, 2e-6};
  mmwave::Awv custom;
  mmwave::combine_awvs(beams, rss_mw, custom);
  std::vector<std::uint8_t> outside(crowd.bodies.size(), 1);
  outside[2] = outside[3] = 0;
  const double threshold = core::BeamDesignerConfig{}.max_spill_dbm;
  const bool decided = state.range(0) == 1;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        decided ? table.rss_above(custom, 10, outside, threshold)
                : table.rss(custom, 10, outside) > threshold);
  }
}
BENCHMARK(BM_SpillProbe)->Arg(0)->Arg(1);

void BM_CombineAwvs(benchmark::State& state) {
  const core::Testbed testbed;
  std::vector<mmwave::Awv> beams;
  std::vector<double> rss;
  for (int i = 0; i < state.range(0); ++i) {
    beams.push_back(testbed.ap().steer_at({2.0 + i, 3, 1.5}));
    rss.push_back(1e-6);
  }
  std::vector<const mmwave::Awv*> beam_ptrs;
  for (const mmwave::Awv& b : beams) beam_ptrs.push_back(&b);
  mmwave::Awv combined;
  for (auto _ : state) {
    mmwave::combine_awvs(beam_ptrs, rss, combined);
    benchmark::DoNotOptimize(combined.data());
  }
}
BENCHMARK(BM_CombineAwvs)->Arg(2)->Arg(4);

void BM_GroupingGreedy(benchmark::State& state) {
  const auto users_count = static_cast<std::size_t>(state.range(0));
  std::vector<view::VisibilityMap> maps(users_count,
                                        view::VisibilityMap(64));
  Rng rng(5);
  for (auto& m : maps)
    for (vv::CellId c = 0; c < 64; ++c)
      if (rng.chance(0.4)) m.set(c);
  std::vector<core::UserState> users(users_count);
  for (std::size_t u = 0; u < users_count; ++u)
    users[u] = {u, &maps[u], 10e6, 1200.0};
  core::GrouperConfig config;
  const core::GroupRateFn rate = [](std::span<const std::size_t>) {
    return 900.0;
  };
  const core::OverlapBitsFn overlap = [&](std::span<const std::size_t> idx) {
    return 4e6 * static_cast<double>(idx.size());
  };
  for (auto _ : state) {
    const auto result = core::form_groups(users, config, rate, overlap);
    benchmark::DoNotOptimize(result.groups.size());
  }
}
BENCHMARK(BM_GroupingGreedy)->Arg(4)->Arg(7)->Arg(12)->Arg(16);

void BM_GroupIou(benchmark::State& state) {
  view::VisibilityMap a(1024);
  view::VisibilityMap b(1024);
  Rng rng(9);
  for (vv::CellId c = 0; c < 1024; ++c) {
    if (rng.chance(0.3)) a.set(c);
    if (rng.chance(0.3)) b.set(c);
  }
  for (auto _ : state) benchmark::DoNotOptimize(view::iou(a, b));
}
BENCHMARK(BM_GroupIou);

}  // namespace

BENCHMARK_MAIN();
