// End-to-end system scaling (the paper's overall thesis + Section 5's
// multi-AP extension): users vs. QoE for the full cross-layer system
// against the unicast baseline, single AP and two APs.
//
// This regenerates the paper's headline claim in system form: the
// cross-layer design either serves more users at 30 FPS or delivers higher
// quality for the same user count, and multiple APs extend scaling through
// spatial reuse.
//
// `--json PATH` switches to the perf-trajectory mode used by
// tools/ci_bench.sh: a 1-vs-8-worker wall-clock sweep of the session at
// 2/4/8/16 users, written as machine-readable JSON (the QoE numbers are
// bit-identical across thread counts, so only time varies).
#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>

#include "common/table.h"
#include "core/session.h"

using namespace volcast;
using namespace volcast::core;

namespace {

SessionConfig scaled_config(std::size_t users, bool cross_layer,
                            std::size_t aps, double spread_rad = 2.0) {
  SessionConfig c;
  c.user_count = users;
  c.duration_s = 5.0;
  c.master_points = 160'000;
  c.video_frames = 30;
  c.ap_count = aps;
  c.audience_spread_rad = spread_rad;
  if (!cross_layer) {
    c.enable_multicast = false;
    c.enable_custom_beams = false;
    c.enable_blockage_mitigation = false;
    c.adaptation = AdaptationPolicy::kBufferOnly;
    c.estimator = BandwidthEstimator::kAppOnly;
  }
  return c;
}

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

// Set-up and run wall clock at 1 and 8 worker threads. The worker count
// sizes only the video-store build, since ticks run serially, so the
// *_setup_s columns move with it and run_speedup should read about 1.0.
// Content is scaled down so the sweep stays minutes even on small CI
// boxes.
int run_json(const char* path) {
  constexpr std::size_t kParallelThreads = 8;
  std::FILE* out = std::fopen(path, "w");
  if (out == nullptr) {
    std::fprintf(stderr, "bench_system_scaling: cannot write %s\n", path);
    return 1;
  }
  std::fprintf(out,
               "{\n  \"bench\": \"system_scaling\",\n"
               "  \"config\": {\"duration_s\": 3.0, \"master_points\": "
               "120000, \"video_frames\": 30, \"parallel_worker_threads\": "
               "%zu},\n  \"throughput\": [",
               kParallelThreads);

  AsciiTable table;
  table.header({"users", "serial run s", "parallel run s", "speedup", "fps"});
  bool first = true;
  for (std::size_t users : {2u, 4u, 8u, 16u}) {
    SessionConfig c;
    c.user_count = users;
    c.duration_s = 3.0;
    c.master_points = 120'000;
    c.video_frames = 30;

    // Best of 3: scheduler noise on a shared box only ever adds time, so
    // the minimum is the stable estimator the regression check needs.
    constexpr int kReps = 3;
    double serial_setup_s = 0.0, serial_run_s = 0.0;
    double parallel_setup_s = 0.0, parallel_run_s = 0.0;
    SessionResult r;
    for (int rep = 0; rep < kReps; ++rep) {
      c.worker_threads = 1;
      auto t0 = std::chrono::steady_clock::now();
      Session serial(c);
      const double setup = seconds_since(t0);
      t0 = std::chrono::steady_clock::now();
      r = serial.run();
      const double run = seconds_since(t0);
      if (rep == 0 || setup < serial_setup_s) serial_setup_s = setup;
      if (rep == 0 || run < serial_run_s) serial_run_s = run;

      c.worker_threads = kParallelThreads;
      t0 = std::chrono::steady_clock::now();
      Session parallel(c);
      const double psetup = seconds_since(t0);
      t0 = std::chrono::steady_clock::now();
      const auto rp = parallel.run();
      const double prun = seconds_since(t0);
      if (rep == 0 || psetup < parallel_setup_s) parallel_setup_s = psetup;
      if (rep == 0 || prun < parallel_run_s) parallel_run_s = prun;
      if (rp.qoe.users.size() != r.qoe.users.size()) return 1;  // impossible
    }

    const double speedup = serial_run_s / parallel_run_s;
    std::fprintf(out,
                 "%s\n    {\"users\": %zu, \"serial_setup_s\": %.4f, "
                 "\"serial_run_s\": %.4f, \"parallel_setup_s\": %.4f, "
                 "\"parallel_run_s\": %.4f, \"run_speedup\": %.3f, "
                 "\"mean_fps\": %.3f, \"mean_quality_tier\": %.3f}",
                 first ? "" : ",", users, serial_setup_s, serial_run_s,
                 parallel_setup_s, parallel_run_s, speedup, r.qoe.mean_fps(),
                 r.qoe.mean_quality_tier());
    first = false;
    table.row({std::to_string(users), AsciiTable::num(serial_run_s, 2),
               AsciiTable::num(parallel_run_s, 2),
               AsciiTable::num(speedup, 2),
               AsciiTable::num(r.qoe.mean_fps(), 1)});
  }
  std::fprintf(out, "\n  ]\n}\n");
  std::fclose(out);
  std::printf("=== Session throughput: serial vs %zu worker threads ===\n\n",
              kParallelThreads);
  std::printf("%s\n", table.render().c_str());
  std::printf("wrote %s\n", path);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc == 3 && std::strcmp(argv[1], "--json") == 0)
    return run_json(argv[2]);
  if (argc != 1) {
    std::fprintf(stderr, "usage: %s [--json PATH]\n", argv[0]);
    return 2;
  }
  std::printf("=== System scaling: users vs QoE ===\n");
  std::printf("(scaled content; compare columns within a row)\n\n");

  AsciiTable table;
  table.header({"users", "baseline fps", "tier", "volcast fps", "tier"});
  for (std::size_t users : {2u, 4u, 6u, 8u, 10u, 12u}) {
    Session baseline(scaled_config(users, false, 1));
    Session system(scaled_config(users, true, 1));
    const auto rb = baseline.run();
    const auto rs = system.run();
    table.row({std::to_string(users),
               AsciiTable::num(rb.qoe.mean_fps(), 1),
               AsciiTable::num(rb.qoe.mean_quality_tier(), 2),
               AsciiTable::num(rs.qoe.mean_fps(), 1),
               AsciiTable::num(rs.qoe.mean_quality_tier(), 2)});
  }
  std::printf("%s\n", table.render().c_str());

  // Section 5 extension: spatial reuse needs spatially separated client
  // groups — a surround audience (2*pi arc) is the regime where a second
  // AP pays; a single tight arc is its worst case (both APs would beam
  // into the same spot and interfere).
  std::printf("multi-AP coordination with a surround audience (2*pi "
              "arc):\n");
  AsciiTable multi;
  multi.header({"users", "1 AP fps", "tier", "2 APs fps", "tier"});
  for (std::size_t users : {6u, 8u, 10u, 12u}) {
    constexpr double kSurround = 6.283185307179586;
    Session one(scaled_config(users, true, 1, kSurround));
    Session two(scaled_config(users, true, 2, kSurround));
    const auto r1 = one.run();
    const auto r2 = two.run();
    multi.row({std::to_string(users), AsciiTable::num(r1.qoe.mean_fps(), 1),
               AsciiTable::num(r1.qoe.mean_quality_tier(), 2),
               AsciiTable::num(r2.qoe.mean_fps(), 1),
               AsciiTable::num(r2.qoe.mean_quality_tier(), 2)});
  }
  std::printf("%s\n", multi.render().c_str());

  std::printf("cross-layer feature inventory at 6 users:\n");
  Session detail(scaled_config(6, true, 1));
  const auto r = detail.run();
  std::printf("  multicast bit share      %.2f\n", r.multicast_bit_share);
  std::printf("  mean multicast group     %.2f users\n", r.mean_group_size);
  std::printf("  custom/stock group beams %zu/%zu\n", r.custom_beam_uses,
              r.stock_beam_uses);
  std::printf("  blockage forecasts       %zu\n", r.blockage_forecasts);
  std::printf("  reflection beam switches %zu\n", r.reflection_switches);
  std::printf("  airtime utilization      %.2f\n",
              r.mean_airtime_utilization);
  return 0;
}
