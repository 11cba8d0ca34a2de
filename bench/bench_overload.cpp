// Overload-control bench: offered load x resource pressure, with graceful
// degradation as the acceptance bar.
//
// Each cell of the sweep runs one session with the brownout governor
// enabled and a kCpuPressure window covering the middle of the session at
// the sweep's inflation factor (factor 1 = no pressure). The gates encode
// the paper-level claim the subsystem exists for:
//
//   1. every run completes — overload never crashes the pipeline,
//   2. the brownout ladder engages monotonically with pressure (more
//      pressure never means fewer brownout ticks),
//   3. degradation is graceful: even at the heaviest pressure the mean
//      displayed fps keeps at least half of the unpressured baseline, and
//      fps never falls off a cliff between adjacent pressure steps,
//   4. the governor recovers: once the pressure window ends, every run
//      finishes back at green.
//
// Exit code 1 on any gate violation, so CI can run the binary directly.
//
// `--json PATH` writes the machine-readable sweep for dashboards.
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "common/table.h"
#include "core/session.h"
#include "fault/fault_plan.h"

using namespace volcast;
using namespace volcast::core;

namespace {

constexpr double kDuration = 2.0;
constexpr double kPressureStart = 0.4;
constexpr double kPressureLen = 0.8;

struct Cell {
  std::size_t users = 0;
  double factor = 1.0;
  double mean_fps = 0.0;
  double stall_s = 0.0;
  double mean_tier = 0.0;
  std::uint64_t brownout_ticks = 0;
  std::uint64_t shed_work = 0;  // tier caps + cells + deferred encodes
  double peak_util = 0.0;
  std::uint8_t final_level = 0;
};

Cell run_cell(std::size_t users, double factor) {
  SessionConfig config;
  config.user_count = users;
  config.duration_s = kDuration;
  config.master_points = 30'000;
  config.video_frames = 20;
  config.worker_threads = 0;  // hardware concurrency; results identical
  config.seed = 7;
  config.overload.enabled = true;
  config.overload.recover_ticks = 4;
  if (factor > 1.0) {
    fault::FaultEvent pressure;
    pressure.kind = fault::FaultKind::kCpuPressure;
    pressure.t_s = kPressureStart;
    pressure.duration_s = kPressureLen;
    pressure.magnitude = factor;
    config.fault_plan.add(pressure);
  }

  const SessionResult r = Session(config).run();
  Cell cell;
  cell.users = users;
  cell.factor = factor;
  cell.mean_fps = r.qoe.mean_fps();
  cell.stall_s = r.qoe.total_stall_s();
  cell.mean_tier = r.qoe.mean_quality_tier();
  cell.brownout_ticks =
      r.overload.yellow_ticks + r.overload.orange_ticks + r.overload.red_ticks;
  cell.shed_work = r.overload.tier_capped_user_ticks + r.overload.cells_shed +
                   r.overload.deferred_tiles;
  cell.peak_util = r.overload.peak_utilization;
  cell.final_level = r.overload.final_level;
  return cell;
}

int run(const char* json_path) {
  const std::vector<std::size_t> kUsers = {2, 4, 6};
  const std::vector<double> kFactors = {1.0, 8.0, 16.0, 32.0};

  std::FILE* out = nullptr;
  if (json_path != nullptr) {
    out = std::fopen(json_path, "w");
    if (out == nullptr) {
      std::fprintf(stderr, "bench_overload: cannot open %s\n", json_path);
      return 2;
    }
    std::fprintf(out, "{\n  \"sweep\": [");
  }

  AsciiTable table;
  table.header({"users", "pressure", "mean fps", "stall s", "tier",
                "brownout ticks", "shed work", "peak util", "final"});
  std::vector<std::string> failures;
  bool first = true;

  for (const std::size_t users : kUsers) {
    double baseline_fps = 0.0;
    double prev_fps = 0.0;
    std::uint64_t prev_brownout = 0;
    for (const double factor : kFactors) {
      const Cell c = run_cell(users, factor);
      if (factor == 1.0) baseline_fps = c.mean_fps;
      const std::string tag =
          std::to_string(users) + " users @ x" + std::to_string(factor);

      // Gate 2: the ladder engages monotonically with pressure.
      if (c.brownout_ticks + 1 < prev_brownout)
        failures.push_back(tag + ": brownout ticks fell from " +
                           std::to_string(prev_brownout) + " to " +
                           std::to_string(c.brownout_ticks) +
                           " as pressure rose");
      // Gate 3a: graceful floor relative to the unpressured baseline.
      if (c.mean_fps < 0.5 * baseline_fps)
        failures.push_back(tag + ": mean fps " +
                           std::to_string(c.mean_fps) +
                           " below half the baseline " +
                           std::to_string(baseline_fps));
      // Gate 3b: no cliff between adjacent pressure steps.
      if (factor > 1.0 && c.mean_fps < prev_fps - 0.35 * baseline_fps)
        failures.push_back(tag + ": fps cliff from " +
                           std::to_string(prev_fps) + " to " +
                           std::to_string(c.mean_fps));
      // Gate 4: back to green once the pressure window has passed.
      if (c.final_level != 0)
        failures.push_back(tag + ": finished at brownout level " +
                           std::to_string(c.final_level) +
                           " instead of green");
      prev_fps = c.mean_fps;
      prev_brownout = c.brownout_ticks;

      static const char* kLevels[] = {"green", "yellow", "orange", "red"};
      // Appended rather than "x" + num(...), where GCC 12 warns of an
      // overlapping copy (-Wrestrict) inside the inlined concatenation.
      const std::string scale =
          c.factor > 1.0 ? std::string("x").append(AsciiTable::num(c.factor, 0))
                         : "-";
      table.row({std::to_string(c.users), scale,
                 AsciiTable::num(c.mean_fps, 1),
                 AsciiTable::num(c.stall_s, 2),
                 AsciiTable::num(c.mean_tier, 2),
                 std::to_string(c.brownout_ticks),
                 std::to_string(c.shed_work),
                 AsciiTable::num(c.peak_util, 2),
                 c.final_level <= 3 ? kLevels[c.final_level] : "?"});
      if (out != nullptr) {
        std::fprintf(out,
                     "%s\n    {\"users\": %zu, \"pressure\": %.1f, "
                     "\"mean_fps\": %.3f, \"stall_s\": %.3f, "
                     "\"mean_tier\": %.3f, \"brownout_ticks\": %llu, "
                     "\"shed_work\": %llu, \"peak_util\": %.3f, "
                     "\"final_level\": %u}",
                     first ? "" : ",", c.users, c.factor, c.mean_fps,
                     c.stall_s, c.mean_tier,
                     static_cast<unsigned long long>(c.brownout_ticks),
                     static_cast<unsigned long long>(c.shed_work),
                     c.peak_util, c.final_level);
        first = false;
      }
    }
  }
  if (out != nullptr) {
    std::fprintf(out, "\n  ]\n}\n");
    std::fclose(out);
  }

  std::printf("=== Overload control: offered load x CPU pressure ===\n\n");
  std::printf("%s", table.render().c_str());
  if (json_path != nullptr) std::printf("wrote %s\n", json_path);

  if (!failures.empty()) {
    std::printf("\nGATE FAILURES:\n");
    for (const std::string& f : failures)
      std::printf("  %s\n", f.c_str());
    return 1;
  }
  std::printf("\nall gates passed: monotone engagement, graceful "
              "degradation, green recovery\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc == 3 && std::strcmp(argv[1], "--json") == 0) return run(argv[2]);
  if (argc != 1) {
    std::fprintf(stderr, "usage: %s [--json PATH]\n", argv[0]);
    return 2;
  }
  return run(nullptr);
}
