// Encode-once, serve-many: first-touch tile accounting across users.
//
// Users x audience-spread sweep comparing tiling=off (per-user encode)
// against tiling=shared. The logical encode bytes per user are
// deterministic, so the encode-cost ratio is a hard regression gate; the
// headline property is that shared encode cost scales with *distinct
// viewports*, not user count — at 8 users in a tight arc the per-user
// encode cost drops well past 2x. Wall clock is informational.
//
// `--json PATH` writes the machine-readable form consumed by
// tools/ci_bench.sh (merged into BENCH_scaling.json as the "tile_cache"
// key).
#include <chrono>
#include <cstdio>
#include <cstring>

#include "common/table.h"
#include "core/session.h"

using namespace volcast;
using namespace volcast::core;

namespace {

SessionConfig session_config(std::size_t users, double spread) {
  SessionConfig config;
  config.user_count = users;
  config.duration_s = 2.0;
  config.master_points = 100'000;
  config.video_frames = 30;
  config.worker_threads = 1;
  config.audience_spread_rad = spread;
  return config;
}

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

struct Timed {
  SessionResult result;
  double wall_s = 0.0;
};

Timed run_timed(const SessionConfig& config, const char* tiling) {
  constexpr int kReps = 3;
  Timed best;
  for (int rep = 0; rep < kReps; ++rep) {
    SessionConfig sc = config;
    sc.policy_overrides["tiling"] = tiling;
    Session session(std::move(sc));
    const auto t0 = std::chrono::steady_clock::now();
    SessionResult r = session.run();
    const double wall = seconds_since(t0);
    if (rep == 0 || wall < best.wall_s) {
      best.result = r;
      best.wall_s = wall;
    }
  }
  return best;
}

int run(const char* json_path) {
  std::FILE* out = nullptr;
  if (json_path != nullptr) {
    out = std::fopen(json_path, "w");
    if (out == nullptr) {
      std::fprintf(stderr, "bench_tile_cache: cannot write %s\n", json_path);
      return 1;
    }
    std::fprintf(out,
                 "{\n  \"bench\": \"tile_cache\",\n"
                 "  \"config\": {\"duration_s\": 2.0, \"master_points\": "
                 "100000, \"video_frames\": 30},\n"
                 "  \"sessions\": [");
  }

  std::printf("=== Tiling: encode-once/serve-many vs per-user encode "
              "===\n\n");
  AsciiTable table;
  table.header({"users", "spread", "off MB/user", "shared MB/user",
                "encode ratio", "reuse", "off s", "shared s"});
  bool first = true;
  // 1.5 rad is the "clustered" arc: viewports overlap heavily but the
  // users stay out of each other's body-blockage shadow (tighter arcs
  // black out the links and nothing is scheduled).
  for (const auto& [users, spread] :
       {std::pair<std::size_t, double>{2, 2.0},
        {4, 2.0},
        {8, 1.5},
        {8, 2.0},
        {16, 1.5}}) {
    const SessionConfig config = session_config(users, spread);
    const Timed off = run_timed(config, "off");
    const Timed shared = run_timed(config, "shared");

    const double n = static_cast<double>(users);
    const double off_mb_user =
        static_cast<double>(off.result.tiles.encoded_bytes) / 1e6 / n;
    const double shared_mb_user =
        static_cast<double>(shared.result.tiles.encoded_bytes) / 1e6 / n;
    // < 1: the shared path encodes fewer bytes. The gated column.
    const double encode_ratio =
        static_cast<double>(shared.result.tiles.encoded_bytes) /
        static_cast<double>(off.result.tiles.encoded_bytes);
    const double reuse =
        static_cast<double>(shared.result.tiles.stitched_tiles) /
        static_cast<double>(shared.result.tiles.requests);

    if (out != nullptr) {
      std::fprintf(out,
                   "%s\n    {\"users\": %zu, \"spread_rad\": %.1f, "
                   "\"off_encode_mb_per_user\": %.4f, "
                   "\"shared_encode_mb_per_user\": %.4f, "
                   "\"encode_ratio\": %.4f, \"reuse\": %.4f, "
                   "\"off_s\": %.4f, \"shared_s\": %.4f}",
                   first ? "" : ",", users, spread, off_mb_user,
                   shared_mb_user, encode_ratio, reuse, off.wall_s,
                   shared.wall_s);
      first = false;
    }
    table.row({std::to_string(users), AsciiTable::num(spread, 1),
               AsciiTable::num(off_mb_user, 2),
               AsciiTable::num(shared_mb_user, 2),
               AsciiTable::num(encode_ratio, 3), AsciiTable::num(reuse, 3),
               AsciiTable::num(off.wall_s, 2),
               AsciiTable::num(shared.wall_s, 2)});
  }
  std::printf("%s", table.render().c_str());

  if (out != nullptr) {
    std::fprintf(out, "\n  ]\n}\n");
    std::fclose(out);
    std::printf("wrote %s\n", json_path);
  }
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
