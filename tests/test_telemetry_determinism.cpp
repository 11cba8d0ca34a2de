// The telemetry determinism contract (ISSUE 3 acceptance criteria):
//  * SessionResult is bit-identical with telemetry enabled vs disabled, at
//    any worker_threads value (it sizes the session's store build);
//  * the JSONL stream is identical — byte-for-byte with wall capture off,
//    modulo the wall_us fields with it on — for worker_threads in
//    {1, 4, hardware} under the chaos fault plan.
#include <gtest/gtest.h>

#include <cstddef>
#include <string>
#include <utility>

#include "core/session.h"
#include "fault/fault_plan.h"
#include "obs/telemetry.h"
#include "session_compare.h"

namespace volcast::core {
namespace {

// Multi-AP chaos config: every event-emitting path (fault injection, AP
// outages, probe retries, fallbacks, tier changes, group formation) fires.
SessionConfig chaos_config() {
  SessionConfig c;
  c.user_count = 4;
  c.duration_s = 4.0;
  c.master_points = 40'000;
  c.video_frames = 30;
  c.ap_count = 2;
  fault::ChaosConfig chaos;
  chaos.seed = c.seed;
  chaos.duration_s = c.duration_s;
  chaos.user_count = c.user_count;
  chaos.ap_count = c.ap_count;
  chaos.intensity = 1.5;
  c.fault_plan = fault::random_plan(chaos);
  return c;
}

struct TracedRun {
  SessionResult result;
  std::string jsonl;
};

TracedRun run_traced(std::size_t threads, bool capture_wall) {
  obs::Telemetry telemetry({.capture_wall_time = capture_wall});
  SessionConfig c = chaos_config();
  c.worker_threads = threads;
  c.telemetry = &telemetry;
  Session session(std::move(c));
  TracedRun out;
  out.result = session.run();
  out.jsonl = telemetry.to_jsonl();
  return out;
}

SessionResult run_untraced(std::size_t threads) {
  SessionConfig c = chaos_config();
  c.worker_threads = threads;
  Session session(std::move(c));
  return session.run();
}

/// Removes every `,"wall_us":<number>` field. The writer always emits
/// wall_us as the last span field, so the strip runs to the closing brace.
std::string strip_wall(const std::string& jsonl) {
  static const std::string kKey = ",\"wall_us\":";
  std::string out;
  out.reserve(jsonl.size());
  std::size_t pos = 0;
  while (pos < jsonl.size()) {
    const std::size_t hit = jsonl.find(kKey, pos);
    if (hit == std::string::npos) {
      out.append(jsonl, pos, std::string::npos);
      break;
    }
    out.append(jsonl, pos, hit - pos);
    const std::size_t close = jsonl.find('}', hit);
    if (close == std::string::npos) {
      ADD_FAILURE() << "unterminated span record after wall_us";
      break;
    }
    pos = close;
  }
  return out;
}

TEST(TelemetryDeterminism, JsonlIdenticalAcrossThreadCounts) {
  // Wall capture off: the stream must be byte-identical whether the store
  // is built serially, on 4 workers, or on hardware concurrency
  // (worker_threads = 0).
  const TracedRun serial = run_traced(1, /*capture_wall=*/false);
  const TracedRun four = run_traced(4, /*capture_wall=*/false);
  const TracedRun hardware = run_traced(0, /*capture_wall=*/false);
  ASSERT_FALSE(serial.jsonl.empty());
  EXPECT_EQ(serial.jsonl, four.jsonl);
  EXPECT_EQ(serial.jsonl, hardware.jsonl);
  expect_identical(serial.result, four.result);
  expect_identical(serial.result, hardware.result);
}

TEST(TelemetryDeterminism, WallCaptureOnlyAddsWallFields) {
  // With wall capture on, stripping the wall_us fields must reproduce the
  // wall-free stream exactly — the wall clock adds data, never reorders or
  // perturbs it.
  const TracedRun with_wall = run_traced(4, /*capture_wall=*/true);
  const TracedRun without = run_traced(4, /*capture_wall=*/false);
  EXPECT_EQ(strip_wall(with_wall.jsonl), without.jsonl);
  expect_identical(with_wall.result, without.result);
}

TEST(TelemetryDeterminism, SessionResultUnchangedByTelemetry) {
  // The acceptance criterion: bit-identical SessionResult with telemetry
  // enabled vs disabled, at any thread count.
  for (const std::size_t threads : {std::size_t{1}, std::size_t{4},
                                    std::size_t{0}}) {
    const SessionResult bare = run_untraced(threads);
    const TracedRun traced = run_traced(threads, /*capture_wall=*/true);
    expect_identical(bare, traced.result);
  }
}

TEST(TelemetryDeterminism, ChaosRunEmitsFaultEvents) {
  // The chaos plan must actually exercise the event paths, otherwise the
  // stream-equality assertions above are vacuous.
  const TracedRun run = run_traced(1, /*capture_wall=*/false);
  bool fault_event = false;
  bool group_event = false;
  for (const obs::Event& e : [] {
         obs::Telemetry tel({.capture_wall_time = false});
         SessionConfig c = chaos_config();
         c.worker_threads = 1;
         c.telemetry = &tel;
         Session session(std::move(c));
         (void)session.run();
         return tel.events();
       }()) {
    fault_event |= e.type == obs::EventType::kFaultInjected;
    group_event |= e.type == obs::EventType::kGroupFormed;
  }
  EXPECT_TRUE(fault_event);
  EXPECT_TRUE(group_event);
  EXPECT_GT(run.jsonl.size(), 1000u);
}

}  // namespace
}  // namespace volcast::core
