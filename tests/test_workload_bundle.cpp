// WorkloadBundle: shared immutable setup artifacts. Covers the workload
// key, the Session-side validation wall (mismatched bundles are rejected
// up front), bundled-vs-legacy bit-equality for single sessions and fleets
// at several parallelism levels, concurrent shared reads (the TSan
// target), and the build counter the fleet amortization claims rest on.
#include "core/workload_bundle.h"

#include <gtest/gtest.h>

#include <memory>
#include <stdexcept>
#include <thread>
#include <vector>

#include "core/fleet.h"
#include "core/session.h"
#include "session_compare.h"
#include "session_golden.h"

namespace volcast::core {
namespace {

SessionConfig small_config() {
  SessionConfig c;
  c.user_count = 2;
  c.duration_s = 1.0;
  c.master_points = 20'000;
  c.video_frames = 10;
  c.seed = 11;
  c.worker_threads = 1;
  return c;
}

TEST(WorkloadBundle, KeyCapturesContentIdentityOnly) {
  SessionConfig c = small_config();
  const WorkloadKey key = WorkloadKey::from(c);
  EXPECT_EQ(key.video_seed, c.seed ^ 0xc0ffee);  // derived when unpinned
  EXPECT_EQ(key.master_points, c.master_points);
  EXPECT_EQ(key.video_frames, c.video_frames);

  // Audience-side knobs must not move the key: same artifacts, different
  // viewers.
  SessionConfig audience = c;
  audience.user_count = 7;
  audience.enable_multicast = false;
  audience.worker_threads = 4;
  EXPECT_TRUE(key == WorkloadKey::from(audience));
  EXPECT_EQ(key.hash(), WorkloadKey::from(audience).hash());

  // Pinning content_seed decouples identity from the session seed.
  SessionConfig pinned = c;
  pinned.content_seed = 4242;
  SessionConfig pinned_other_seed = pinned;
  pinned_other_seed.seed = 999;
  EXPECT_FALSE(key == WorkloadKey::from(pinned));
  EXPECT_TRUE(WorkloadKey::from(pinned) ==
              WorkloadKey::from(pinned_other_seed));

  // Every workload field moves the hash.
  SessionConfig diff = c;
  diff.master_points = 21'000;
  EXPECT_NE(key.hash(), workload_bundle_hash(diff));
  diff = c;
  diff.video_frames = 12;
  EXPECT_NE(key.hash(), workload_bundle_hash(diff));
  diff = c;
  diff.cell_size_m = 0.4;
  EXPECT_NE(key.hash(), workload_bundle_hash(diff));
  diff = c;
  diff.fps = 25.0;
  EXPECT_NE(key.hash(), workload_bundle_hash(diff));
}

TEST(WorkloadBundle, SessionRejectsAMismatchedBundle) {
  SessionConfig c = small_config();
  c.bundle = WorkloadBundle::build(c);
  SessionConfig other = c;
  other.seed = 12;  // content tracks the seed when content_seed == 0
  EXPECT_THROW(other.validate(), std::invalid_argument);
  EXPECT_THROW(Session{other}, std::invalid_argument);
  // Pinned content makes the same hand-off legal across seeds.
  SessionConfig pinned = small_config();
  pinned.content_seed = 77;
  pinned.bundle = WorkloadBundle::build(pinned);
  SessionConfig pinned_other = pinned;
  pinned_other.seed = 12;
  EXPECT_NO_THROW(pinned_other.validate());
}

TEST(WorkloadBundle, BundledSessionIsBitIdenticalToLegacy) {
  // worker_threads 0 is every core; the bundle's pool draws the
  // generator's samples and sizes the store on all of its lanes.
  for (const std::size_t threads : {0u, 1u, 2u, 4u}) {
    SessionConfig legacy = small_config();
    legacy.worker_threads = threads;
    Session a(legacy);
    const SessionResult want = a.run();

    SessionConfig bundled = legacy;
    bundled.bundle = WorkloadBundle::build(bundled);
    Session b(bundled);
    const SessionResult got = b.run();
    expect_identical(want, got);
  }
}

TEST(WorkloadBundle, FleetSharedBundleBitIdenticalAtAnyParallelism) {
  FleetConfig fc;
  fc.session = small_config();
  fc.session.content_seed = 4242;  // shareable: all slots, one video
  fc.sessions = 8;

  // Reference: slot k run as Session(seed + k), building its own bundle.
  std::vector<SessionResult> own;
  for (std::size_t k = 0; k < fc.sessions; ++k) {
    SessionConfig sc = fc.session;
    sc.seed += k;
    own.push_back(Session(std::move(sc)).run());
  }

  fc.parallel_sessions = 1;
  const FleetResult serial = run_fleet(fc);
  ASSERT_EQ(serial.sessions.size(), fc.sessions);
  for (std::size_t k = 0; k < fc.sessions; ++k)
    expect_identical(own[k], serial.sessions[k]);
  fc.parallel_sessions = 8;
  expect_fleet_identical(serial, run_fleet(fc));
}

TEST(WorkloadBundle, FleetWithPinnedContentBuildsExactlyOnce) {
  FleetConfig fc;
  fc.session = small_config();
  fc.session.content_seed = 7;
  fc.sessions = 6;
  fc.parallel_sessions = 1;
  const std::uint64_t before = WorkloadBundle::builds_total();
  const FleetResult result = run_fleet(fc);
  EXPECT_EQ(WorkloadBundle::builds_total() - before, 1u);
  EXPECT_EQ(result.aborted_slots, 0u);
}

TEST(WorkloadBundle, UnpinnedFleetFallsBackToPerSlotBuilds) {
  // content_seed == 0: slot k streams video (seed + k) ^ 0xc0ffee — nothing
  // is shareable and every slot must build privately.
  FleetConfig fc;
  fc.session = small_config();
  fc.sessions = 3;
  fc.parallel_sessions = 1;
  const std::uint64_t before = WorkloadBundle::builds_total();
  (void)run_fleet(fc);
  EXPECT_EQ(WorkloadBundle::builds_total() - before, 3u);
}

TEST(WorkloadBundle, ConcurrentSessionsReadingOneBundleStayIdentical) {
  // Two sessions race over one shared bundle (the TSan target: shared
  // reads of generator/grid/store/occupancy with zero synchronization),
  // then each must match its serially-computed twin bit for bit.
  SessionConfig base = small_config();
  base.content_seed = 99;

  SessionConfig c0 = base;
  c0.seed = 21;
  SessionConfig c1 = base;
  c1.seed = 22;
  Session s0(c0);
  Session s1(c1);
  const SessionResult want0 = s0.run();
  const SessionResult want1 = s1.run();

  const std::shared_ptr<const WorkloadBundle> bundle =
      WorkloadBundle::build(base);
  SessionResult got0;
  SessionResult got1;
  std::thread t0([&] {
    SessionConfig c = c0;
    c.bundle = bundle;
    Session s(c);
    got0 = s.run();
  });
  std::thread t1([&] {
    SessionConfig c = c1;
    c.bundle = bundle;
    Session s(c);
    got1 = s.run();
  });
  t0.join();
  t1.join();
  expect_identical(want0, got0);
  expect_identical(want1, got1);
}

}  // namespace
}  // namespace volcast::core
