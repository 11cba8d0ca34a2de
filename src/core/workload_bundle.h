// Shared immutable workload artifacts: one VideoStore, ten thousand
// sessions.
//
// Per-session setup (generating the video, precomputing the codec size
// tables, deriving the per-frame occupancy that drives visibility) costs
// ~0.07-0.11 s with 120k-point, 30-frame content — which dwarfs run time for
// short sessions and scales fleet serial time linearly with slot count. But
// all of those artifacts are pure functions of the *workload identity*
// (video seed, point budget, frame count, fps, cell size), not of the
// audience: every fleet slot streaming the same content recomputes
// byte-identical tables. The WorkloadBundle hoists them into a single
// reference-counted, read-only artifact set built once per fleet and read
// concurrently by every slot — the same encode-once/serve-many
// amortization shared tiling applies to the wire, applied to the setup
// path. DESIGN.md §8 "Setup cost" breaks the store build down by phase.
//
// Ownership / copy-on-write rules:
//  * WorkloadBundle::build is the only way to obtain a bundle, and it
//    returns it complete behind shared_ptr<const WorkloadBundle>. The
//    bundle has no mutators, so shared reads are race-free by
//    construction; the TSan suite pins that
//    (tests/test_workload_bundle.cpp).
//  * Artifacts are heap-allocated so their addresses survive handoff; the
//    VideoStore's interior CellGrid pointer stays valid for the bundle's
//    whole lifetime.
//  * Nothing a session mutates lives here. Per-session state (players,
//    predictors, RNG streams, per-user health) is copied out of / derived
//    from the bundle at session construction — copy-on-write with session
//    granularity: a session that needs divergent artifacts simply builds a
//    private bundle (the legacy path is exactly that, one private bundle
//    per session).
//  * Identity is the WorkloadKey; its hash() is the bundle hash folded
//    into the fleet checkpoint fingerprint (checkpoint v4), so a resumed
//    run rejects a checkpoint taken against different shared content.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "pointcloud/cell_grid.h"
#include "pointcloud/video_generator.h"
#include "pointcloud/video_store.h"

namespace volcast::common {
class ThreadPool;  // common/thread_pool.h
}  // namespace volcast::common

namespace volcast::core {

struct SessionConfig;  // core/session.h

/// Identity of one workload's immutable artifact set: every SessionConfig
/// field that determines the generated video, the cell grid, the codec
/// size tables and the occupancy precompute — and nothing else. Two
/// configs with equal keys produce byte-identical artifacts and may share
/// one bundle; audience fields (users, seeds beyond the video seed,
/// ablation switches, policies) deliberately do not participate.
struct WorkloadKey {
  /// The video's content seed: SessionConfig::content_seed when nonzero,
  /// else derived from the session seed (seed ^ 0xc0ffee).
  std::uint64_t video_seed = 0;
  std::uint64_t master_points = 0;
  std::uint64_t video_frames = 0;
  double fps = 30.0;
  double cell_size_m = 0.5;

  [[nodiscard]] static WorkloadKey from(const SessionConfig& config);

  [[nodiscard]] bool operator==(const WorkloadKey& other) const noexcept {
    return video_seed == other.video_seed &&
           master_points == other.master_points &&
           video_frames == other.video_frames && fps == other.fps &&
           cell_size_m == other.cell_size_m;
  }

  /// FNV-1a64 over the canonical little-endian field encoding (doubles as
  /// raw IEEE-754 bits) — the bundle hash recorded in checkpoint v4.
  [[nodiscard]] std::uint64_t hash() const noexcept;
};

/// Bundle hash a config would build — computable without building the
/// bundle, so run_fleet can fingerprint resumes cheaply.
[[nodiscard]] std::uint64_t workload_bundle_hash(const SessionConfig& config);

/// Per-video-frame top-tier occupancy: a view of the store's point table
/// (VideoStore::tier_points), not a copy. Cheap to copy; valid while the
/// store it views lives.
class OccupancyTable {
 public:
  explicit OccupancyTable(const vv::VideoStore& store) noexcept
      : store_(&store) {}

  /// Top-tier point count of every cell of one frame, indexed by CellId.
  [[nodiscard]] std::span<const std::uint32_t> operator[](
      std::size_t frame) const {
    return store_->tier_points(frame, store_->tier_count() - 1);
  }

 private:
  const vv::VideoStore* store_;
};

/// The immutable artifact set, built complete by build().
class WorkloadBundle {
 public:
  WorkloadBundle(const WorkloadBundle&) = delete;
  WorkloadBundle& operator=(const WorkloadBundle&) = delete;

  /// Builds the video, grid and store for `config` on a bundle-local pool
  /// of config.worker_threads lanes: exactly the tables SessionState used
  /// to build per session, bit-identical at any worker count. The only
  /// entry point: run_fleet and SessionState both funnel through here,
  /// which is what the build counter counts.
  [[nodiscard]] static std::shared_ptr<const WorkloadBundle> build(
      const SessionConfig& config);

  [[nodiscard]] const WorkloadKey& key() const noexcept { return key_; }
  /// == key().hash(); the checkpoint-v4 bundle hash.
  [[nodiscard]] std::uint64_t hash() const noexcept { return key_.hash(); }

  [[nodiscard]] const vv::VideoGenerator& generator() const noexcept {
    return *generator_;
  }
  [[nodiscard]] const vv::CellGrid& grid() const noexcept { return *grid_; }
  [[nodiscard]] const vv::VideoStore& store() const noexcept {
    return *store_;
  }
  /// Per-frame top-tier occupancy (visibility input), served from the
  /// store's point table.
  [[nodiscard]] OccupancyTable occupancy() const noexcept {
    return OccupancyTable(*store_);
  }

  /// Process-lifetime count of build() calls — the "peak bundle builds
  /// == 1" observability hook the fleet tests assert through.
  [[nodiscard]] static std::uint64_t builds_total() noexcept;

 private:
  WorkloadBundle(WorkloadKey key, common::ThreadPool& pool);

  WorkloadKey key_;
  // Heap-allocated for address stability: the store points at the grid.
  std::unique_ptr<const vv::VideoGenerator> generator_;
  std::unique_ptr<const vv::CellGrid> grid_;
  std::unique_ptr<const vv::VideoStore> store_;
};

}  // namespace volcast::core
