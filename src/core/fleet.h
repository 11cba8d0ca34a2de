// Multi-session fleet runner: N independently-seeded sessions (e.g. N
// rooms of the same venue, or N Monte-Carlo repetitions of one deployment)
// executed across a thread pool, with slot-indexed results and aggregate
// fleet statistics.
//
// Determinism contract (same as Session's worker_threads contract): slot k
// always runs the session template with seed `session.seed + k`, results
// land in slot k, and every aggregate is folded serially in slot order —
// the FleetResult is bit-identical for every `parallel_sessions` value.
//
// Supervision contract: a throwing session never escapes run_fleet — the
// slot is recorded as failed (typed SlotOutcome, see core/supervisor.h),
// optionally retried with a deterministically derived seed, and the
// healthy slots still fold into the aggregates. With `checkpoint_file`
// set, every finished slot is persisted (core/checkpoint.h) and a later
// run with `resume_file` skips the stored slots, producing a FleetResult
// bit-identical to an uninterrupted run.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "core/session.h"
#include "core/supervisor.h"

namespace volcast::core {

/// A user counts as "supported" when its displayed FPS reaches this floor
/// (the paper's bar for smooth 30 FPS playback).
inline constexpr double kSupportedFpsThreshold = 29.5;

struct FleetConfig {
  /// Per-session template. Slot k runs it with `seed + k`; everything else
  /// (users, duration, ablation switches, policy overrides, the logical
  /// tick_budget deadline) is shared. When the template pins the content
  /// (content_seed != 0) and carries no bundle, run_fleet builds one
  /// WorkloadBundle that every slot reads instead of rebuilding its own
  /// setup; results are bit-identical either way. Leave `telemetry` and
  /// `tick_observer` null/empty — per-slot sinks cannot be shared across
  /// concurrent sessions.
  SessionConfig session;
  /// Number of sessions in the fleet.
  std::size_t sessions = 1;
  /// Sessions simulated concurrently: 0 = hardware concurrency, 1 = fully
  /// serial. Outer parallelism only changes wall time, never results.
  std::size_t parallel_sessions = 0;

  /// Retry policy (the default disables it; failures are still caught and
  /// recorded rather than aborting the fleet).
  SupervisorConfig supervision;
  /// Admission control over the logical arrival schedule (disabled by
  /// default — every slot runs, the legacy behavior). With it enabled,
  /// slots beyond capacity queue up to `queue_limit` and the rest are
  /// denied with a typed SlotOutcome (SlotStatus::kDenied) without ever
  /// running. Pure data, so the FleetResult stays bit-identical at any
  /// parallel_sessions value and across checkpoint/resume splits.
  overload::AdmissionConfig admission;
  /// When non-empty, rewrite this file after every finished slot with all
  /// finished slots so far (atomic replace; see core/checkpoint.h).
  std::string checkpoint_file;
  /// When non-empty, restore the slots stored in this file verbatim and
  /// only run the missing ones. Throws CheckpointError when the file is
  /// invalid or was produced by a different configuration. May name the
  /// same file as `checkpoint_file` to continue a run in place.
  std::string resume_file;
  /// Test hook: abort with core::FleetKilled once this many *newly run*
  /// slots have finished and checkpointed (0 = off). Simulates an operator
  /// kill mid-fleet; exact with parallel_sessions == 1, best-effort
  /// otherwise (slots already in flight still complete).
  std::size_t kill_after_slots = 0;

  /// Throws std::invalid_argument on an invalid fleet or session config.
  void validate() const;
};

/// Fleet outcome: per-session results (slot k = seed + k) + aggregates.
struct FleetResult {
  std::vector<SessionResult> sessions;
  /// Per-slot supervision record, same indexing as `sessions`. A slot that
  /// did not complete keeps a default SessionResult and is excluded from
  /// every aggregate below.
  std::vector<SlotOutcome> outcomes;

  /// Slots that produced no result (failed + deadline-exceeded +
  /// quarantined + denied).
  std::size_t aborted_slots = 0;
  /// Completed slots that needed more than one attempt.
  std::size_t retried_slots = 0;
  /// Slots that exhausted max_retries.
  std::size_t quarantined_slots = 0;
  /// Slots admission control turned away (also counted in aborted_slots).
  std::size_t denied_slots = 0;
  /// Slots that waited in the admission queue before starting.
  std::size_t queued_slots = 0;

  // Aggregates over every user of every *completed* session, folded in
  // slot order.
  std::size_t total_users = 0;
  /// Users whose displayed FPS met the supported threshold.
  std::size_t supported_users = 0;
  double mean_displayed_fps = 0.0;
  double mean_stall_ratio = 0.0;
  double mean_quality_tier = 0.0;
  /// Displayed-FPS distribution across users (p5 pessimum, median, p95).
  double p5_displayed_fps = 0.0;
  double p50_displayed_fps = 0.0;
  double p95_displayed_fps = 0.0;
  /// Stall-time distribution across users.
  double p95_stall_time_s = 0.0;
  /// Tile assembly totals summed over completed slots (all zero under the
  /// default "off" tiling policy). Each slot counts its own first touches,
  /// so these totals are bit-identical at any parallel_sessions value.
  vv::TileReport tiles;
};

/// Runs the whole fleet. Deterministic for a given config at any
/// `parallel_sessions` value.
[[nodiscard]] FleetResult run_fleet(const FleetConfig& config);

}  // namespace volcast::core
