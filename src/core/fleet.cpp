#include "core/fleet.h"

#include <cmath>
#include <cstdint>
#include <mutex>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "common/stats.h"
#include "common/thread_pool.h"
#include "core/checkpoint.h"
#include "core/workload_bundle.h"

namespace volcast::core {

void FleetConfig::validate() const {
  if (sessions == 0)
    throw std::invalid_argument("FleetConfig: sessions must be > 0");
  if (session.telemetry != nullptr)
    throw std::invalid_argument(
        "FleetConfig: the session template cannot carry a telemetry sink "
        "(sessions run concurrently; attach per-session sinks by running "
        "Sessions directly)");
  if (session.tick_observer)
    throw std::invalid_argument(
        "FleetConfig: the session template cannot carry a tick_observer "
        "(sessions run concurrently)");
  try {
    admission.validate();
  } catch (const std::invalid_argument& bad) {
    throw std::invalid_argument(std::string("FleetConfig: ") + bad.what());
  }
  session.validate();
}

namespace {

/// Runs one fleet slot under the supervision policy: every failure is
/// caught and classified instead of escaping, transient classes are
/// retried with a deterministically derived seed, deadline overruns are
/// never retried (the budget is structural — a rerun would overrun
/// again), and an exhausted retry budget quarantines the slot. Pure data
/// in, pure data out: the outcome is bit-identical at any
/// parallel_sessions value.
SlotOutcome run_supervised_slot(const FleetConfig& config, std::size_t slot,
                                SessionResult& out) {
  SlotOutcome outcome;
  const std::uint64_t base_seed =
      config.session.seed + static_cast<std::uint64_t>(slot);
  std::uint64_t seed = base_seed;
  for (std::uint32_t attempt = 1;; ++attempt) {
    outcome.attempts = attempt;
    outcome.seed = seed;
    try {
      SessionConfig sc = config.session;
      sc.seed = seed;
      // The shared bundle survives retries untouched: a retry only redraws
      // the *session* seed, and with content_seed pinned the workload
      // identity — and therefore the bundle key — is seed-independent. The
      // reset below only fires when content ties to the session seed
      // (content_seed == 0), where each slot/attempt legitimately streams
      // its own video and must build privately.
      if (sc.bundle != nullptr &&
          !(sc.bundle->key() == WorkloadKey::from(sc)))
        sc.bundle.reset();
      Session session(std::move(sc));
      out = session.run();
      outcome.status = SlotStatus::kCompleted;
      outcome.error_class = FailureClass::kNone;
      outcome.message.clear();
      return outcome;
    } catch (...) {
      std::string message;
      const FailureClass cls = classify_current_exception(message);
      outcome.error_class = cls;
      outcome.message = std::move(message);
      if (cls == FailureClass::kDeadline) {
        outcome.status = SlotStatus::kDeadlineExceeded;
        return outcome;
      }
      if (attempt > config.supervision.max_retries) {
        outcome.status = config.supervision.max_retries > 0
                             ? SlotStatus::kQuarantined
                             : SlotStatus::kFailed;
        return outcome;
      }
      outcome.backoff_ticks += retry_backoff_ticks(slot, attempt);
      seed = derive_retry_seed(base_seed, slot, attempt + 1);
    }
  }
}

FleetResult run_fleet_impl(const FleetConfig& config) {
  FleetResult result;
  result.sessions.resize(config.sessions);
  result.outcomes.resize(config.sessions);

  const std::uint64_t fingerprint = fleet_fingerprint(config);
  const std::uint64_t bundle_hash = workload_bundle_hash(config.session);

  // Restore finished slots verbatim before dispatching anything: the
  // stored outcome and result are byte-for-byte what the original run
  // produced, which is what makes the resumed FleetResult bit-identical
  // to an uninterrupted one.
  std::vector<char> finished(config.sessions, 0);
  if (!config.resume_file.empty()) {
    FleetCheckpoint ckpt = load_checkpoint(config.resume_file);
    // Check the bundle hash before the full fingerprint: a content
    // mismatch is the likelier operator error under shared-bundle fleets
    // and deserves the specific message.
    if (ckpt.bundle_hash != bundle_hash)
      throw CheckpointError(
          "checkpoint: workload bundle hash mismatch — " +
          config.resume_file +
          " was produced against different shared content (video seed, "
          "master_points, video_frames, fps or cell_size_m differ)");
    if (ckpt.fingerprint != fingerprint)
      throw CheckpointError(
          "checkpoint: fingerprint mismatch — " + config.resume_file +
          " was produced by a different fleet configuration");
    if (ckpt.slot_count != config.sessions)
      throw CheckpointError(
          "checkpoint: slot count " + std::to_string(ckpt.slot_count) +
          " does not match a fleet of " + std::to_string(config.sessions));
    for (SlotRecord& rec : ckpt.records) {
      result.sessions[rec.slot] = std::move(rec.result);
      result.outcomes[rec.slot] = std::move(rec.outcome);
      finished[rec.slot] = 1;
    }
  }

  // Admission pre-pass: the typed admit / queue / deny plan is pure data
  // over (admission config, slot count, hold ticks), settled serially
  // before anything dispatches. Denied slots are recorded as finished
  // right here — they join every checkpoint, restore verbatim on resume,
  // and never bump the kill-after counter (they did not *run*).
  std::vector<overload::AdmissionDecision> admission;
  if (config.admission.enabled) {
    const auto hold = static_cast<std::uint64_t>(
        std::llround(config.session.duration_s * config.session.fps));
    admission =
        overload::plan_admission(config.admission, config.sessions, hold);
    for (std::size_t k = 0; k < config.sessions; ++k) {
      const overload::AdmissionDecision& d = admission[k];
      if (d.outcome != overload::AdmissionOutcome::kDenied) continue;
      if (finished[k]) continue;  // restored verbatim from the checkpoint
      SlotOutcome& o = result.outcomes[k];
      o.status = SlotStatus::kDenied;
      o.error_class = FailureClass::kNone;
      o.message = "admission denied: capacity and queue full at arrival "
                  "tick " +
                  std::to_string(d.arrival_tick);
      o.attempts = 0;  // the slot never ran
      o.seed = config.session.seed + static_cast<std::uint64_t>(k);
      o.admission = overload::AdmissionOutcome::kDenied;
      finished[k] = 1;
    }
  }

  // Checkpoint sink. `finished` doubles as the happens-before edge: a
  // slot's result/outcome writes precede setting its flag under ckpt_mu,
  // so the builder (also under ckpt_mu) only ever reads quiescent slots.
  std::mutex ckpt_mu;
  std::size_t newly_finished = 0;
  const bool sink_active =
      !config.checkpoint_file.empty() || config.kill_after_slots > 0;

  auto run_slot = [&](std::size_t k) {
    if (finished[k]) return;
    result.outcomes[k] = run_supervised_slot(config, k, result.sessions[k]);
    if (config.admission.enabled) {
      // run_supervised_slot rebuilt the outcome; re-apply the admission
      // decision (admitted or queued — denied slots never reach here).
      result.outcomes[k].admission = admission[k].outcome;
      result.outcomes[k].admission_wait_ticks = admission[k].wait_ticks;
    }
    if (!sink_active) return;
    std::lock_guard<std::mutex> lock(ckpt_mu);
    finished[k] = 1;
    ++newly_finished;
    if (!config.checkpoint_file.empty()) {
      FleetCheckpoint ckpt;
      ckpt.fingerprint = fingerprint;
      ckpt.bundle_hash = bundle_hash;
      ckpt.slot_count = static_cast<std::uint32_t>(config.sessions);
      for (std::size_t j = 0; j < config.sessions; ++j) {
        if (!finished[j]) continue;
        SlotRecord rec;
        rec.slot = static_cast<std::uint32_t>(j);
        rec.outcome = result.outcomes[j];
        rec.result = result.sessions[j];
        ckpt.records.push_back(std::move(rec));
      }
      save_checkpoint(ckpt, config.checkpoint_file);
    }
    if (config.kill_after_slots > 0 &&
        newly_finished >= config.kill_after_slots)
      throw FleetKilled("fleet kill hook: aborting after " +
                        std::to_string(newly_finished) +
                        " newly finished slots");
  };

  {
    // Sessions are heavyweight (each precomputes its video store), so the
    // pool fans out whole sessions via per-slot task claiming; each writes
    // only its own slot. Ticks run serially; session.worker_threads sizes
    // only store builds: the shared bundle's, made above, or each slot's
    // own when the content is not shared.
    common::ThreadPool pool(config.parallel_sessions);
    pool.parallel_tasks(config.sessions, run_slot);
  }

  // Aggregates folded serially, in slot order then user order, over the
  // *completed* slots only.
  RunningStats fps_stats;
  RunningStats stall_stats;
  RunningStats tier_stats;
  EmpiricalDistribution fps_dist;
  EmpiricalDistribution stall_dist;
  for (std::size_t k = 0; k < config.sessions; ++k) {
    const SlotOutcome& outcome = result.outcomes[k];
    if (outcome.admission == overload::AdmissionOutcome::kQueued)
      ++result.queued_slots;
    if (outcome.status != SlotStatus::kCompleted) {
      ++result.aborted_slots;
      if (outcome.status == SlotStatus::kQuarantined)
        ++result.quarantined_slots;
      if (outcome.status == SlotStatus::kDenied) ++result.denied_slots;
      continue;
    }
    if (outcome.attempts > 1) ++result.retried_slots;
    for (const sim::UserQoe& q : result.sessions[k].qoe.users) {
      ++result.total_users;
      if (q.displayed_fps >= kSupportedFpsThreshold)
        ++result.supported_users;
      fps_stats.add(q.displayed_fps);
      stall_stats.add(q.stall_ratio);
      tier_stats.add(q.mean_quality_tier);
      fps_dist.add(q.displayed_fps);
      stall_dist.add(q.stall_time_s);
    }
  }
  for (std::size_t k = 0; k < config.sessions; ++k) {
    if (result.outcomes[k].status != SlotStatus::kCompleted) continue;
    const vv::TileReport& t = result.sessions[k].tiles;
    result.tiles.requests += t.requests;
    result.tiles.encoded_tiles += t.encoded_tiles;
    result.tiles.stitched_tiles += t.stitched_tiles;
    result.tiles.encoded_bytes += t.encoded_bytes;
    result.tiles.stitched_bytes += t.stitched_bytes;
  }
  result.mean_displayed_fps = fps_stats.mean();
  result.mean_stall_ratio = stall_stats.mean();
  result.mean_quality_tier = tier_stats.mean();
  if (!fps_dist.empty()) {
    result.p5_displayed_fps = fps_dist.percentile(5.0);
    result.p50_displayed_fps = fps_dist.percentile(50.0);
    result.p95_displayed_fps = fps_dist.percentile(95.0);
    result.p95_stall_time_s = stall_dist.percentile(95.0);
  }
  return result;
}

}  // namespace

FleetResult run_fleet(const FleetConfig& config) {
  config.validate();
  FleetConfig effective = config;
  // Setup-once, serve-many across the fleet: with pinned content every
  // slot's workload identity is the same, so one shared WorkloadBundle
  // replaces per-slot setup (video generation, codec precompute,
  // occupancy). With content_seed == 0 each slot streams its own video
  // (seed + k) and nothing is shareable, so each slot builds its own. The
  // bundle changes wall clock only, never results, so it is not part of
  // the checkpoint fingerprint and resumed runs stay compatible either way.
  if (effective.session.bundle == nullptr &&
      effective.session.content_seed != 0)
    effective.session.bundle = WorkloadBundle::build(effective.session);
  return run_fleet_impl(effective);
}

}  // namespace volcast::core
