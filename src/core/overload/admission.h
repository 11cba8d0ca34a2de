// Deterministic fleet admission control: typed admit / queue / deny
// decisions over a logical arrival schedule.
//
// run_fleet dispatches every slot immediately today; under arrival
// pressure a real deployment instead holds a capacity, queues a bounded
// overflow, and denies the rest — failing fast beats failing everyone.
// plan_admission simulates exactly that, as pure data: slot k arrives at a
// schedule derived from the config (uniform spacing, optionally compressed
// into bursts by the arrival-burst chaos knob), occupies a capacity unit
// for its logical hold time, and the FIFO queue bridges short spikes.
// The whole plan is a pure function of (config, slot count, hold ticks),
// so the fleet's outcome stays bit-identical at any parallel_sessions
// value and across checkpoint/resume splits.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace volcast::core::overload {

/// Typed outcome of one slot's admission decision.
enum class AdmissionOutcome : std::uint8_t {
  kAdmitted = 0,  // started at its arrival tick
  kQueued = 1,    // waited for a capacity unit, then started
  kDenied = 2,    // queue full at arrival; the slot never runs
};

/// Admission knobs. Disabled (the default) keeps run_fleet's legacy
/// dispatch-everything behavior byte-for-byte.
struct AdmissionConfig {
  bool enabled = false;
  /// Concurrent sessions the deployment can hold (logical capacity — this
  /// is a resource model, not the parallel_sessions thread knob).
  std::size_t capacity = 4;
  /// Slots allowed to wait for a free capacity unit; arrivals beyond
  /// capacity + queue are denied.
  std::size_t queue_limit = 2;
  /// Arrival schedule: group g arrives at tick g * spacing. 0 = everything
  /// arrives at tick 0 (the worst-case thundering herd).
  std::uint64_t arrival_spacing_ticks = 0;
  /// Slots per arrival group. 1 = uniform arrivals; larger values are the
  /// arrival-burst chaos mode (bursts of simultaneous joins).
  std::size_t arrival_burst = 1;

  /// Throws std::invalid_argument naming the violated rule.
  void validate() const;
};

/// One slot's decision. `start_tick` and `wait_ticks` are meaningful for
/// admitted and queued slots; a denied slot never starts.
struct AdmissionDecision {
  AdmissionOutcome outcome = AdmissionOutcome::kAdmitted;
  std::uint64_t arrival_tick = 0;
  std::uint64_t start_tick = 0;
  std::uint64_t wait_ticks = 0;
};

/// Logical arrival tick of slot `k` under the config's schedule.
[[nodiscard]] std::uint64_t arrival_tick(const AdmissionConfig& config,
                                         std::size_t slot) noexcept;

/// Plans admission for `slots` sessions, each holding a capacity unit for
/// `hold_ticks` once started. Deterministic, serial, FIFO.
[[nodiscard]] std::vector<AdmissionDecision> plan_admission(
    const AdmissionConfig& config, std::size_t slots,
    std::uint64_t hold_ticks);

}  // namespace volcast::core::overload
