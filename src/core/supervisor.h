// Fleet supervision: typed per-slot failure taxonomy, deterministic retry
// scheduling, and logical deadlines.
//
// Production multi-user streaming survives partial failure: one crashing
// session (a chaos crash fault, a bad allocation, a deadline overrun) must
// not abort the other N-1 rooms, and a long fleet run must be resumable
// after a kill. The supervisor half of that story lives here — a typed
// SlotOutcome per fleet slot, a retry schedule that is *pure data* (retry k
// of slot j reruns with a seed derived only from (base seed, slot,
// attempt), so the FleetResult stays bit-identical at any
// `parallel_sessions` value), and quarantine once retries are exhausted.
// The persistence half lives in core/checkpoint.h.
#pragma once

#include <cstddef>
#include <cstdint>
#include <exception>
#include <stdexcept>
#include <string>

#include "core/overload/admission.h"

namespace volcast::core {

/// Terminal state of one fleet slot.
enum class SlotStatus : std::uint8_t {
  kCompleted = 0,         // result is valid (attempts > 1 => retried-then-ok)
  kFailed = 1,            // threw with retries disabled; result is empty
  kDeadlineExceeded = 2,  // exceeded the logical tick budget; never retried
  kQuarantined = 3,       // threw on every attempt, retries exhausted
  kDenied = 4,            // admission control denied the slot; never ran
};

/// Error taxonomy of the attempt that decided a non-completed slot.
enum class FailureClass : std::uint8_t {
  kNone = 0,             // completed slots
  kCrashFault = 1,       // fault::SessionCrashFault (injected chaos crash)
  kDeadline = 2,         // core::DeadlineExceeded (tick budget exhausted)
  kBadAlloc = 3,         // std::bad_alloc
  kInvalidArgument = 4,  // std::invalid_argument
  kLogicError = 5,       // other std::logic_error
  kRuntimeError = 6,     // other std::runtime_error
  kUnknown = 7,          // anything else (incl. non-std exceptions)
};

[[nodiscard]] const char* to_string(SlotStatus status) noexcept;
[[nodiscard]] const char* to_string(FailureClass c) noexcept;

/// Per-slot supervision record. For completed slots `error_class` is kNone
/// and `message` is empty even when earlier attempts failed — `attempts`
/// and `backoff_ticks` carry the retry history.
struct SlotOutcome {
  SlotStatus status = SlotStatus::kCompleted;
  FailureClass error_class = FailureClass::kNone;
  /// what() of the failure that decided a non-completed slot.
  std::string message;
  /// Total attempts made (1 = first try decided the slot).
  std::uint32_t attempts = 1;
  /// Seed of the attempt that produced `status` (base seed + slot for the
  /// first attempt, derive_retry_seed(...) afterwards).
  std::uint64_t seed = 0;
  /// Sum of the logical backoff schedule across retries. Simulated
  /// sessions never wall-clock-wait; this is the deterministic schedule a
  /// real deployment would sleep, recorded as data.
  std::uint64_t backoff_ticks = 0;
  /// Typed admission decision for the slot (kAdmitted for every slot when
  /// fleet admission control is off, so legacy outcomes are unchanged).
  overload::AdmissionOutcome admission = overload::AdmissionOutcome::kAdmitted;
  /// Logical ticks a queued slot waited for a capacity unit (0 otherwise).
  std::uint64_t admission_wait_ticks = 0;
};

/// Fleet supervision knobs. The zero-initialized default disables retry,
/// and run_fleet then behaves exactly like an unsupervised fold over
/// healthy slots (failures are still caught and recorded instead of
/// aborting the fleet). The per-session deadline is the template's
/// SessionConfig::tick_budget, which every slot inherits.
struct SupervisorConfig {
  /// Retries after the first failed attempt (0 = first failure is final).
  /// Deadline overruns are never retried: the tick budget is structural,
  /// so a rerun would deterministically overrun again.
  std::size_t max_retries = 0;
};

/// Thrown by Session::run when SessionConfig::tick_budget is exhausted.
class DeadlineExceeded : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Thrown by run_fleet when FleetConfig::kill_after_slots fired (a test
/// hook simulating an operator kill mid-fleet; the checkpoint file already
/// holds every slot finished so far).
class FleetKilled : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Seed for retry `attempt` (>= 2) of fleet slot `slot`: a splitmix-style
/// mix of the inputs only, so the schedule is identical at any
/// parallelism. Attempt 1 uses `base_seed + slot` (the PR-4 fleet
/// contract) — this function is only consulted for the reruns.
[[nodiscard]] std::uint64_t derive_retry_seed(std::uint64_t base_seed,
                                              std::size_t slot,
                                              std::uint32_t attempt) noexcept;

/// Logical backoff before retry `attempt` of `slot`: exponential base with
/// a seeded slot-indexed jitter term, pure data (see SlotOutcome).
[[nodiscard]] std::uint64_t retry_backoff_ticks(std::size_t slot,
                                                std::uint32_t attempt) noexcept;

/// Maps a caught exception onto the taxonomy (most-derived class first).
[[nodiscard]] FailureClass classify_failure(const std::exception& e) noexcept;

/// Classifies the in-flight exception of a catch block and extracts its
/// what() into `message` ("unknown exception" for non-std types).
[[nodiscard]] FailureClass classify_current_exception(std::string& message);

}  // namespace volcast::core
