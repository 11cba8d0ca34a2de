// Deterministic cross-layer fault injection (chaos testing for the
// streaming stack).
//
// The paper's agenda is surviving disruption, but the anticipated failure
// modes (forecastable body blockage, SLS staleness) are only half the
// story: real multi-user deployments are dominated by *unanticipated*
// faults — AP outages, user churn, new obstacles, broken beam probes,
// corrupted frames, decoder stalls. A FaultPlan is an explicit, seeded list
// of such timed events; the session threads it through every layer so that
// graceful degradation and recovery can be exercised and measured. Faults
// are simulation events, never wall-clock randomness: the same
// (SessionConfig, FaultPlan, seed) reproduces bit-identical results.
#pragma once

#include <cstdint>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

#include "geometry/vec3.h"

namespace volcast::fault {

/// Event taxonomy, one entry per layer the injector can disturb.
enum class FaultKind {
  kApOutage,       // AP `target` goes dark, restarts after duration_s
  kUserLeave,      // user `target` churns out, rejoins after duration_s
  kObstacleSpawn,  // persistent obstacle appears at `position`
  kBeamProbeFail,  // user `target`'s custom-beam probes fail while active
  kStuckSector,    // user `target`'s serving sector freezes while active
  kFrameLoss,      // user frames corrupt/lost with probability `magnitude`
  kDecoderStall,   // user `target`'s decoder is frozen while active
  kSessionCrash,   // whole session process dies at onset (see below)
  kBurstLoss,      // correlated packet loss: while active, the transport
                   // wire's Gilbert–Elliott chain drops packets with
                   // probability `magnitude` in the bad state (kAllUsers
                   // supported; inert under the goodput transport policy)
  kCpuPressure,    // resource pressure: while active, the overload
                   // governor's logical compute costs inflate by factor
                   // `magnitude` (>= 1); inert with overload control off
  kMemPressure,    // resource pressure: while active, the governor's
                   // logical encode working-set budget shrinks to
                   // fraction `magnitude` (in (0, 1]); inert with overload
                   // off
};

[[nodiscard]] const char* to_string(FaultKind kind) noexcept;

/// `target` value meaning "every user" (kFrameLoss and kBurstLoss).
inline constexpr std::size_t kAllUsers =
    std::numeric_limits<std::size_t>::max();

/// One timed fault.
struct FaultEvent {
  double t_s = 0.0;         // onset (simulation time)
  FaultKind kind = FaultKind::kApOutage;
  std::size_t target = 0;   // AP index or user index depending on kind
  /// Active window; <= 0 means "until the end of the session".
  double duration_s = 0.0;
  /// Kind-specific knob: loss probability in [0, 1] for kFrameLoss and
  /// kBurstLoss (bad-state packet loss),
  /// obstacle radius in meters for kObstacleSpawn (0 = default 0.4 m),
  /// crash probability in [0, 1] for kSessionCrash (0 = certain crash).
  double magnitude = 0.0;
  /// Obstacle spawn point in room coordinates (kObstacleSpawn only).
  geo::Vec3 position{};
};

/// Thrown out of Session::run when a kSessionCrash fault fires: the
/// simulated analogue of the whole serving process dying mid-session. The
/// session is unusable afterwards (it is single-shot anyway); the fleet
/// supervisor (core/supervisor.h) catches this, classifies it, and retries
/// or quarantines the slot instead of aborting the fleet.
///
/// Whether a kSessionCrash event actually fires is a deterministic draw
/// from (session seed, event target, onset) against `magnitude`
/// (0 = always crash). The draw depends on the seed, so a supervised
/// retry with a derived seed models a *transient* crash (may survive the
/// rerun) while magnitude 0/1.0 models a persistent one (crashes every
/// attempt until quarantine). `target` is a free salt that selects which
/// seeds draw below the probability — not a user index.
class SessionCrashFault : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// An ordered, validated list of fault events.
class FaultPlan {
 public:
  FaultPlan() = default;

  /// Inserts an event keeping the list sorted by onset time.
  void add(const FaultEvent& event);

  [[nodiscard]] const std::vector<FaultEvent>& events() const noexcept {
    return events_;
  }
  [[nodiscard]] bool empty() const noexcept { return events_.empty(); }
  [[nodiscard]] std::size_t size() const noexcept { return events_.size(); }

  /// Checks every event against the session shape. Throws
  /// std::invalid_argument with a message naming the offending event.
  void validate(std::size_t user_count, std::size_t ap_count) const;

  /// Human-readable one-line-per-event listing.
  [[nodiscard]] std::string summary() const;

 private:
  std::vector<FaultEvent> events_;
};

/// Knobs for the seeded chaos-plan generator.
struct ChaosConfig {
  std::uint64_t seed = 1;
  double duration_s = 8.0;
  std::size_t user_count = 4;
  std::size_t ap_count = 1;
  /// Expected fault events per simulated second (before clamping to at
  /// least one event per plan).
  double intensity = 0.5;
  /// When > 0, the plan additionally carries one kSessionCrash event with
  /// this crash probability at a seeded onset. Drawn from a separate RNG
  /// stream, so plans with crash_probability == 0 are byte-identical to
  /// pre-crash-fault chaos plans.
  double crash_probability = 0.0;
  /// When > 0, the plan additionally carries correlated burst-loss windows
  /// (kBurstLoss, all users) with this bad-state packet-loss probability.
  /// Also a separate RNG stream, for the same byte-stability reason.
  double burst_loss_probability = 0.0;
  /// When > 1, the plan carries kCpuPressure windows inflating the
  /// overload governor's logical compute costs by this factor. Separate
  /// RNG stream; plans with the knob off keep their exact legacy bytes.
  double cpu_pressure = 0.0;
  /// When in (0, 1), the plan carries kMemPressure windows shrinking the
  /// governor's logical encode working-set budget to this fraction.
  /// Separate RNG stream, same byte-stability guarantee.
  double mem_pressure = 0.0;
};

/// Generates a random-but-deterministic plan: same ChaosConfig, same plan.
[[nodiscard]] FaultPlan random_plan(const ChaosConfig& config);

}  // namespace volcast::fault
