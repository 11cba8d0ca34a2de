// Per-user health state machine and session-level recovery accounting.
//
// Under fault injection a user is never silently "broken": it is always in
// one of four explicit states —
//
//   healthy ──(low rate / impairment)──> degraded
//   healthy/degraded ──(no delivery path)──> outage
//   degraded/outage ──(good tick)──> recovering
//   recovering ──(N consecutive good ticks)──> healthy
//
// An *episode* opens when the user first leaves healthy and closes when it
// re-enters healthy; the episode length is that fault's time-to-recover.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

namespace volcast::fault {

enum class HealthState { kHealthy, kDegraded, kOutage, kRecovering };

/// Link rates below this (Mbps) count as degraded service.
inline constexpr double kDegradedRateMbps = 50.0;
/// Consecutive good ticks required to leave kRecovering.
inline constexpr std::size_t kRecoveryTicks = 3;

/// One user's health machine. Purely observational: it never changes the
/// session's behaviour, only classifies it.
class HealthMonitor {
 public:
  /// Feeds one tick. `delivering` = the user has a usable delivery path
  /// this tick (assigned AP up, present, nonzero rate); `impaired` = a
  /// non-outage fault is actively disturbing the user.
  HealthState observe(double t, bool delivering, double rate_mbps,
                      bool impaired);

  [[nodiscard]] HealthState state() const noexcept { return state_; }
  [[nodiscard]] std::size_t transitions() const noexcept {
    return transitions_;
  }
  /// Closed episodes: each value is one fault's time-to-recover in seconds.
  [[nodiscard]] const std::vector<double>& recovery_times() const noexcept {
    return recovery_times_;
  }

 private:
  void enter(HealthState next);

  HealthState state_ = HealthState::kHealthy;
  std::size_t transitions_ = 0;
  std::size_t good_ticks_ = 0;
  double episode_start_ = -1.0;
  std::vector<double> recovery_times_;
};

/// Recovery metrics of one session run, all zero when the plan was empty.
struct FaultReport {
  std::size_t faults_injected = 0;
  std::size_t recoveries = 0;              // closed health episodes
  double mean_time_to_recover_s = 0.0;
  double max_time_to_recover_s = 0.0;
  /// Player stall time accrued while at least one fault was active.
  double fault_rebuffer_s = 0.0;
  /// Multicast-eligible membership changes caused by churn / AP faults.
  std::size_t group_reformations = 0;
  std::size_t concealed_frames = 0;        // lost frames hidden by replay
  std::size_t skipped_frames = 0;          // lost frames nothing could hide
  std::size_t probe_retries = 0;           // failed beam probes re-attempted
  std::size_t fallback_stock_beams = 0;    // chain step: custom -> stock
  std::size_t fallback_reflection_beams = 0;  // chain step: stock -> NLoS
  std::size_t fallback_tier_drops = 0;     // chain step: last resort
  std::size_t degraded_user_ticks = 0;
  std::size_t unhealthy_user_ticks = 0;    // outage-state user ticks
  std::size_t health_transitions = 0;

  /// Multi-line human-readable recovery report.
  [[nodiscard]] std::string summary() const;
};

}  // namespace volcast::fault
