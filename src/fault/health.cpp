#include "fault/health.h"

#include <sstream>

namespace volcast::fault {

void HealthMonitor::enter(HealthState next) {
  if (next == state_) return;
  state_ = next;
  ++transitions_;
}

HealthState HealthMonitor::observe(double t, bool delivering,
                                   double rate_mbps, bool impaired) {
  const bool good =
      delivering && !impaired && rate_mbps >= kDegradedRateMbps;
  if (!delivering) {
    if (episode_start_ < 0.0) episode_start_ = t;
    good_ticks_ = 0;
    enter(HealthState::kOutage);
    return state_;
  }
  if (!good) {
    if (episode_start_ < 0.0) episode_start_ = t;
    good_ticks_ = 0;
    enter(HealthState::kDegraded);
    return state_;
  }
  // Good tick.
  if (state_ == HealthState::kHealthy) return state_;
  enter(HealthState::kRecovering);
  if (++good_ticks_ >= kRecoveryTicks) {
    if (episode_start_ >= 0.0) {
      recovery_times_.push_back(t - episode_start_);
      episode_start_ = -1.0;
    }
    good_ticks_ = 0;
    enter(HealthState::kHealthy);
  }
  return state_;
}

std::string FaultReport::summary() const {
  std::ostringstream out;
  out << "recovery report\n";
  out << "  faults injected        " << faults_injected << "\n";
  out << "  recoveries             " << recoveries << " (mean ttr "
      << mean_time_to_recover_s << " s, max " << max_time_to_recover_s
      << " s)\n";
  out << "  fault rebuffer         " << fault_rebuffer_s << " s\n";
  out << "  group reformations     " << group_reformations << "\n";
  out << "  concealed frames       " << concealed_frames << " (skipped "
      << skipped_frames << ")\n";
  out << "  probe retries          " << probe_retries << "\n";
  out << "  fallback beams         stock " << fallback_stock_beams
      << ", reflection " << fallback_reflection_beams << ", tier drops "
      << fallback_tier_drops << "\n";
  out << "  degraded user-ticks    " << degraded_user_ticks << "\n";
  out << "  outage user-ticks      " << unhealthy_user_ticks << "\n";
  out << "  health transitions     " << health_transitions << "\n";
  return out.str();
}

}  // namespace volcast::fault
