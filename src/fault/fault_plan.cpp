#include "fault/fault_plan.h"

#include <algorithm>
#include <sstream>
#include <stdexcept>

#include "common/rng.h"

namespace volcast::fault {

const char* to_string(FaultKind kind) noexcept {
  switch (kind) {
    case FaultKind::kApOutage: return "ap-outage";
    case FaultKind::kUserLeave: return "user-leave";
    case FaultKind::kObstacleSpawn: return "obstacle-spawn";
    case FaultKind::kBeamProbeFail: return "beam-probe-fail";
    case FaultKind::kStuckSector: return "stuck-sector";
    case FaultKind::kFrameLoss: return "frame-loss";
    case FaultKind::kDecoderStall: return "decoder-stall";
    case FaultKind::kSessionCrash: return "session-crash";
    case FaultKind::kBurstLoss: return "burst-loss";
    case FaultKind::kCpuPressure: return "cpu-pressure";
    case FaultKind::kMemPressure: return "mem-pressure";
  }
  return "unknown";
}

void FaultPlan::add(const FaultEvent& event) {
  const auto at = std::upper_bound(
      events_.begin(), events_.end(), event,
      [](const FaultEvent& a, const FaultEvent& b) { return a.t_s < b.t_s; });
  events_.insert(at, event);
}

void FaultPlan::validate(std::size_t user_count, std::size_t ap_count) const {
  for (std::size_t i = 0; i < events_.size(); ++i) {
    const FaultEvent& e = events_[i];
    const std::string where =
        "FaultPlan event " + std::to_string(i) + " (" + to_string(e.kind) +
        "): ";
    if (!(e.t_s >= 0.0))
      throw std::invalid_argument(where + "onset must be >= 0");
    switch (e.kind) {
      case FaultKind::kApOutage:
        if (e.target >= ap_count)
          throw std::invalid_argument(where + "AP index out of range");
        break;
      case FaultKind::kFrameLoss:
      case FaultKind::kBurstLoss:
        if (e.target != kAllUsers && e.target >= user_count)
          throw std::invalid_argument(where + "user index out of range");
        if (e.magnitude < 0.0 || e.magnitude > 1.0)
          throw std::invalid_argument(
              where + "loss probability must be in [0, 1]");
        break;
      case FaultKind::kObstacleSpawn:
        if (e.magnitude < 0.0)
          throw std::invalid_argument(where + "obstacle radius must be >= 0");
        break;
      case FaultKind::kSessionCrash:
        // `target` is a free draw salt, not a user index.
        if (e.magnitude < 0.0 || e.magnitude > 1.0)
          throw std::invalid_argument(
              where + "crash probability must be in [0, 1]");
        break;
      case FaultKind::kCpuPressure:
        // Whole-server pressure: `target` is unused.
        if (!(e.magnitude >= 1.0))
          throw std::invalid_argument(
              where + "cpu cost inflation factor must be >= 1");
        break;
      case FaultKind::kMemPressure:
        if (!(e.magnitude > 0.0) || e.magnitude > 1.0)
          throw std::invalid_argument(
              where + "memory budget fraction must be in (0, 1]");
        break;
      case FaultKind::kUserLeave:
      case FaultKind::kBeamProbeFail:
      case FaultKind::kStuckSector:
      case FaultKind::kDecoderStall:
        if (e.target >= user_count)
          throw std::invalid_argument(where + "user index out of range");
        break;
    }
  }
}

std::string FaultPlan::summary() const {
  std::ostringstream out;
  out << "fault plan: " << events_.size() << " event(s)\n";
  for (const FaultEvent& e : events_) {
    out << "  t=" << e.t_s << "s " << to_string(e.kind);
    if ((e.kind == FaultKind::kFrameLoss ||
         e.kind == FaultKind::kBurstLoss) &&
        e.target == kAllUsers) {
      out << " target=all";
    } else {
      out << " target=" << e.target;
    }
    if (e.duration_s > 0.0) {
      out << " for " << e.duration_s << "s";
    } else {
      out << " (permanent)";
    }
    if (e.kind == FaultKind::kFrameLoss || e.kind == FaultKind::kBurstLoss)
      out << " p=" << e.magnitude;
    if (e.kind == FaultKind::kSessionCrash)
      out << " p=" << (e.magnitude > 0.0 ? e.magnitude : 1.0);
    if (e.kind == FaultKind::kCpuPressure) out << " x" << e.magnitude;
    if (e.kind == FaultKind::kMemPressure) out << " frac=" << e.magnitude;
    if (e.kind == FaultKind::kObstacleSpawn)
      out << " at (" << e.position.x << ", " << e.position.y << ")";
    out << "\n";
  }
  return out.str();
}

FaultPlan random_plan(const ChaosConfig& config) {
  FaultPlan plan;
  Rng rng(config.seed ^ 0xfa017ULL);
  const double rate = std::max(config.intensity, 1e-3);
  // Leave a head start so the session establishes itself, and a tail so
  // there is always room to observe recovery.
  const double start = std::min(0.5, config.duration_s * 0.1);
  const double end = config.duration_s * 0.9;
  double t = start + rng.exponential(rate);
  while (t < end) {
    FaultEvent e;
    e.t_s = t;
    // Weighted kind choice: link/user level faults are the common case,
    // AP outages need a second AP to be survivable.
    const int max_kind = config.ap_count > 1 ? 6 : 5;
    const auto pick = rng.uniform_int(0, max_kind);
    switch (pick) {
      case 0: e.kind = FaultKind::kUserLeave; break;
      case 1: e.kind = FaultKind::kObstacleSpawn; break;
      case 2: e.kind = FaultKind::kBeamProbeFail; break;
      case 3: e.kind = FaultKind::kStuckSector; break;
      case 4: e.kind = FaultKind::kFrameLoss; break;
      case 5: e.kind = FaultKind::kDecoderStall; break;
      default: e.kind = FaultKind::kApOutage; break;
    }
    e.duration_s = rng.uniform(0.3, 1.5);
    switch (e.kind) {
      case FaultKind::kApOutage:
        e.target = static_cast<std::size_t>(rng.uniform_int(
            0, static_cast<std::int64_t>(config.ap_count) - 1));
        break;
      case FaultKind::kFrameLoss:
        e.target = rng.chance(0.3)
                       ? kAllUsers
                       : static_cast<std::size_t>(rng.uniform_int(
                             0,
                             static_cast<std::int64_t>(config.user_count) - 1));
        e.magnitude = rng.uniform(0.1, 0.6);
        break;
      case FaultKind::kObstacleSpawn:
        e.magnitude = rng.uniform(0.2, 0.6);
        // Somewhere in the half of the room between the front-wall AP and
        // the mid-room content, where it can actually shadow links.
        e.position = {rng.uniform(1.5, 6.5), rng.uniform(0.5, 3.0), 0.0};
        break;
      default:
        e.target = static_cast<std::size_t>(rng.uniform_int(
            0, static_cast<std::int64_t>(config.user_count) - 1));
        break;
    }
    plan.add(e);
    t += rng.exponential(rate);
  }
  if (plan.empty()) {
    // Intensity so low nothing fired: inject one representative fault so
    // --chaos always exercises the machinery.
    FaultEvent e;
    e.t_s = start;
    e.kind = FaultKind::kBeamProbeFail;
    e.target = 0;
    e.duration_s = std::max(0.5, config.duration_s * 0.25);
    plan.add(e);
  }
  if (config.crash_probability > 0.0) {
    // Separate stream: plans with crash_probability == 0 stay byte-for-byte
    // what this generator produced before the crash-fault class existed.
    Rng crash_rng(config.seed ^ 0xc4a5ULL);
    FaultEvent e;
    e.kind = FaultKind::kSessionCrash;
    e.t_s = start + crash_rng.uniform(0.0, std::max(end - start, 1e-3));
    e.target = static_cast<std::size_t>(crash_rng.uniform_int(0, 1023));
    e.magnitude = std::min(config.crash_probability, 1.0);
    plan.add(e);
  }
  if (config.burst_loss_probability > 0.0) {
    // Separate stream again: plans with the knob off keep their exact
    // pre-burst-loss bytes. Two correlated-loss windows covering all users
    // — short enough to recover from, long enough to span many trains.
    Rng burst_rng(config.seed ^ 0xb1257ULL);
    for (int i = 0; i < 2; ++i) {
      FaultEvent e;
      e.kind = FaultKind::kBurstLoss;
      e.target = kAllUsers;
      e.t_s = start + burst_rng.uniform(0.0, std::max(end - start, 1e-3));
      e.duration_s = burst_rng.uniform(0.5, 1.5);
      e.magnitude = std::min(config.burst_loss_probability, 1.0);
      plan.add(e);
    }
  }
  if (config.cpu_pressure > 1.0) {
    // Resource-pressure faults: separate streams per class, so legacy
    // plans (knobs off) keep their exact bytes. One sustained compute
    // squeeze in mid-session — long enough for the brownout state machine
    // to escalate, with a tail to observe recovery to green.
    Rng cpu_rng(config.seed ^ 0xc9a7ULL);
    FaultEvent e;
    e.kind = FaultKind::kCpuPressure;
    e.t_s = start + cpu_rng.uniform(0.0, std::max((end - start) * 0.5, 1e-3));
    e.duration_s = cpu_rng.uniform(0.25, 0.5) * config.duration_s;
    e.magnitude = config.cpu_pressure;
    plan.add(e);
  }
  if (config.mem_pressure > 0.0 && config.mem_pressure < 1.0) {
    Rng mem_rng(config.seed ^ 0x3e3bULL);
    FaultEvent e;
    e.kind = FaultKind::kMemPressure;
    e.t_s = start + mem_rng.uniform(0.0, std::max((end - start) * 0.5, 1e-3));
    e.duration_s = mem_rng.uniform(0.25, 0.5) * config.duration_s;
    e.magnitude = config.mem_pressure;
    plan.add(e);
  }
  return plan;
}

}  // namespace volcast::fault
