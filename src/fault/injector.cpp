#include "fault/injector.h"

#include <algorithm>
#include <bit>
#include <limits>

namespace volcast::fault {

namespace {

constexpr double kForever = std::numeric_limits<double>::infinity();

/// splitmix64 finalizer: decorrelates the (seed, user, tick) triple into an
/// independent uniform draw without any sequential RNG state.
std::uint64_t mix(std::uint64_t x) noexcept {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

}  // namespace

FaultInjector::FaultInjector(const FaultPlan& plan, std::size_t user_count,
                             std::size_t ap_count, std::uint64_t seed)
    : pending_(plan.events()),
      user_count_(user_count),
      ap_count_(ap_count),
      seed_(seed),
      ap_down_(ap_count, false),
      user_absent_(user_count, false),
      probe_fail_(user_count, false),
      sector_stuck_(user_count, false),
      stall_until_(user_count, 0.0),
      loss_p_(user_count, 0.0),
      burst_p_(user_count, 0.0) {}

std::size_t FaultInjector::advance(double t) {
  bool changed = false;
  std::size_t newly_fired = 0;
  while (next_ < pending_.size() && pending_[next_].t_s <= t) {
    const FaultEvent& e = pending_[next_++];
    ++newly_fired;
    if (e.kind == FaultKind::kSessionCrash) {
      // Instantaneous, never joins the active set. Whether the crash
      // actually happens is a pure draw from (seed, target, onset) against
      // the event's probability — deterministic per session seed, so a
      // supervised retry with a derived seed redraws it.
      const double p = e.magnitude > 0.0 ? e.magnitude : 1.0;
      const std::uint64_t h = mix(
          seed_ ^ 0xc4a5'0cf8'115e'55edULL ^
          mix(static_cast<std::uint64_t>(e.target) * 0x9e3779b97f4a7c15ULL ^
              std::bit_cast<std::uint64_t>(e.t_s)));
      const double u =
          static_cast<double>(h >> 11) * (1.0 / 9007199254740992.0);
      if (u < p && !crash_triggered_) {
        crash_triggered_ = true;
        crash_onset_ = e.t_s;
      }
      continue;
    }
    Active a;
    a.event = e;
    a.until = e.duration_s > 0.0 ? e.t_s + e.duration_s : kForever;
    active_.push_back(a);
    changed = true;
  }
  fired_ += newly_fired;
  const auto expired = std::remove_if(
      active_.begin(), active_.end(),
      [t](const Active& a) { return a.until <= t; });
  if (expired != active_.end()) {
    active_.erase(expired, active_.end());
    changed = true;
  }
  if (changed) rebuild_flags();
  active_count_ = active_.size();
  return newly_fired;
}

void FaultInjector::rebuild_flags() {
  std::fill(ap_down_.begin(), ap_down_.end(), false);
  std::fill(user_absent_.begin(), user_absent_.end(), false);
  std::fill(probe_fail_.begin(), probe_fail_.end(), false);
  std::fill(sector_stuck_.begin(), sector_stuck_.end(), false);
  std::fill(stall_until_.begin(), stall_until_.end(), 0.0);
  std::fill(loss_p_.begin(), loss_p_.end(), 0.0);
  std::fill(burst_p_.begin(), burst_p_.end(), 0.0);
  cpu_factor_ = 1.0;
  mem_factor_ = 1.0;
  obstacles_.clear();
  for (const Active& a : active_) {
    const FaultEvent& e = a.event;
    switch (e.kind) {
      case FaultKind::kApOutage:
        if (e.target < ap_count_) ap_down_[e.target] = true;
        break;
      case FaultKind::kUserLeave:
        if (e.target < user_count_) user_absent_[e.target] = true;
        break;
      case FaultKind::kBeamProbeFail:
        if (e.target < user_count_) probe_fail_[e.target] = true;
        break;
      case FaultKind::kStuckSector:
        if (e.target < user_count_) sector_stuck_[e.target] = true;
        break;
      case FaultKind::kDecoderStall:
        if (e.target < user_count_)
          stall_until_[e.target] = std::max(stall_until_[e.target], a.until);
        break;
      case FaultKind::kFrameLoss:
        if (e.target == kAllUsers) {
          for (double& p : loss_p_) p = std::max(p, e.magnitude);
        } else if (e.target < user_count_) {
          loss_p_[e.target] = std::max(loss_p_[e.target], e.magnitude);
        }
        break;
      case FaultKind::kObstacleSpawn: {
        geo::BodyObstacle obstacle;
        obstacle.position = e.position;
        obstacle.radius_m = e.magnitude > 0.0 ? e.magnitude : 0.4;
        obstacle.height_m = 2.0;
        obstacles_.push_back(obstacle);
        break;
      }
      case FaultKind::kBurstLoss:
        if (e.target == kAllUsers) {
          for (double& p : burst_p_) p = std::max(p, e.magnitude);
        } else if (e.target < user_count_) {
          burst_p_[e.target] = std::max(burst_p_[e.target], e.magnitude);
        }
        break;
      case FaultKind::kCpuPressure:
        cpu_factor_ = std::max(cpu_factor_, std::max(e.magnitude, 1.0));
        break;
      case FaultKind::kMemPressure:
        if (e.magnitude > 0.0)
          mem_factor_ = std::min(mem_factor_, std::min(e.magnitude, 1.0));
        break;
      case FaultKind::kSessionCrash:
        break;  // never enters the active set (handled in advance())
    }
  }
}

bool FaultInjector::ap_down(std::size_t ap) const {
  return ap < ap_count_ && ap_down_[ap];
}
bool FaultInjector::user_absent(std::size_t user) const {
  return user < user_count_ && user_absent_[user];
}
bool FaultInjector::probe_fail(std::size_t user) const {
  return user < user_count_ && probe_fail_[user];
}
bool FaultInjector::sector_stuck(std::size_t user) const {
  return user < user_count_ && sector_stuck_[user];
}
bool FaultInjector::decoder_stalled(std::size_t user) const {
  return user < user_count_ && stall_until_[user] > 0.0;
}
double FaultInjector::decoder_stall_until(std::size_t user) const {
  return user < user_count_ ? stall_until_[user] : 0.0;
}
double FaultInjector::frame_loss_probability(std::size_t user) const {
  return user < user_count_ ? loss_p_[user] : 0.0;
}
double FaultInjector::burst_loss_probability(std::size_t user) const {
  return user < user_count_ ? burst_p_[user] : 0.0;
}

bool FaultInjector::frame_lost(std::size_t user, std::size_t tick) const {
  const double p = frame_loss_probability(user);
  if (p <= 0.0) return false;
  const std::uint64_t h =
      mix(seed_ ^ mix(static_cast<std::uint64_t>(user) * 0x632be59bd9b4e019ULL ^
                      static_cast<std::uint64_t>(tick)));
  const double u =
      static_cast<double>(h >> 11) * (1.0 / 9007199254740992.0);  // [0, 1)
  return u < p;
}

}  // namespace volcast::fault
