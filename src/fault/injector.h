// Time-indexed view of a FaultPlan: which faults are active *now*.
//
// The session calls advance(t) once per tick; every layer then queries the
// injector for its own disturbance (is my AP down? did this user's probe
// fail? is this frame lost?). All answers derive from the plan and the
// seed, never from wall-clock state, so runs reproduce exactly.
#pragma once

#include <cstdint>
#include <vector>

#include "fault/fault_plan.h"
#include "geometry/obstacle.h"

namespace volcast::fault {

class FaultInjector {
 public:
  /// `seed` drives the per-(user, tick) frame-loss draws only; the event
  /// timeline itself is fully determined by the plan.
  FaultInjector(const FaultPlan& plan, std::size_t user_count,
                std::size_t ap_count, std::uint64_t seed);

  /// Activates events with onset <= t and retires expired ones. Returns
  /// how many events newly fired during this call.
  std::size_t advance(double t);

  /// True while at least one fault is active.
  [[nodiscard]] bool any_active() const noexcept { return active_count_ > 0; }
  /// Total events fired so far.
  [[nodiscard]] std::size_t fired() const noexcept { return fired_; }

  /// True once a kSessionCrash event fired and its seeded draw passed.
  /// The session driver checks this right after advance() and aborts the
  /// run with fault::SessionCrashFault. Latched: stays true forever.
  [[nodiscard]] bool crash_triggered() const noexcept {
    return crash_triggered_;
  }
  /// Onset time of the triggering crash event (meaningful only when
  /// crash_triggered()).
  [[nodiscard]] double crash_onset_s() const noexcept { return crash_onset_; }

  [[nodiscard]] bool ap_down(std::size_t ap) const;
  [[nodiscard]] bool user_absent(std::size_t user) const;
  [[nodiscard]] bool probe_fail(std::size_t user) const;
  [[nodiscard]] bool sector_stuck(std::size_t user) const;
  [[nodiscard]] bool decoder_stalled(std::size_t user) const;
  /// Simulation time at which the user's active decoder stall ends
  /// (0 when no stall is active; infinity for a permanent stall).
  [[nodiscard]] double decoder_stall_until(std::size_t user) const;
  /// Active frame-loss probability for the user (max over active events).
  [[nodiscard]] double frame_loss_probability(std::size_t user) const;
  /// Active correlated burst-loss probability (kBurstLoss, max over active
  /// events): the bad-state packet-loss probability of the transport
  /// wire's Gilbert–Elliott chain. 0 when no burst fault is active.
  [[nodiscard]] double burst_loss_probability(std::size_t user) const;
  /// Deterministic per-(user, tick) loss draw against the active
  /// probability; false when no frame-loss fault is active.
  [[nodiscard]] bool frame_lost(std::size_t user, std::size_t tick) const;
  /// Logical compute-cost inflation from active kCpuPressure faults
  /// (max over active events; 1.0 when none). Read by the overload
  /// governor — wall-clock stays untouched, so results reproduce.
  [[nodiscard]] double cpu_pressure_factor() const noexcept {
    return cpu_factor_;
  }
  /// Logical encode working-set budget fraction from active kMemPressure
  /// faults (min over active events; 1.0 when none).
  [[nodiscard]] double mem_pressure_factor() const noexcept {
    return mem_factor_;
  }
  /// Obstacles spawned and still standing (room coordinates).
  [[nodiscard]] const std::vector<geo::BodyObstacle>& obstacles()
      const noexcept {
    return obstacles_;
  }

 private:
  struct Active {
    FaultEvent event;
    double until = 0.0;  // infinity for permanent faults
  };

  void rebuild_flags();

  std::vector<FaultEvent> pending_;  // sorted by onset; consumed in order
  std::size_t next_ = 0;
  std::vector<Active> active_;
  std::size_t active_count_ = 0;
  std::size_t fired_ = 0;
  std::size_t user_count_;
  std::size_t ap_count_;
  std::uint64_t seed_;
  bool crash_triggered_ = false;
  double crash_onset_ = 0.0;

  // Flags recomputed whenever the active set changes.
  std::vector<bool> ap_down_;
  std::vector<bool> user_absent_;
  std::vector<bool> probe_fail_;
  std::vector<bool> sector_stuck_;
  std::vector<double> stall_until_;
  std::vector<double> loss_p_;
  std::vector<double> burst_p_;
  double cpu_factor_ = 1.0;
  double mem_factor_ = 1.0;
  std::vector<geo::BodyObstacle> obstacles_;
};

}  // namespace volcast::fault
