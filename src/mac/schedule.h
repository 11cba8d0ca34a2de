// MAC-layer transmission accounting for mixed multicast/unicast delivery of
// one volumetric frame (paper Section 4.2).
//
// The central quantity is the paper's group transmit-time estimate
//   T_m(k) = S_m(k) / r_m  +  sum_i (S_i - S_m(k)) / r_i
// where S_m is the size of the group's overlapped cells, r_m the multicast
// rate (bounded by the lowest common MCS), and S_i / r_i each member's
// total requested size and unicast rate. A grouping is feasible when
// T_m(k) <= 1/F for the target frame rate F.
#pragma once

#include <algorithm>
#include <cstddef>
#include <vector>

#include "common/units.h"

namespace volcast::obs {
class MetricRegistry;
}  // namespace volcast::obs

namespace volcast::mac {

/// One user's traffic demand and link quality within a frame interval.
struct UserDemand {
  std::size_t user = 0;
  double total_bits = 0.0;         // S_i: everything the user needs
  double overlap_bits = 0.0;       // portion shared with the user's group
  double unicast_rate_mbps = 0.0;  // r_i under the user's own best beam
};

/// Fixed per-burst MAC costs: PHY preamble + MAC headers + block-ack per
/// transmission burst, and the AWV reload when the AP switches beams
/// between bursts. Small individually, they matter once a frame interval
/// carries one multicast burst plus a residual burst per member.
struct MacOverheads {
  double per_transmission_s = 80e-6;
  double per_beam_switch_s = 10e-6;

  [[nodiscard]] double per_burst_s() const noexcept {
    return per_transmission_s + per_beam_switch_s;
  }
};

/// GroupPlan::unicast_time_s over `count` members, member i's demand
/// being demand(i) (anything with total_bits and unicast_rate_mbps): the
/// plan's own arithmetic, for callers that time member lists without
/// building a plan.
template <class Demand>
[[nodiscard]] double unicast_time_s(std::size_t count, const Demand& demand,
                                    const MacOverheads& overheads) noexcept {
  double t = 0.0;
  for (std::size_t i = 0; i < count; ++i) {
    const auto& m = demand(i);
    if (m.unicast_rate_mbps > 0.0) {
      t += tx_time_s(m.total_bits, m.unicast_rate_mbps) +
           overheads.per_burst_s();
    } else if (m.total_bits > 0.0) {
      return 1e9;
    }
  }
  return t;
}

/// GroupPlan::transmit_time_s over `count` members (see unicast_time_s
/// above) with the group's overlap bits and multicast rate.
template <class Demand>
[[nodiscard]] double transmit_time_s(std::size_t count, const Demand& demand,
                                     double group_overlap_bits,
                                     double multicast_rate_mbps,
                                     const MacOverheads& overheads) noexcept {
  if (count == 0) return 0.0;
  if (count == 1 || multicast_rate_mbps <= 0.0 || group_overlap_bits <= 0.0)
    return unicast_time_s(count, demand, overheads);
  // One multicast burst plus one residual unicast burst per member with a
  // residual to deliver.
  double t = tx_time_s(group_overlap_bits, multicast_rate_mbps) +
             overheads.per_burst_s();
  for (std::size_t i = 0; i < count; ++i) {
    const auto& m = demand(i);
    const double residual = std::max(m.total_bits - group_overlap_bits, 0.0);
    if (m.unicast_rate_mbps > 0.0) {
      if (residual > 0.0)
        t += tx_time_s(residual, m.unicast_rate_mbps) +
             overheads.per_burst_s();
    } else if (residual > 0.0) {
      return 1e9;  // undeliverable residual: infeasible plan
    }
  }
  return t;
}

/// A multicast group's planned transmission.
struct GroupPlan {
  std::vector<UserDemand> members;
  double multicast_rate_mbps = 0.0;  // r_m: lowest common MCS under the beam
  double group_overlap_bits = 0.0;   // S_m(k)

  /// The paper's T_m(k). Degenerates to pure unicast time when the group
  /// has one member or no multicast rate. `overheads` adds the per-burst
  /// MAC costs (default: ideal MAC, pure transmission time).
  [[nodiscard]] double transmit_time_s(
      const MacOverheads& overheads = {0.0, 0.0}) const noexcept;

  /// Pure-unicast time for the same members (the baseline T_m compares to).
  [[nodiscard]] double unicast_time_s(
      const MacOverheads& overheads = {0.0, 0.0}) const noexcept;

  /// Airtime saved by multicasting (unicast - multicast, >= 0 when the
  /// grouping pays off; negative when multicast is a net loss).
  [[nodiscard]] double airtime_saving_s() const noexcept {
    return unicast_time_s() - transmit_time_s();
  }
};

/// A full frame-interval schedule: disjoint groups (singletons = unicast).
struct FrameSchedule {
  std::vector<GroupPlan> groups;

  /// Sequential TDMA airtime of the whole schedule.
  [[nodiscard]] double airtime_s(
      const MacOverheads& overheads = {0.0, 0.0}) const noexcept;

  /// True when the schedule fits a frame interval at `fps`.
  [[nodiscard]] bool feasible(double fps) const noexcept;

  /// The frame rate this schedule can sustain (1 / airtime, capped).
  [[nodiscard]] double sustainable_fps(double cap_fps = 30.0) const noexcept;
};

/// Telemetry hook: records one frame schedule into `metrics` — group /
/// multicast-group / scheduled-user counters, a group-size histogram, and
/// airtime + airtime-saving histograms (milliseconds). Serial-only (it
/// creates metrics on first use); call once per AP per tick.
void observe_schedule(const FrameSchedule& schedule,
                      const MacOverheads& overheads,
                      obs::MetricRegistry& metrics);

}  // namespace volcast::mac
