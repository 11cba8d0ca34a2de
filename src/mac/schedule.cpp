#include "mac/schedule.h"

#include <algorithm>
#include <array>

#include "common/units.h"
#include "obs/metrics.h"

namespace volcast::mac {

double GroupPlan::transmit_time_s(const MacOverheads& overheads) const
    noexcept {
  return mac::transmit_time_s(
      members.size(), [this](std::size_t i) -> const UserDemand& {
        return members[i];
      },
      group_overlap_bits, multicast_rate_mbps, overheads);
}

double GroupPlan::unicast_time_s(const MacOverheads& overheads) const
    noexcept {
  return mac::unicast_time_s(
      members.size(), [this](std::size_t i) -> const UserDemand& {
        return members[i];
      },
      overheads);
}

double FrameSchedule::airtime_s(const MacOverheads& overheads) const
    noexcept {
  double t = 0.0;
  for (const GroupPlan& g : groups) t += g.transmit_time_s(overheads);
  return t;
}

bool FrameSchedule::feasible(double fps) const noexcept {
  return fps > 0.0 && airtime_s() <= 1.0 / fps;
}

double FrameSchedule::sustainable_fps(double cap_fps) const noexcept {
  const double t = airtime_s();
  if (t <= 0.0) return cap_fps;
  return std::min(cap_fps, 1.0 / t);
}

void observe_schedule(const FrameSchedule& schedule,
                      const MacOverheads& overheads,
                      obs::MetricRegistry& metrics) {
  // One frame interval at 30 FPS is 33.3 ms: the buckets bracket the
  // feasibility boundary T_m(k) <= 1/F the grouping optimizes against.
  static constexpr std::array<double, 7> kAirtimeMsBounds = {
      0.5, 1.0, 2.0, 5.0, 10.0, 20.0, 33.0};
  static constexpr std::array<double, 6> kGroupSizeBounds = {1.0, 2.0, 3.0,
                                                             4.0, 6.0, 8.0};
  obs::Counter& groups = metrics.counter("mac.groups");
  obs::Counter& multicast_groups = metrics.counter("mac.multicast_groups");
  obs::Counter& scheduled_users = metrics.counter("mac.scheduled_users");
  obs::Histogram& group_size =
      metrics.histogram("mac.group_size", kGroupSizeBounds);
  obs::Histogram& airtime_ms =
      metrics.histogram("mac.airtime_ms", kAirtimeMsBounds);
  obs::Histogram& saving_ms =
      metrics.histogram("mac.airtime_saving_ms", kAirtimeMsBounds);
  for (const GroupPlan& plan : schedule.groups) {
    groups.add();
    scheduled_users.add(plan.members.size());
    group_size.observe(static_cast<double>(plan.members.size()));
    airtime_ms.observe(plan.transmit_time_s(overheads) * 1e3);
    if (plan.members.size() > 1 && plan.multicast_rate_mbps > 0.0 &&
        plan.group_overlap_bits > 0.0) {
      multicast_groups.add();
      saving_ms.observe(std::max(plan.airtime_saving_s(), 0.0) * 1e3);
    }
  }
}

}  // namespace volcast::mac
