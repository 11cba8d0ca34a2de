#include "core/overload/admission.h"

#include <algorithm>
#include <stdexcept>

namespace volcast::core::overload {

void AdmissionConfig::validate() const {
  if (!enabled) return;
  if (capacity == 0)
    throw std::invalid_argument(
        "AdmissionConfig: capacity must be > 0 when admission is enabled");
  if (arrival_burst == 0)
    throw std::invalid_argument("AdmissionConfig: arrival_burst must be > 0");
}

std::uint64_t arrival_tick(const AdmissionConfig& config,
                           std::size_t slot) noexcept {
  const std::size_t burst = std::max<std::size_t>(config.arrival_burst, 1);
  return static_cast<std::uint64_t>(slot / burst) *
         config.arrival_spacing_ticks;
}

std::vector<AdmissionDecision> plan_admission(const AdmissionConfig& config,
                                              std::size_t slots,
                                              std::uint64_t hold_ticks) {
  std::vector<AdmissionDecision> decisions(slots);
  if (!config.enabled) {
    for (std::size_t k = 0; k < slots; ++k)
      decisions[k].arrival_tick = arrival_tick(config, k);
    return decisions;
  }
  const std::uint64_t hold = std::max<std::uint64_t>(hold_ticks, 1);
  // Release ticks of the sessions currently holding a capacity unit, kept
  // sorted ascending. Slots arrive in index order (the schedule is
  // nondecreasing in k), so one forward pass is the whole simulation.
  std::vector<std::uint64_t> active;
  // Start ticks of queued slots — a queued slot occupies a queue position
  // until its start tick.
  std::vector<std::uint64_t> queued_starts;
  for (std::size_t k = 0; k < slots; ++k) {
    AdmissionDecision& d = decisions[k];
    d.arrival_tick = arrival_tick(config, k);
    const std::uint64_t t = d.arrival_tick;
    // Retire sessions whose hold expired by this arrival.
    active.erase(std::remove_if(active.begin(), active.end(),
                                [t](std::uint64_t release) {
                                  return release <= t;
                                }),
                 active.end());
    if (active.size() < config.capacity) {
      d.outcome = AdmissionOutcome::kAdmitted;
      d.start_tick = t;
      d.wait_ticks = 0;
      active.push_back(t + hold);
      std::sort(active.begin(), active.end());
      continue;
    }
    const std::size_t waiting = static_cast<std::size_t>(std::count_if(
        queued_starts.begin(), queued_starts.end(),
        [t](std::uint64_t start) { return start > t; }));
    if (waiting >= config.queue_limit) {
      d.outcome = AdmissionOutcome::kDenied;
      d.start_tick = t;
      d.wait_ticks = 0;
      continue;
    }
    // FIFO: the queued slot takes the earliest release among the holders.
    d.outcome = AdmissionOutcome::kQueued;
    d.start_tick = active.front();
    d.wait_ticks = d.start_tick - t;
    active.erase(active.begin());
    active.push_back(d.start_tick + hold);
    std::sort(active.begin(), active.end());
    queued_starts.push_back(d.start_tick);
  }
  return decisions;
}

}  // namespace volcast::core::overload
