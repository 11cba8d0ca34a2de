// Frames on their way to the client: a time-ordered queue of arrivals in
// the users' players, with a monotonic simulated clock. Deterministic
// ordering (FIFO among same-time arrivals) is the one property every
// experiment depends on.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <queue>
#include <vector>

#include "sim/player.h"

namespace volcast::sim {

/// Frame `frame` reaches user `user`'s player at `at` seconds: whole, or
/// lost on the way (`intact == false`), which leaves the player to conceal
/// or skip it.
struct Arrival {
  double at = 0.0;
  std::size_t user = 0;
  BufferedFrame frame;
  bool intact = true;
};

class ArrivalQueue {
 public:
  /// Queues `arrival` (its time must be >= now()). Throws
  /// std::invalid_argument for an arrival in the past.
  void push(const Arrival& arrival);

  /// Current simulated time.
  [[nodiscard]] double now() const noexcept { return now_; }

  /// Hands every arrival with time <= `until` to `land(const Arrival&)`,
  /// in time order and FIFO among equal times, with now() at the
  /// arrival's time; then advances the clock to `until`.
  template <class Land>
  void run_until(double until, Land&& land) {
    while (!arrivals_.empty() && arrivals_.top().arrival.at <= until) {
      const Arrival arrival = arrivals_.top().arrival;
      arrivals_.pop();
      now_ = arrival.at;
      land(arrival);
    }
    now_ = std::max(now_, until);
  }

 private:
  struct Entry {
    Arrival arrival;
    std::uint64_t seq;  // FIFO tie-break for simultaneous arrivals
  };
  struct Later {
    bool operator()(const Entry& a, const Entry& b) const noexcept {
      if (a.arrival.at != b.arrival.at) return a.arrival.at > b.arrival.at;
      return a.seq > b.seq;
    }
  };

  std::priority_queue<Entry, std::vector<Entry>, Later> arrivals_;
  double now_ = 0.0;
  std::uint64_t next_seq_ = 0;
};

}  // namespace volcast::sim
