// Multi-AP coordination (paper Section 5, "Multiple APs Coordination").
//
// Several 802.11ad APs on the room walls serve disjoint multicast groups
// concurrently. Directionality gives spatial reuse, but multi-lobe beams
// can leak into another AP's clients, so the coordinator (a) assigns each
// user to the AP with the best unblocked RSS and (b) screens concurrent
// transmissions for cross-AP interference, degrading the victim's MCS when
// the signal-to-interference ratio is poor.
#pragma once

#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "core/testbed.h"
#include "mmwave/link.h"

namespace volcast::core {

/// Coordinator options.
struct MultiApConfig {
  std::size_t ap_count = 2;  // 1..4 (front, back, left, right walls)
  /// SIR below this means the victim falls back to the control PHY.
  double outage_sir_db = 3.0;
  /// SIR below this (but above outage) halves the victim's goodput.
  double degraded_sir_db = 10.0;
};

/// AP a's link table toward a fixed receiver list: a session's tick link
/// state (tick_links), or per-AP BeamDesigner::link_table()s toward the
/// caller's positions.
using ApLinks = std::function<mmwave::LinkTable&(std::size_t ap)>;

/// Owns one Testbed per AP (same room, different wall mounts).
class MultiApCoordinator {
 public:
  /// Builds `config.ap_count` testbeds derived from `base` (AP positions
  /// replaced by wall mounts). Throws std::invalid_argument for count 0 or
  /// > 4.
  MultiApCoordinator(const TestbedConfig& base, const MultiApConfig& config);

  [[nodiscard]] std::size_t ap_count() const noexcept { return aps_.size(); }
  [[nodiscard]] const Testbed& ap(std::size_t index) const {
    return *aps_.at(index);
  }
  [[nodiscard]] const MultiApConfig& config() const noexcept { return config_; }

  /// Assigns each of `users` users to the AP with the strongest unicast
  /// RSS. `links(a)` is AP a's table (its codebook bound, as
  /// BeamDesigner::link_table binds it), whose receivers 0..users-1 are
  /// the users. Each user's best sector comes from the table's cached
  /// sector gains and is priced with no bodies (an all-zero mask).
  ///
  /// APs with `available[a]` false are no candidates (fault tolerance: an
  /// AP in outage serves nobody); APs past the end of `available` are. When
  /// no AP is available every user keeps index 0; callers must treat a
  /// down AP's users as unserved. `evals` (optional) counts the exact RSS
  /// evaluations, as the tables' own calls do.
  [[nodiscard]] std::vector<std::size_t> assign_users(
      std::size_t users, const ApLinks& links,
      std::span<const bool> available, obs::Counter* evals = nullptr) const;

  /// Goodput multiplier in [0, 1] for receiver `victim` of the per-AP link
  /// tables (see assign_users), served by `victim_ap` with signal
  /// `victim_rss_dbm`, while every other AP transmits with the given beams
  /// (indexed by AP; empty AWVs are idle). Each leak is priced with no
  /// bodies; `evals` (optional) counts those evaluations.
  [[nodiscard]] double interference_factor(
      std::size_t victim_ap, std::size_t victim, double victim_rss_dbm,
      std::span<const mmwave::Awv> concurrent_beams, const ApLinks& links,
      obs::Counter* evals = nullptr) const;

 private:
  MultiApConfig config_;
  std::vector<std::unique_ptr<Testbed>> aps_;
};

}  // namespace volcast::core
