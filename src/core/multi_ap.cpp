#include "core/multi_ap.h"

#include <algorithm>
#include <cstdint>
#include <limits>
#include <stdexcept>

namespace volcast::core {

MultiApCoordinator::MultiApCoordinator(const TestbedConfig& base,
                                       const MultiApConfig& config)
    : config_(config) {
  if (config.ap_count == 0 || config.ap_count > 4)
    throw std::invalid_argument("MultiApCoordinator: ap_count must be 1..4");
  const double w = base.room.width_m;
  const double l = base.room.length_m;
  const double z = base.ap_position.z;
  // Order matters: the second AP goes on a side wall, which keeps a
  // moderate distance to an audience anywhere in the room (the wall
  // opposite the primary AP would sit on top of a far-side audience).
  const geo::Vec3 mounts[4] = {
      {w * 0.5, 0.1, z},      // front wall (primary)
      {w - 0.1, l * 0.5, z},  // right wall
      {0.1, l * 0.5, z},      // left wall
      {w * 0.5, l - 0.1, z},  // back wall
  };
  for (std::size_t i = 0; i < config.ap_count; ++i) {
    TestbedConfig derived = base;
    derived.ap_position = mounts[i];
    aps_.push_back(std::make_unique<Testbed>(derived));
  }
}

std::vector<std::size_t> MultiApCoordinator::assign_users(
    std::size_t users, const ApLinks& links,
    std::span<const bool> available, obs::Counter* evals) const {
  std::vector<std::size_t> assignment;
  assignment.reserve(users);
  for (std::size_t u = 0; u < users; ++u) {
    std::size_t best_ap = 0;
    double best_rss = -std::numeric_limits<double>::infinity();
    for (std::size_t a = 0; a < aps_.size(); ++a) {
      if (a < available.size() && !available[a]) continue;
      mmwave::LinkTable& table = links(a);
      const std::vector<std::uint8_t> no_bodies(table.body_count(), 0);
      const double rss =
          table.sector_rss(table.best_sector(u), u, no_bodies, evals);
      if (rss > best_rss) {
        best_rss = rss;
        best_ap = a;
      }
    }
    assignment.push_back(best_ap);
  }
  return assignment;
}

double MultiApCoordinator::interference_factor(
    std::size_t victim_ap, std::size_t victim, double victim_rss_dbm,
    std::span<const mmwave::Awv> concurrent_beams, const ApLinks& links,
    obs::Counter* evals) const {
  double strongest_interference = -std::numeric_limits<double>::infinity();
  for (std::size_t a = 0; a < aps_.size() && a < concurrent_beams.size();
       ++a) {
    if (a == victim_ap || concurrent_beams[a].empty()) continue;
    mmwave::LinkTable& table = links(a);
    const std::vector<std::uint8_t> no_bodies(table.body_count(), 0);
    const double leak =
        table.rss(concurrent_beams[a], victim, no_bodies, evals);
    strongest_interference = std::max(strongest_interference, leak);
  }
  if (strongest_interference ==
      -std::numeric_limits<double>::infinity())
    return 1.0;
  const double sir = victim_rss_dbm - strongest_interference;
  if (sir < config_.outage_sir_db) return 0.0;
  if (sir < config_.degraded_sir_db) return 0.5;
  return 1.0;
}

}  // namespace volcast::core
