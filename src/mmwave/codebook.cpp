#include "mmwave/codebook.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

namespace volcast::mmwave {

namespace {

/// Zeroes the weights of elements outside a centered ny x nz window and
/// re-normalizes — the "wide sector" taper of stock codebooks.
Awv apply_subarray(Awv w, const ArrayGeometry& geometry, unsigned sub_ny,
                   unsigned sub_nz) {
  if (sub_ny == 0 || sub_ny >= geometry.ny) sub_ny = geometry.ny;
  if (sub_nz == 0 || sub_nz >= geometry.nz) sub_nz = geometry.nz;
  if (sub_ny == geometry.ny && sub_nz == geometry.nz) return w;
  const unsigned y_lo = (geometry.ny - sub_ny) / 2;
  const unsigned z_lo = (geometry.nz - sub_nz) / 2;
  for (unsigned iz = 0; iz < geometry.nz; ++iz) {
    for (unsigned iy = 0; iy < geometry.ny; ++iy) {
      const bool inside = iy >= y_lo && iy < y_lo + sub_ny && iz >= z_lo &&
                          iz < z_lo + sub_nz;
      if (!inside) w[iz * geometry.ny + iy] = Complex{0.0, 0.0};
    }
  }
  power_normalize(w);
  return w;
}

}  // namespace

Codebook::Codebook(const PhasedArray& array, const CodebookConfig& config)
    : lanes_(array.element_count()) {
  if (config.az_steps == 0 || config.el_steps == 0)
    throw std::invalid_argument("Codebook: zero grid steps");
  beams_.reserve(config.az_steps * config.el_steps);
  for (std::size_t ie = 0; ie < config.el_steps; ++ie) {
    const double el =
        config.el_steps == 1
            ? 0.5 * (config.el_min_rad + config.el_max_rad)
            : config.el_min_rad + (config.el_max_rad - config.el_min_rad) *
                                      static_cast<double>(ie) /
                                      static_cast<double>(config.el_steps - 1);
    for (std::size_t ia = 0; ia < config.az_steps; ++ia) {
      const double az =
          config.az_steps == 1
              ? 0.5 * (config.az_min_rad + config.az_max_rad)
              : config.az_min_rad +
                    (config.az_max_rad - config.az_min_rad) *
                        static_cast<double>(ia) /
                        static_cast<double>(config.az_steps - 1);
      // Local direction (x forward, y left, z up) for the sector center.
      const geo::Vec3 local{std::cos(el) * std::cos(az),
                            std::cos(el) * std::sin(az), std::sin(el)};
      const geo::Pose& pose = array.pose();
      const geo::Vec3 world = pose.forward() * local.x +
                              pose.left() * local.y + pose.up() * local.z;
      beams_.push_back(apply_subarray(array.steer(world), array.geometry(),
                                      config.subarray_ny, config.subarray_nz));
      lanes_.push_back(beams_.back());
    }
  }
}

void Codebook::gains(const Steering& response, std::span<double> out) const {
  array_gains(response.phasors, lanes_,
              std::span<const double>(&response.element_gain, 1), out);
}

std::size_t Codebook::best_beam_toward(const PhasedArray& array,
                                       const geo::Vec3& target) const {
  std::vector<double> row(beams_.size());
  gains(array.steering(target - array.pose().position), row);
  return best_sector(row);
}

std::size_t Codebook::best_common_beam(
    const PhasedArray& array, std::span<const geo::Vec3> targets) const {
  std::vector<std::vector<double>> rows;
  rows.reserve(targets.size());
  for (const geo::Vec3& t : targets) {
    gains(array.steering(t - array.pose().position),
          rows.emplace_back(beams_.size()));
  }
  const std::vector<std::span<const double>> views(rows.begin(), rows.end());
  return best_common_sector(views, beams_.size());
}

std::size_t best_sector(std::span<const double> gains) noexcept {
  std::size_t best = 0;
  double best_gain = -1.0;
  for (std::size_t i = 0; i < gains.size(); ++i) {
    if (gains[i] > best_gain) {
      best_gain = gains[i];
      best = i;
    }
  }
  return best;
}

std::size_t best_common_sector(
    std::span<const std::span<const double>> targets,
    std::size_t beam_count) {
  std::size_t best = 0;
  double best_min = -1.0;
  for (std::size_t i = 0; i < beam_count; ++i) {
    double min_gain = std::numeric_limits<double>::infinity();
    for (const std::span<const double> t : targets)
      min_gain = std::min(min_gain, t[i]);
    if (targets.empty()) min_gain = 0.0;
    if (min_gain > best_min) {
      best_min = min_gain;
      best = i;
    }
  }
  return best;
}

}  // namespace volcast::mmwave
