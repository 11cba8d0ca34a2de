// Default sector-beam codebook.
//
// Commercial 802.11ad devices ship a fixed grid of single-lobe sector beams
// and pick the best one per station during beam training (SLS). The paper's
// Fig. 3b shows exactly why this codebook struggles with multicast: no
// single sector covers two separated users with high RSS. This class is
// that default codebook.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "mmwave/array_gains.h"
#include "mmwave/phased_array.h"

namespace volcast::mmwave {

/// Codebook grid parameters (relative to the array boresight).
struct CodebookConfig {
  double az_min_rad = -1.0471975511965976;  // -60 degrees
  double az_max_rad = 1.0471975511965976;   // +60 degrees
  std::size_t az_steps = 13;                // 10-degree sector pitch
  double el_min_rad = -0.6981317007977318;  // -40 degrees (AP looks down)
  double el_max_rad = 0.0;
  std::size_t el_steps = 3;
  /// Stock sector beams drive only a central subarray (0 = use the full
  /// array). Commercial codebooks trade peak gain for robust wide sectors;
  /// the paper's custom beams, by contrast, exploit the full aperture.
  unsigned subarray_ny = 4;
  unsigned subarray_nz = 2;
};

/// Grid of pre-steered sector AWVs with best-beam selection.
class Codebook {
 public:
  /// Builds the sector grid for `array`. Throws std::invalid_argument for a
  /// degenerate grid (zero steps).
  Codebook(const PhasedArray& array, const CodebookConfig& config = {});

  [[nodiscard]] std::size_t size() const noexcept { return beams_.size(); }
  [[nodiscard]] const Awv& beam(std::size_t index) const {
    return beams_.at(index);
  }
  [[nodiscard]] std::span<const Awv> beams() const noexcept { return beams_; }

  /// Index of the beam with the highest gain toward a world position
  /// (the outcome of per-station sector sweep training).
  [[nodiscard]] std::size_t best_beam_toward(const PhasedArray& array,
                                             const geo::Vec3& target) const;

  /// Index of the beam maximizing the *minimum* gain over several targets —
  /// the best the default codebook can do for a multicast group.
  [[nodiscard]] std::size_t best_common_beam(
      const PhasedArray& array, std::span<const geo::Vec3> targets) const;

  /// Writes every beam's gain toward one array response into `out`, in
  /// beam order: response.gain(beam(i)) at index i, in one array_gains
  /// pass. `out` must have size() entries (std::invalid_argument
  /// otherwise).
  void gains(const Steering& response, std::span<double> out) const;

 private:
  std::vector<Awv> beams_;
  LaneBlocks lanes_;  // beams_[i] is lane i
};

/// best_beam_toward's rule over `gains` (beam i's gain at index i): the
/// first index of the largest gain.
[[nodiscard]] std::size_t best_sector(std::span<const double> gains) noexcept;

/// best_common_beam's rule over per-target gain rows (`targets[t][i]` is
/// beam i's gain toward target t, each row `beam_count` long): the first
/// beam with the largest minimum gain over the targets; beam 0 for no
/// targets.
[[nodiscard]] std::size_t best_common_sector(
    std::span<const std::span<const double>> targets, std::size_t beam_count);

}  // namespace volcast::mmwave
