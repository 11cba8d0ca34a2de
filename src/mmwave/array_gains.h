// Array gains of one weight vector against many vectors in one pass.
//
// A link table prices one AWV against every path of a row, and a codebook
// prices one response against every stock sector. Both are
// |sum_i w_i v_i|^2 g over many vectors v of one length. LaneBlocks stores
// those vectors ("lanes") element-major in blocks of kLanes, so that
// array_gains() reads each weight once and advances every lane's sum with
// it (see DESIGN.md, "Tick link state"). A row's lanes are its paths'
// factored responses, written in place by PhasedArray::response; the
// table multiplies each path's gain by that path's cached budget at unit
// gain, K_p, and sums in mW, both for rss() and for rss_above()'s second
// screen, so the gains computed here are the only per-beam work of a
// price.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "mmwave/phased_array.h"

namespace volcast::mmwave {

/// Lanes per block: one cache-line pair of real parts and one of imaginary
/// parts per element.
inline constexpr std::size_t kLanes = 8;

/// Complex vectors of one length, in blocks of kLanes lanes. Block b holds,
/// for each element i in order, the real parts of element i of lanes
/// b*kLanes .. b*kLanes+7, then their imaginary parts. Slots past the last
/// lane of the final block are zero.
class LaneBlocks {
 public:
  LaneBlocks() = default;
  /// An empty set of vectors with `elements` entries each.
  explicit LaneBlocks(std::size_t elements) noexcept : elements_(elements) {}

  /// Drops every lane and sets the vector length to `elements`, keeping
  /// the block storage for the lanes pushed next.
  void reset(std::size_t elements) noexcept;

  /// Appends `values` as the next lane. Throws std::invalid_argument unless
  /// it has elements() entries.
  void push_back(std::span<const Complex> values);

  /// Appends a zero lane and returns where its elements are written (see
  /// PhasedArray::response). The sink stays valid until the next append.
  [[nodiscard]] PhasorSink push_lane();

  [[nodiscard]] std::size_t elements() const noexcept { return elements_; }
  [[nodiscard]] std::size_t lanes() const noexcept { return lanes_; }
  /// Writes lane `lane`'s vector, as pushed, into `out`, reusing its
  /// storage. Throws std::out_of_range for a lane that does not exist.
  void lane(std::size_t lane, std::vector<Complex>& out) const;
  /// The blocks: ceil(lanes() / kLanes) * elements() * 2 * kLanes doubles.
  [[nodiscard]] std::span<const double> data() const noexcept { return data_; }

 private:
  std::size_t elements_ = 0;
  std::size_t lanes_ = 0;
  std::vector<double> data_;
};

/// Writes out[l] = |sum_i w_i v_i|^2 g for every lane v (lane l of `lanes`),
/// with g = gains[l], or gains[0] for every lane when `gains` has one
/// entry; 0 in every lane when `w` does not have lanes.elements() entries.
/// For finite inputs that do not overflow, out[l] is bit for bit what
/// Steering{v, g}.gain(w) returns, and (the product commutes) what
/// Steering{w, g}.gain(v) returns. Throws std::invalid_argument unless
/// `out` has one entry per lane and `gains` one or one per lane.
void array_gains(std::span<const Complex> w, const LaneBlocks& lanes,
                 std::span<const double> gains, std::span<double> out);

}  // namespace volcast::mmwave
