// Indoor 60 GHz propagation: deterministic image-method ray tracing in a
// rectangular room (LoS + first-order reflections off the four walls,
// ceiling and floor) plus a human-body blockage model with partial
// degradation levels.
//
// This substitutes for the commercial Remcom Wireless InSite ray tracer the
// paper used for its Fig. 3d study — what the custom-beam experiments need
// is direction-resolved multipath with plausible 60 GHz magnitudes, which
// first-order image theory in a room provides.
#pragma once

#include <array>
#include <span>
#include <vector>

#include "geometry/obstacle.h"
#include "geometry/vec3.h"

namespace volcast::mmwave {

/// Rectangular room [0,w] x [0,l] x [0,h] with uniform wall reflectivity.
struct Room {
  double width_m = 8.0;   // x extent
  double length_m = 6.0;  // y extent
  double height_m = 3.0;  // z extent
  /// Power reflection loss per wall bounce at 60 GHz (plasterboard ~10 dB).
  double reflection_loss_db = 10.0;
  bool enable_reflections = true;
  /// Image-method depth: 1 = single bounces (six surfaces), 2 = adds all
  /// ordered double bounces (wall-wall, wall-ceiling, ...). Second-order
  /// paths carry two reflection losses (~-20 dB) — negligible for RSS sums
  /// but useful when hunting alternate routes around a blocker.
  int max_reflection_order = 1;
};

/// One propagation path from transmitter to receiver.
struct Path {
  geo::Vec3 tx_direction{};   // unit vector leaving the transmitter
  double length_m = 0.0;      // total travelled distance
  double extra_loss_db = 0.0; // reflection + blockage losses
  bool line_of_sight = true;
  int bounces = 0;            // 0 for LoS
  geo::Vec3 bounce_point{};   // first bounce, valid when !line_of_sight
};

/// A path's geometry before blockage: `path.extra_loss_db` holds only the
/// reflection losses, and `vertices[0 .. path.bounces + 1]` is the polyline
/// transmitter, bounce points, receiver whose segments bodies can shadow.
struct TracedPath {
  Path path;
  std::array<geo::Vec3, 4> vertices{};

  [[nodiscard]] std::size_t segment_count() const noexcept {
    return static_cast<std::size_t>(path.bounces) + 1;
  }
};

/// Human blockage with partial degradation (paper Section 5: "blockage does
/// not always cause link outage"): loss ramps from 0 dB at `clearance_m`
/// XY clearance down to `max_loss_db` for a dead-center crossing.
struct BlockageModel {
  double max_loss_db = 20.0;  // torso dead-center at 60 GHz
  double clearance_m = 0.35;  // Fresnel-padded body radius

  /// Loss in dB for a segment a->b against one body.
  [[nodiscard]] double segment_loss_db(const geo::Vec3& a, const geo::Vec3& b,
                                       const geo::BodyObstacle& body) const
      noexcept;

  /// Total loss for a segment against many bodies (losses add in dB:
  /// successive independent shadowing screens).
  [[nodiscard]] double segment_loss_db(
      const geo::Vec3& a, const geo::Vec3& b,
      std::span<const geo::BodyObstacle> bodies) const noexcept;
};

/// A conservative screen in front of BlockageModel::segment_loss_db for one
/// segment a->b: out_of_reach(center) is true only when a body whose axis
/// stands at `center` lies provably farther than `clearance_m` from the
/// segment in XY, where segment_loss_db returns exactly 0. It tests the
/// segment's XY bounding box grown by the reach, then the distance to the
/// segment's XY line, the reach being clearance_m + kSlackM.
///
/// The slack covers rounding. Every difference and product here and in
/// geo::segment_body_clearance is correctly rounded, so within the guard
/// (|x|, |y| <= kCoordLimitM for a, b and center, 0 <= clearance_m <=
/// kCoordLimitM) each computed distance is off by at most about 1e-11 m,
/// a hundredth of the slack. Outside the guard, and for a NaN anywhere,
/// nothing is out of reach and every body is priced exactly.
class SegmentReach {
 public:
  static constexpr double kSlackM = 1e-9;
  static constexpr double kCoordLimitM = 1e4;

  SegmentReach(const geo::Vec3& a, const geo::Vec3& b,
               double clearance_m) noexcept;

  [[nodiscard]] bool out_of_reach(const geo::Vec3& center) const noexcept;

 private:
  bool active_;
  double ax_, ay_, abx_, aby_;
  double lo_x_, hi_x_, lo_y_, hi_y_;
  double reach_len_sq_;  // (reach * |ab|)^2 in XY
};

/// Deterministic multipath channel in a room.
class Channel {
 public:
  explicit Channel(const Room& room, double carrier_hz = 60.48e9);

  [[nodiscard]] const Room& room() const noexcept { return room_; }
  [[nodiscard]] double carrier_hz() const noexcept { return carrier_hz_; }

  /// All propagation paths between two points, with body blockage applied
  /// per path segment. The LoS path is always first.
  [[nodiscard]] std::vector<Path> paths(
      const geo::Vec3& tx, const geo::Vec3& rx,
      std::span<const geo::BodyObstacle> bodies = {},
      const BlockageModel& blockage = {}) const;

  /// Writes the same paths before blockage, with their segment polylines,
  /// into `out` (cleared first), reusing its storage. paths() is trace()
  /// plus, per path, each segment's body loss added in order.
  void trace(const geo::Vec3& tx, const geo::Vec3& rx,
             std::vector<TracedPath>& out) const;

  /// Free-space path loss at the carrier for `distance_m` (positive dB).
  [[nodiscard]] double fspl_db(double distance_m) const noexcept;

 private:
  Room room_;
  double carrier_hz_;
};

}  // namespace volcast::mmwave
