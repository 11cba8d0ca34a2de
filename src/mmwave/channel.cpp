#include "mmwave/channel.h"

#include <algorithm>
#include <cmath>
#include <numbers>

#include "common/units.h"

namespace volcast::mmwave {

// Out of line even here, where the many-body sum below calls it: the
// per-segment sums of Channel::paths and LinkTable must run one compiled
// copy, so FMA contraction (VOLCAST_NATIVE) cannot round them apart.
[[gnu::noinline]] double BlockageModel::segment_loss_db(
    const geo::Vec3& a, const geo::Vec3& b,
    const geo::BodyObstacle& body) const noexcept {
  const double clearance = geo::segment_body_clearance(a, b, body);
  if (clearance >= clearance_m) return 0.0;
  // Linear (in dB) ramp: grazing the Fresnel boundary costs ~0, a
  // dead-center torso crossing costs max_loss_db.
  return max_loss_db * (1.0 - clearance / clearance_m);
}

double BlockageModel::segment_loss_db(
    const geo::Vec3& a, const geo::Vec3& b,
    std::span<const geo::BodyObstacle> bodies) const noexcept {
  double total = 0.0;
  for (const geo::BodyObstacle& body : bodies)
    total += segment_loss_db(a, b, body);
  return total;
}

namespace {

bool within(double v, double limit) noexcept { return std::abs(v) <= limit; }

}  // namespace

SegmentReach::SegmentReach(const geo::Vec3& a, const geo::Vec3& b,
                           double clearance_m) noexcept
    : active_(within(a.x, kCoordLimitM) && within(a.y, kCoordLimitM) &&
              within(b.x, kCoordLimitM) && within(b.y, kCoordLimitM) &&
              clearance_m >= 0.0 && clearance_m <= kCoordLimitM),
      ax_(a.x),
      ay_(a.y),
      abx_(b.x - a.x),
      aby_(b.y - a.y) {
  const double reach = clearance_m + kSlackM;
  lo_x_ = std::min(a.x, b.x) - reach;
  hi_x_ = std::max(a.x, b.x) + reach;
  lo_y_ = std::min(a.y, b.y) - reach;
  hi_y_ = std::max(a.y, b.y) + reach;
  reach_len_sq_ = reach * reach * (abx_ * abx_ + aby_ * aby_);
}

bool SegmentReach::out_of_reach(const geo::Vec3& center) const noexcept {
  if (!active_ || !within(center.x, kCoordLimitM) ||
      !within(center.y, kCoordLimitM))
    return false;
  if (center.x < lo_x_ || center.x > hi_x_ || center.y < lo_y_ ||
      center.y > hi_y_)
    return true;
  // The distance to the line bounds the distance to the segment from
  // below. A zero-length segment has reach_len_sq_ == 0 and never passes.
  const double cross = abx_ * (center.y - ay_) - aby_ * (center.x - ax_);
  return cross * cross > reach_len_sq_;
}

Channel::Channel(const Room& room, double carrier_hz)
    : room_(room), carrier_hz_(carrier_hz) {}

double Channel::fspl_db(double distance_m) const noexcept {
  const double d = std::max(distance_m, 0.01);
  const double lambda = wavelength_m(carrier_hz_);
  return 20.0 * std::log10(4.0 * std::numbers::pi * d / lambda);
}

std::vector<Path> Channel::paths(const geo::Vec3& tx, const geo::Vec3& rx,
                                 std::span<const geo::BodyObstacle> bodies,
                                 const BlockageModel& blockage) const {
  std::vector<TracedPath> geometry;
  trace(tx, rx, geometry);
  std::vector<Path> out;
  out.reserve(geometry.size());
  for (const TracedPath& traced : geometry) {
    Path p = traced.path;
    for (std::size_t s = 0; s < traced.segment_count(); ++s)
      p.extra_loss_db += blockage.segment_loss_db(
          traced.vertices[s], traced.vertices[s + 1], bodies);
    out.push_back(p);
  }
  return out;
}

void Channel::trace(const geo::Vec3& tx, const geo::Vec3& rx,
                    std::vector<TracedPath>& out) const {
  out.clear();

  // Line of sight.
  {
    TracedPath los;
    const geo::Vec3 delta = rx - tx;
    los.path.length_m = delta.norm();
    los.path.tx_direction = delta.normalized();
    los.path.line_of_sight = true;
    los.vertices = {tx, rx};
    out.push_back(los);
  }
  if (!room_.enable_reflections) return;

  // Reflections via the image method: mirror the receiver across bounding
  // planes, shoot at the image, unfold the bounce points.
  struct Plane {
    int axis;      // 0=x, 1=y, 2=z
    double value;  // plane coordinate
  };
  const Plane planes[6] = {{0, 0.0},           {0, room_.width_m},
                           {1, 0.0},           {1, room_.length_m},
                           {2, 0.0},           {2, room_.height_m}};
  auto component = [](const geo::Vec3& v, int axis) {
    return axis == 0 ? v.x : (axis == 1 ? v.y : v.z);
  };
  auto mirrored = [&component](geo::Vec3 v, const Plane& plane) {
    const double c = component(v, plane.axis);
    (plane.axis == 0 ? v.x : plane.axis == 1 ? v.y : v.z) =
        2.0 * plane.value - c;
    return v;
  };
  auto on_face = [this](const geo::Vec3& p) {
    return p.x >= -1e-9 && p.x <= room_.width_m + 1e-9 && p.y >= -1e-9 &&
           p.y <= room_.length_m + 1e-9 && p.z >= -1e-9 &&
           p.z <= room_.height_m + 1e-9;
  };
  // Intersection parameter of segment a->b with a plane; < 0 when parallel
  // or outside the open interval (0, 1).
  auto cross_at = [&component](const geo::Vec3& a, const geo::Vec3& b,
                               const Plane& plane) {
    const double ca = component(a, plane.axis);
    const double cb = component(b, plane.axis);
    const double denom = cb - ca;
    if (std::abs(denom) < 1e-12) return -1.0;
    const double t = (plane.value - ca) / denom;
    return (t > 1e-9 && t < 1.0 - 1e-9) ? t : -1.0;
  };

  // First order.
  for (const Plane& plane : planes) {
    const geo::Vec3 image = mirrored(rx, plane);
    const double t = cross_at(tx, image, plane);
    if (t < 0.0) continue;
    const geo::Vec3 bounce = tx + (image - tx) * t;
    if (!on_face(bounce)) continue;

    TracedPath p;
    p.path.line_of_sight = false;
    p.path.bounces = 1;
    p.path.bounce_point = bounce;
    p.path.length_m = (image - tx).norm();
    p.path.tx_direction = (image - tx).normalized();
    p.path.extra_loss_db = room_.reflection_loss_db;
    p.vertices = {tx, bounce, rx};
    out.push_back(p);
  }

  // Second order: bounce off plane A, then plane B (ordered pairs of
  // distinct planes; same-axis pairs are the opposite-wall ping-pong).
  if (room_.max_reflection_order >= 2) {
    for (const Plane& a : planes) {
      for (const Plane& b : planes) {
        if (a.axis == b.axis && a.value == b.value) continue;
        const geo::Vec3 image_b = mirrored(rx, b);
        const geo::Vec3 image_ab = mirrored(image_b, a);
        const double ta = cross_at(tx, image_ab, a);
        if (ta < 0.0) continue;
        const geo::Vec3 bounce_a = tx + (image_ab - tx) * ta;
        if (!on_face(bounce_a)) continue;
        const double tb = cross_at(bounce_a, image_b, b);
        if (tb < 0.0) continue;
        const geo::Vec3 bounce_b = bounce_a + (image_b - bounce_a) * tb;
        if (!on_face(bounce_b)) continue;

        TracedPath p;
        p.path.line_of_sight = false;
        p.path.bounces = 2;
        p.path.bounce_point = bounce_a;
        p.path.length_m = (image_ab - tx).norm();
        p.path.tx_direction = (image_ab - tx).normalized();
        p.path.extra_loss_db = 2.0 * room_.reflection_loss_db;
        p.vertices = {tx, bounce_a, bounce_b, rx};
        out.push_back(p);
      }
    }
  }
}

}  // namespace volcast::mmwave
