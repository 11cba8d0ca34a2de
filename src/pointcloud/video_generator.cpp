#include "pointcloud/video_generator.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <numbers>

#include "common/rng.h"
#include "geometry/quat.h"

namespace volcast::vv {
namespace {

using geo::Quat;
using geo::Vec3;

/// Rigid body part: an ellipsoid shell swinging about a pivot.
struct PartSpec {
  Vec3 pivot;          // joint the part rotates about (body frame, metres)
  Vec3 offset;         // ellipsoid center relative to the pivot
  Vec3 radii;          // ellipsoid semi-axes
  Vec3 swing_axis;     // rotation axis for the gait swing
  double amplitude;    // swing amplitude (radians)
  double phase;        // gait phase offset (radians)
  double weight;       // share of the point budget (~ surface area)
  std::uint8_t r, g, b;
};

// A ~1.85 m tall figure standing at the origin, +Z up, facing +X.
// Left/right limbs swing in anti-phase; lower limbs lead the uppers,
// a crude but visually plausible gait.
constexpr double kPi = std::numbers::pi;
const std::array<PartSpec, 10> kParts{{
    // pivot              offset              radii                axis     amp    phase   w    color
    {{0, 0, 1.15}, {0, 0, 0.28}, {0.16, 0.22, 0.33}, {0, 1, 0}, 0.05, 0.0, 3.0, 90, 110, 70},   // torso
    {{0, 0, 1.62}, {0, 0, 0.16}, {0.11, 0.11, 0.13}, {0, 1, 0}, 0.08, 0.3, 1.0, 224, 172, 140}, // head
    {{0, 0.26, 1.52}, {0, 0.02, -0.16}, {0.06, 0.06, 0.17}, {0, 1, 0}, 0.55, 0.0, 0.8, 80, 100, 60},   // L upper arm
    {{0, -0.26, 1.52}, {0, -0.02, -0.16}, {0.06, 0.06, 0.17}, {0, 1, 0}, 0.55, kPi, 0.8, 80, 100, 60}, // R upper arm
    {{0, 0.28, 1.20}, {0.02, 0.02, -0.16}, {0.05, 0.05, 0.16}, {0, 1, 0}, 0.80, 0.3, 0.7, 210, 160, 130},   // L forearm
    {{0, -0.28, 1.20}, {0.02, -0.02, -0.16}, {0.05, 0.05, 0.16}, {0, 1, 0}, 0.80, kPi + 0.3, 0.7, 210, 160, 130}, // R forearm
    {{0, 0.10, 0.95}, {0, 0.01, -0.24}, {0.08, 0.08, 0.25}, {0, 1, 0}, 0.45, kPi, 1.2, 60, 60, 90},    // L thigh
    {{0, -0.10, 0.95}, {0, -0.01, -0.24}, {0.08, 0.08, 0.25}, {0, 1, 0}, 0.45, 0.0, 1.2, 60, 60, 90},  // R thigh
    {{0, 0.10, 0.48}, {0.01, 0, -0.23}, {0.06, 0.06, 0.24}, {0, 1, 0}, 0.60, kPi + 0.4, 1.0, 40, 40, 60},  // L shin
    {{0, -0.10, 0.48}, {0.01, 0, -0.23}, {0.06, 0.06, 0.24}, {0, 1, 0}, 0.60, 0.4, 1.0, 40, 40, 60},   // R shin
}};

}  // namespace

VideoGenerator::VideoGenerator(VideoConfig config) : config_(config) {
  // Sample each part's shell once; frames reuse the samples under rigid
  // transforms, giving the temporal coherence a real capture has.
  double total_weight = 0.0;
  for (const PartSpec& part : kParts) total_weight += part.weight;

  Rng rng(config_.seed);
  samples_.reserve(config_.points_per_frame);
  for (std::uint16_t part_id = 0; part_id < kParts.size(); ++part_id) {
    const PartSpec& part = kParts[part_id];
    const auto budget = static_cast<std::size_t>(
        std::round(static_cast<double>(config_.points_per_frame) *
                   part.weight / total_weight));
    for (std::size_t i = 0; i < budget && samples_.size() < config_.points_per_frame;
         ++i) {
      // Uniform direction on the unit sphere, scaled by the semi-axes and
      // jittered slightly in depth so the shell has thickness.
      Vec3 dir{rng.normal(), rng.normal(), rng.normal()};
      dir = dir.normalized();
      const double shell = 1.0 - 0.06 * rng.uniform();
      PartSample s;
      s.part = part_id;
      s.local = part.offset + Vec3{dir.x * part.radii.x * shell,
                                   dir.y * part.radii.y * shell,
                                   dir.z * part.radii.z * shell};
      auto shade = [&rng](std::uint8_t base) {
        const double v = base + rng.normal(0.0, 4.0);
        return static_cast<std::uint8_t>(std::clamp(v, 0.0, 255.0));
      };
      s.r = shade(part.r);
      s.g = shade(part.g);
      s.b = shade(part.b);
      samples_.push_back(s);
    }
  }
  // Rounding may leave the budget a few points short; top up from the torso.
  Rng top_up = rng.fork();
  while (samples_.size() < config_.points_per_frame) {
    PartSample s = samples_[static_cast<std::size_t>(
        top_up.uniform_int(0, static_cast<std::int64_t>(samples_.size()) - 1))];
    samples_.push_back(s);
  }
}

PointCloud VideoGenerator::frame(std::size_t index) const {
  return frame_soa(index).to_aos();
}

FrameSoA VideoGenerator::frame_soa(std::size_t index) const {
  std::vector<double> x;
  std::vector<double> y;
  std::vector<double> z;
  positions(index, x, y, z);
  std::vector<std::uint8_t> rgb;
  rgb.reserve(3 * samples_.size());
  for (const PartSample& s : samples_) {
    rgb.push_back(s.r);
    rgb.push_back(s.g);
    rgb.push_back(s.b);
  }
  return FrameSoA::from_columns(std::move(x), std::move(y), std::move(z),
                                std::move(rgb));
}

void VideoGenerator::positions(std::size_t index, std::vector<double>& x,
                               std::vector<double>& y,
                               std::vector<double>& z) const {
  const std::size_t wrapped =
      config_.frame_count > 0 ? index % config_.frame_count : index;
  const double t = static_cast<double>(wrapped) / config_.fps;
  const double gait = 2.0 * kPi * config_.walk_rate_hz * t;

  // Whole-body motion: vertical bob and a slow yaw turn.
  const double bob = 0.015 * std::sin(2.0 * gait);
  const double yaw =
      config_.yaw_amplitude_rad * std::sin(2.0 * kPi * 0.05 * t);
  const Quat body_rot = Quat::from_axis_angle({0, 0, 1}, yaw);

  std::array<Quat, kParts.size()> part_rot;
  for (std::size_t p = 0; p < kParts.size(); ++p) {
    const PartSpec& part = kParts[p];
    const double angle = part.amplitude * std::sin(gait + part.phase);
    part_rot[p] = Quat::from_axis_angle(part.swing_axis, angle);
  }

  const std::size_t n = samples_.size();
  x.resize(n);
  y.resize(n);
  z.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    const PartSample& s = samples_[i];
    const PartSpec& part = kParts[s.part];
    Vec3 p = part.pivot + part_rot[s.part].rotate(s.local);
    p = body_rot.rotate(p);
    x[i] = p.x;
    y[i] = p.y;
    z[i] = p.z + bob;
  }
}

geo::Aabb VideoGenerator::content_bounds() const noexcept {
  // Generous analytic bound: arm span with full swing stays within 0.8 m of
  // the axis; the head shell plus vertical bob tops out just under 2.0 m.
  return {{-0.8, -0.8, 0.0}, {0.8, 0.8, 2.0}};
}

geo::Vec3 VideoGenerator::content_center() const noexcept {
  return {0.0, 0.0, 1.1};
}

ThinFilter::ThinFilter(double fraction) noexcept
    : keep_all_(fraction >= 1.0),
      threshold_(fraction > 0.0 && fraction < 1.0
                     ? static_cast<std::uint32_t>(fraction * 4294967296.0)
                     : 0) {}

PointCloud thin(const PointCloud& cloud, double fraction) {
  if (fraction >= 1.0) return cloud;
  PointCloud out;
  if (fraction <= 0.0) return out;
  const ThinFilter filter(fraction);
  out.reserve(static_cast<std::size_t>(
      fraction * static_cast<double>(cloud.size())));
  const auto& pts = cloud.points();
  for (std::uint32_t i = 0; i < pts.size(); ++i)
    if (filter.keeps(i)) out.add(pts[i]);
  return out;
}

FrameSoA thin(const FrameSoA& frame, double fraction) {
  if (fraction >= 1.0) return frame;
  FrameSoA out;
  if (fraction <= 0.0) return out;
  const ThinFilter filter(fraction);
  out.reserve(static_cast<std::size_t>(
      fraction * static_cast<double>(frame.size())));
  const std::span<const std::uint8_t> rgb = frame.rgb();
  for (std::uint32_t i = 0; i < frame.size(); ++i)
    if (filter.keeps(i))
      out.push_back(frame.position(i), rgb[3 * i], rgb[3 * i + 1],
                    rgb[3 * i + 2]);
  return out;
}

}  // namespace volcast::vv
