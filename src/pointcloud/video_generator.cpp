#include "pointcloud/video_generator.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <iterator>
#include <numbers>
#include <stdexcept>

#include "common/rng.h"
#include "common/thread_pool.h"
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

/// Moves `n` samples of one body part to their frame positions: the
/// part's swing about its pivot, then the body's yaw, then the bob (the
/// PartPose formula). Each element runs Quat::rotate's operations in
/// order, so the columns equal a per-point transform bit for bit; with
/// the rotations hoisted and the columns restrict-qualified the loop
/// vectorizes. Out of line, so every caller of place() gets the one
/// compiled body (DESIGN.md, "FMA contraction").
[[gnu::noinline]] void transform_run(
    const double* __restrict lx, const double* __restrict ly,
    const double* __restrict lz, std::size_t n, Vec3 pivot, Quat part_rot,
    Quat body_rot, double bob, double* __restrict x, double* __restrict y,
    double* __restrict z) noexcept {
  for (std::size_t i = 0; i < n; ++i) {
    const Vec3 p =
        body_rot.rotate(pivot + part_rot.rotate({lx[i], ly[i], lz[i]}));
    x[i] = p.x;
    y[i] = p.y;
    z[i] = p.z + bob;
  }
}

/// Skips one Box-Muller pair the way Rng::normal() draws it.
void skip_normal_pair(Rng& rng) noexcept {
  while (rng.uniform() <= 0.0) {
  }
  static_cast<void>(rng.uniform());
}

}  // namespace

VideoGenerator::DrawnPoint VideoGenerator::draw_point(Rng& rng,
                                                      std::size_t part_id) {
  const PartSpec& part = kParts.at(part_id);
  // Uniform direction on the unit sphere, scaled by the semi-axes and
  // jittered slightly in depth so the shell has thickness.
  Vec3 dir{rng.normal(), rng.normal(), rng.normal()};
  dir = dir.normalized();
  const double shell = 1.0 - 0.06 * rng.uniform();
  const Vec3 local = part.offset + Vec3{dir.x * part.radii.x * shell,
                                        dir.y * part.radii.y * shell,
                                        dir.z * part.radii.z * shell};
  auto shade = [&rng](std::uint8_t base) {
    const double v = base + rng.normal(0.0, 4.0);
    return static_cast<std::uint8_t>(std::clamp(v, 0.0, 255.0));
  };
  const std::uint8_t r = shade(part.r);
  const std::uint8_t g = shade(part.g);
  const std::uint8_t b = shade(part.b);
  return {local, r, g, b};
}

void VideoGenerator::skip_point(Rng& rng) noexcept {
  // dir.x and dir.y, then dir.z with the cached normal that shades red.
  skip_normal_pair(rng);
  skip_normal_pair(rng);
  static_cast<void>(rng.uniform());  // shell
  skip_normal_pair(rng);             // green and blue
}

VideoGenerator::VideoGenerator(VideoConfig config, common::ThreadPool* pool)
    : config_(config) {
  // Sample each part's shell once; frames reuse the samples under rigid
  // transforms, giving the temporal coherence a real capture has.
  double total_weight = 0.0;
  for (const PartSpec& part : kParts) total_weight += part.weight;

  // Rows before draws: each part draws round(n * weight / total) points,
  // cut off where the budget runs out, so the budgets fix every drawn
  // point's row and part before anything is drawn.
  const std::size_t n = config_.points_per_frame;
  std::size_t drawn = 0;
  for (std::size_t part_id = 0; part_id < kParts.size(); ++part_id) {
    const auto budget = static_cast<std::size_t>(std::round(
        static_cast<double>(n) * kParts[part_id].weight / total_weight));
    const std::size_t count = std::min(budget, n - drawn);
    if (count > 0) runs_.push_back({part_id, drawn, drawn + count});
    drawn += count;
  }
  // A one-point budget rounds every part's share to zero; that point is a
  // torso sample.
  if (drawn == 0 && n > 0) {
    runs_.push_back({0, 0, 1});
    drawn = 1;
  }
  local_x_.resize(n);
  local_y_.resize(n);
  local_z_.resize(n);
  rgb_.resize(3 * n);
  const auto draw_rows = [this](Rng& rng, std::size_t lo, std::size_t hi) {
    for (const PartRun& run : runs_) {
      for (std::size_t i = std::max(lo, run.begin); i < std::min(hi, run.end);
           ++i) {
        const DrawnPoint p = draw_point(rng, run.part);
        local_x_[i] = p.local.x;
        local_y_[i] = p.local.y;
        local_z_[i] = p.local.z;
        rgb_[3 * i] = p.r;
        rgb_[3 * i + 1] = p.g;
        rgb_[3 * i + 2] = p.b;
      }
    }
  };

  Rng rng(config_.seed);
  const std::size_t lanes =
      std::min(pool != nullptr ? pool->thread_count() : 1, drawn);
  if (lanes <= 1) {
    draw_rows(rng, 0, drawn);
  } else {
    // Checkpoints: one serial pass skips the first lanes - 1 slices and
    // copies the Rng at each slice start. A draw starts and ends with no
    // cached normal, so each copy is the serial loop's state at that
    // row, and each lane then draws its slice as the serial loop would.
    const auto slice_begin = [drawn, lanes](std::size_t lane) {
      return drawn * lane / lanes;
    };
    std::vector<Rng> starts;
    starts.reserve(lanes);
    for (std::size_t lane = 0; lane < lanes; ++lane) {
      starts.push_back(rng);
      if (lane + 1 < lanes)
        for (std::size_t i = slice_begin(lane); i < slice_begin(lane + 1); ++i)
          skip_point(rng);
    }
    pool->parallel_for(lanes, [&](std::size_t lane) {
      // A lane-local copy: the lanes' Rngs would share cache lines.
      Rng lane_rng = starts[lane];
      draw_rows(lane_rng, slice_begin(lane), slice_begin(lane + 1));
      starts[lane] = lane_rng;
    });
    rng = starts.back();  // where the serial loop ends
  }
  // Rounding may leave the budget a few points short; top up with copies
  // of random earlier samples.
  Rng top_up = rng.fork();
  for (std::size_t i = drawn; i < n; ++i) {
    const auto j = static_cast<std::size_t>(
        top_up.uniform_int(0, static_cast<std::int64_t>(i) - 1));
    const std::size_t part = sample(j).part;
    local_x_[i] = local_x_[j];
    local_y_[i] = local_y_[j];
    local_z_[i] = local_z_[j];
    std::copy_n(rgb_.begin() + static_cast<std::ptrdiff_t>(3 * j), 3,
                rgb_.begin() + static_cast<std::ptrdiff_t>(3 * i));
    if (runs_.back().part != part) runs_.push_back({part, i, i});
    ++runs_.back().end;
  }
}

FrameSoA VideoGenerator::frame_soa(std::size_t index) const {
  std::vector<double> x;
  std::vector<double> y;
  std::vector<double> z;
  positions(index, x, y, z);
  return FrameSoA::from_columns(std::move(x), std::move(y), std::move(z),
                                rgb_);
}

void VideoGenerator::positions(std::size_t index, std::vector<double>& x,
                               std::vector<double>& y,
                               std::vector<double>& z) const {
  const std::size_t n = local_x_.size();
  x.resize(n);
  y.resize(n);
  z.resize(n);
  for (const PartRun& run : runs_) {
    const std::size_t b = run.begin;
    place(part_pose(index, run.part), local_x_.data() + b,
          local_y_.data() + b, local_z_.data() + b, run.end - b, x.data() + b,
          y.data() + b, z.data() + b);
  }
}

void VideoGenerator::place(const PartPose& pose, const double* lx,
                           const double* ly, const double* lz, std::size_t n,
                           double* x, double* y, double* z) noexcept {
  transform_run(lx, ly, lz, n, pose.pivot, pose.part_rot, pose.body_rot,
                pose.bob, x, y, z);
}

VideoGenerator::Sample VideoGenerator::sample(std::size_t point) const {
  if (point >= local_x_.size())
    throw std::out_of_range("VideoGenerator::sample");
  const auto run = std::upper_bound(
      runs_.begin(), runs_.end(), point,
      [](std::size_t p, const PartRun& r) { return p < r.begin; });
  return {std::prev(run)->part,
          {local_x_[point], local_y_[point], local_z_[point]}};
}

VideoGenerator::PartPose VideoGenerator::part_pose(std::size_t index,
                                                   std::size_t part) const {
  const PartSpec& spec = kParts.at(part);
  const std::size_t wrapped =
      config_.frame_count > 0 ? index % config_.frame_count : index;
  const double t = static_cast<double>(wrapped) / config_.fps;
  const double gait = 2.0 * kPi * config_.walk_rate_hz * t;
  // Whole-body motion: vertical bob and a slow yaw turn.
  const double yaw =
      config_.yaw_amplitude_rad * std::sin(2.0 * kPi * 0.05 * t);
  return {spec.pivot,
          Quat::from_axis_angle(spec.swing_axis,
                                spec.amplitude * std::sin(gait + spec.phase)),
          Quat::from_axis_angle({0, 0, 1}, yaw),
          0.015 * std::sin(2.0 * gait)};
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
    : bound_(fraction >= 1.0 ? std::uint64_t{1} << 32
             : fraction > 0.0
                 ? static_cast<std::uint32_t>(fraction * 4294967296.0)
                 : 0) {}

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
