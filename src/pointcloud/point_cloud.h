// The volumetric video frame: one structure-of-arrays (SoA) layout, with
// separate contiguous coordinate columns plus a packed RGB byte column. The
// hot paths (per-axis codec quantization, Morton batching, occupancy
// bucketing) iterate one column at a time, so they stream cache lines of
// useful data only and autovectorize.
//
// The columns store full doubles (not narrowed floats), so a frame carries
// exactly the positions the generator computed; the codec's byte hashes and
// the session goldens pin everything built on it.
#pragma once

#include <cstdint>
#include <span>
#include <stdexcept>
#include <vector>

#include "geometry/aabb.h"
#include "geometry/vec3.h"

namespace volcast::vv {

/// Structure-of-arrays frame: x/y/z coordinate columns plus a packed
/// 3-bytes-per-point RGB column. Append-only; the bounding box is
/// maintained on every push, so bounds() is O(1) at every call site.
class FrameSoA {
 public:
  FrameSoA() = default;

  /// Adopts pre-filled columns (positions as parallel vectors, colors
  /// packed r,g,b per point); the decode path fills columns with batched
  /// per-axis loops and hands them over here. Bounds are computed with the
  /// same ordered expand sequence push_back performs. Throws
  /// std::invalid_argument on mismatched column lengths.
  [[nodiscard]] static FrameSoA from_columns(std::vector<double> x,
                                             std::vector<double> y,
                                             std::vector<double> z,
                                             std::vector<std::uint8_t> rgb);

  [[nodiscard]] std::size_t size() const noexcept { return x_.size(); }
  [[nodiscard]] bool empty() const noexcept { return x_.empty(); }

  void reserve(std::size_t n) {
    x_.reserve(n);
    y_.reserve(n);
    z_.reserve(n);
    rgb_.reserve(3 * n);
  }

  void push_back(const geo::Vec3& p, std::uint8_t r, std::uint8_t g,
                 std::uint8_t b) {
    bounds_.expand(p);
    x_.push_back(p.x);
    y_.push_back(p.y);
    z_.push_back(p.z);
    rgb_.push_back(r);
    rgb_.push_back(g);
    rgb_.push_back(b);
  }

  /// Sub-frame of the given point indices, in index order — how the store
  /// carves per-cell frames out of a bucketed video frame.
  [[nodiscard]] FrameSoA gather(std::span<const std::uint32_t> indices) const {
    FrameSoA out;
    out.reserve(indices.size());
    for (std::uint32_t i : indices)
      out.push_back({x_[i], y_[i], z_[i]}, rgb_[3 * i], rgb_[3 * i + 1],
                    rgb_[3 * i + 2]);
    return out;
  }

  // Contiguous columns — the SoA hot-path interface.
  [[nodiscard]] std::span<const double> xs() const noexcept { return x_; }
  [[nodiscard]] std::span<const double> ys() const noexcept { return y_; }
  [[nodiscard]] std::span<const double> zs() const noexcept { return z_; }
  /// Packed colors: rgb()[3*i .. 3*i+2] are point i's r, g, b.
  [[nodiscard]] std::span<const std::uint8_t> rgb() const noexcept {
    return rgb_;
  }

  [[nodiscard]] geo::Vec3 position(std::size_t i) const noexcept {
    return {x_[i], y_[i], z_[i]};
  }

  /// Tight bounding box of all points (invalid Aabb when empty). O(1):
  /// maintained on push_back with the same expand sequence a scan performs,
  /// so it is bit-identical to a fresh scan of the same points.
  [[nodiscard]] const geo::Aabb& bounds() const noexcept { return bounds_; }

  /// Uncompressed wire size in bytes (3 x float32 position + RGB), the
  /// baseline the codec's compression ratio is measured against.
  [[nodiscard]] std::size_t raw_size_bytes() const noexcept {
    return size() * (3 * sizeof(float) + 3);
  }

  bool operator==(const FrameSoA& o) const noexcept {
    return x_ == o.x_ && y_ == o.y_ && z_ == o.z_ && rgb_ == o.rgb_;
  }

 private:
  std::vector<double> x_;
  std::vector<double> y_;
  std::vector<double> z_;
  std::vector<std::uint8_t> rgb_;
  geo::Aabb bounds_;
};

inline FrameSoA FrameSoA::from_columns(std::vector<double> x,
                                       std::vector<double> y,
                                       std::vector<double> z,
                                       std::vector<std::uint8_t> rgb) {
  if (y.size() != x.size() || z.size() != x.size() ||
      rgb.size() != 3 * x.size())
    throw std::invalid_argument("FrameSoA: mismatched column lengths");
  FrameSoA out;
  out.x_ = std::move(x);
  out.y_ = std::move(y);
  out.z_ = std::move(z);
  out.rgb_ = std::move(rgb);
  for (std::size_t i = 0; i < out.x_.size(); ++i)
    out.bounds_.expand({out.x_[i], out.y_[i], out.z_[i]});
  return out;
}

}  // namespace volcast::vv
