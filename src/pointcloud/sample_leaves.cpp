#include "pointcloud/sample_leaves.h"

#include <algorithm>
#include <cmath>
#include <iterator>
#include <stdexcept>

namespace volcast::vv {
namespace {

/// A run's box of candidate leaves holds at most this many per sample
/// plus kSpareLeaves, so counting sort over it stays linear in the run.
constexpr double kLeavesPerSample = 8.0;
constexpr double kSpareLeaves = 4096.0;

}  // namespace

SampleLeaves::SampleLeaves(const VideoGenerator& generator, double edge,
                           std::span<const std::uint8_t> classes,
                           std::size_t class_count)
    : generator_(&generator), class_count_(class_count) {
  const std::vector<double>& lx = generator.local_x();
  const std::vector<double>& ly = generator.local_y();
  const std::vector<double>& lz = generator.local_z();
  if (!(edge > 0.0))
    throw std::invalid_argument("SampleLeaves: edge must be positive");
  if (classes.size() != lx.size())
    throw std::invalid_argument("SampleLeaves: one class per sample");
  // A run's members fill the run's own rows, in leaf order.
  member_x_.resize(lx.size());
  member_y_.resize(lx.size());
  member_z_.resize(lx.size());
  member_class_.resize(lx.size());
  offsets_.push_back(0);
  std::vector<std::uint32_t> keys;
  std::vector<std::uint32_t> start;
  std::vector<std::uint32_t> order;
  for (const VideoGenerator::PartRun& run : generator.runs()) {
    const std::size_t b = run.begin;
    const std::size_t n = run.end - b;
    geo::Vec3 lo{lx[b], ly[b], lz[b]};
    geo::Vec3 hi = lo;
    for (std::size_t i = b; i < run.end; ++i) {
      lo = {std::min(lo.x, lx[i]), std::min(lo.y, ly[i]),
            std::min(lo.z, lz[i])};
      hi = {std::max(hi.x, lx[i]), std::max(hi.y, ly[i]),
            std::max(hi.z, lz[i])};
    }
    const geo::Vec3 extent = hi - lo;
    double e = edge;
    const double max_box = kLeavesPerSample * static_cast<double>(n) +
                           kSpareLeaves;
    while ((extent.x / e + 1.0) * (extent.y / e + 1.0) *
               (extent.z / e + 1.0) >
           max_box)
      e *= 2.0;
    // (v - lo) * inv is non-negative, so truncating floors it, and it is
    // at most extent * inv, so every key is below nx * ny * nz <= max_box.
    // A member need not lie in its key's box: the radius is measured.
    const double inv = 1.0 / e;
    const auto nx = static_cast<std::uint32_t>(extent.x * inv) + 1;
    const auto ny = static_cast<std::uint32_t>(extent.y * inv) + 1;
    const auto nz = static_cast<std::uint32_t>(extent.z * inv) + 1;
    keys.resize(n);
    for (std::size_t i = 0; i < n; ++i) {
      const auto kx = static_cast<std::uint32_t>((lx[b + i] - lo.x) * inv);
      const auto ky = static_cast<std::uint32_t>((ly[b + i] - lo.y) * inv);
      const auto kz = static_cast<std::uint32_t>((lz[b + i] - lo.z) * inv);
      keys[i] = kx + nx * (ky + ny * kz);
    }
    // Counting sort by key, so each leaf's members are adjacent.
    start.assign(std::size_t{nx} * ny * nz + 1, 0);
    for (const std::uint32_t key : keys) ++start[key + 1];
    for (std::size_t k = 1; k < start.size(); ++k) start[k] += start[k - 1];
    order.resize(n);
    for (std::uint32_t i = 0; i < n; ++i) order[start[keys[i]]++] = i;
    for (std::size_t j = 0; j < n; ++j) {
      const std::size_t i = b + order[j];
      member_x_[b + j] = lx[i];
      member_y_[b + j] = ly[i];
      member_z_[b + j] = lz[i];
      member_class_[b + j] = classes[i];
    }

    runs_.push_back({run.part, radius_.size(), radius_.size()});
    for (std::size_t j = 0; j < n;) {
      const std::uint32_t key = keys[order[j]];
      const geo::Vec3 centre =
          lo + geo::Vec3{(key % nx + 0.5) * e, (key / nx % ny + 0.5) * e,
                         (key / nx / ny + 0.5) * e};
      counts_.resize(counts_.size() + class_count_, 0);
      std::uint32_t* counts = counts_.data() + counts_.size() - class_count_;
      double r2 = 0.0;
      for (; j < n && keys[order[j]] == key; ++j) {
        const std::size_t m = b + j;
        const geo::Vec3 local{member_x_[m], member_y_[m], member_z_[m]};
        r2 = std::max(r2, (local - centre).norm_sq());
        ++counts[member_class_[m]];
      }
      const double r = std::sqrt(r2);
      centre_x_.push_back(centre.x);
      centre_y_.push_back(centre.y);
      centre_z_.push_back(centre.z);
      radius_.push_back(r * (1.0 + 1e-9) + 1e-9);
      offsets_.push_back(static_cast<std::uint32_t>(b + j));
      ++runs_.back().end;
    }
  }
}

void SampleLeaves::count(std::size_t frame, const CellGrid& grid,
                         Scratch& s, std::span<std::uint32_t> hist) const {
  const std::size_t leaves = size();
  for (auto* column : {&s.lo_x, &s.lo_y, &s.lo_z, &s.hi_x, &s.hi_y, &s.hi_z})
    column->resize(leaves);
  s.lo_ids.resize(leaves);
  s.hi_ids.resize(leaves);
  const std::size_t cells = grid.cell_count();
  for (const LeafRun& run : runs_) {
    const VideoGenerator::PartPose pose =
        generator_->part_pose(frame, run.part);
    const std::size_t b = run.begin;
    const std::size_t n = run.end - b;
    // Moved centres land in the hi columns; the corners step out from them
    // by the radius on every axis.
    VideoGenerator::place(pose, centre_x_.data() + b, centre_y_.data() + b,
                          centre_z_.data() + b, n, s.hi_x.data() + b,
                          s.hi_y.data() + b, s.hi_z.data() + b);
    for (std::size_t i = b; i < run.end; ++i) {
      const double r = radius_[i];
      s.lo_x[i] = s.hi_x[i] - r;
      s.lo_y[i] = s.hi_y[i] - r;
      s.lo_z[i] = s.hi_z[i] - r;
      s.hi_x[i] += r;
      s.hi_y[i] += r;
      s.hi_z[i] += r;
    }
    grid.locate_columns(s.lo_x.data() + b, s.lo_y.data() + b,
                        s.lo_z.data() + b, n, s.lo_ids.data() + b);
    grid.locate_columns(s.hi_x.data() + b, s.hi_y.data() + b,
                        s.hi_z.data() + b, n, s.hi_ids.data() + b);
    for (std::size_t i = b; i < run.end; ++i) {
      if (s.lo_ids[i] == s.hi_ids[i]) {
        const std::uint32_t* counts = counts_.data() + i * class_count_;
        for (std::size_t k = 0; k < class_count_; ++k)
          hist[k * cells + s.lo_ids[i]] += counts[k];
        continue;
      }
      const std::size_t m0 = offsets_[i];
      const std::size_t m = offsets_[i + 1] - m0;
      if (s.ids.size() < m) {
        for (auto* column : {&s.x, &s.y, &s.z}) column->resize(m);
        s.ids.resize(m);
      }
      VideoGenerator::place(pose, member_x_.data() + m0,
                            member_y_.data() + m0, member_z_.data() + m0, m,
                            s.x.data(), s.y.data(), s.z.data());
      grid.locate_columns(s.x.data(), s.y.data(), s.z.data(), m,
                          s.ids.data());
      for (std::size_t j = 0; j < m; ++j)
        ++hist[member_class_[m0 + j] * cells + s.ids[j]];
    }
  }
}

SampleLeaves::Leaf SampleLeaves::leaf(std::size_t i) const {
  if (i >= size()) throw std::out_of_range("SampleLeaves::leaf");
  const auto run = std::upper_bound(
      runs_.begin(), runs_.end(), i,
      [](std::size_t leaf, const LeafRun& r) { return leaf < r.begin; });
  const std::size_t m0 = offsets_[i];
  const std::size_t m = offsets_[i + 1] - m0;
  return {std::prev(run)->part,
          {centre_x_[i], centre_y_[i], centre_z_[i]},
          radius_[i],
          {member_x_.data() + m0, m},
          {member_y_.data() + m0, m},
          {member_z_.data() + m0, m},
          {member_class_.data() + m0, m},
          {counts_.data() + i * class_count_, class_count_}};
}

}  // namespace volcast::vv
