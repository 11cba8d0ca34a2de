#include "pointcloud/video_store.h"

#include <algorithm>
#include <numeric>
#include <stdexcept>

#include "common/endian.h"
#include "common/fnv.h"
#include "common/stats.h"
#include "common/thread_pool.h"
#include "common/units.h"
#include "pointcloud/sample_leaves.h"

namespace volcast::vv {

std::vector<QualityTier> paper_quality_tiers() {
  return {{"330K", 330'000}, {"430K", 430'000}, {"550K", 550'000}};
}

namespace {

/// The store's tier limit, which keeps a point's tier class (how many
/// tiers keep it) within one byte.
constexpr std::size_t kMaxTiers = 64;

/// The points of one cell at one tier: the cell's master indices (in
/// ascending order) whose tier class is at least `min_class`. That is
/// gather() of the cell's bucket in thin(master, fraction), in the same
/// order, so the bounds and the encoded bytes are the same.
FrameSoA tier_cell(const FrameSoA& master,
                   std::span<const std::uint32_t> indices,
                   const std::vector<std::uint8_t>& classes,
                   std::uint8_t min_class) {
  FrameSoA out;
  out.reserve(indices.size());
  const std::span<const std::uint8_t> rgb = master.rgb();
  for (const std::uint32_t i : indices)
    if (classes[i] >= min_class)
      out.push_back(master.position(i), rgb[3 * i], rgb[3 * i + 1],
                    rgb[3 * i + 2]);
  return out;
}

}  // namespace

VideoStore::VideoStore(const VideoGenerator& generator, const CellGrid& grid,
                       VideoStoreConfig config)
    : config_(std::move(config)), grid_(&grid), fps_(generator.config().fps) {
  if (config_.tiers.empty())
    throw std::invalid_argument("VideoStore: no quality tiers");
  if (config_.tiers.size() > kMaxTiers)
    throw std::invalid_argument("VideoStore: more than 64 quality tiers");
  const std::size_t master_points = generator.config().points_per_frame;
  for (const QualityTier& tier : config_.tiers) {
    if (tier.points_per_frame == 0 || tier.points_per_frame > master_points)
      throw std::invalid_argument(
          "VideoStore: tier point count must be in (0, generator points]");
  }

  const std::size_t n_frames = generator.config().frame_count;
  const std::size_t n_tiers = config_.tiers.size();
  const std::size_t n_cells = grid.cell_count();
  frames_.resize(n_frames);

  // Tier classes. A tier keeps point i when hash(i) < its filter's bound,
  // so the tiers keeping a point are those whose bound exceeds its hash.
  // A point's class is how many tiers keep it, and tier q keeps exactly
  // the points of class >= min_class[q], the number of tiers whose bound
  // is at least q's: if q keeps i, so does every such tier; if q does
  // not, only tiers with a strictly larger bound can. This holds for any
  // tier order and for duplicate fractions.
  std::vector<ThinFilter> filters;
  for (const QualityTier& tier : config_.tiers)
    filters.emplace_back(static_cast<double>(tier.points_per_frame) /
                         static_cast<double>(master_points));
  std::vector<std::uint8_t> min_class(n_tiers, 0);
  for (std::size_t q = 0; q < n_tiers; ++q)
    for (const ThinFilter& other : filters)
      if (other.bound() >= filters[q].bound()) ++min_class[q];
  std::vector<std::uint8_t> classes(master_points, 0);
  for (std::uint32_t i = 0; i < master_points; ++i)
    for (const ThinFilter& filter : filters)
      if (filter.keeps(i)) ++classes[i];

  const std::size_t n_classes = n_tiers + 1;

  // Per-tier linear size model fitted from exactly encoded sample frames.
  std::vector<LinearFit> fits(n_tiers);
  const std::size_t sample_count =
      config_.exact ? n_frames
                    : std::min(std::max<std::size_t>(config_.sample_frames, 1),
                               n_frames);

  // Frames are pure functions of the generator config, and each frame
  // fills only its own slot of frames_, so frames precompute in parallel
  // with bit-identical tables. Only the size-model fit couples frames: the
  // sample frames run serially first (their (points, bytes) pairs feed the
  // fit in frame, tier, cell order), then the modeled remainder fans out.
  //
  // An exact frame generates the master frame and buckets it by cell
  // once. Each (tier, cell) pair then takes the cell's points of a class
  // the tier keeps and sizes their encoding. With a cell pool the pairs
  // are claimed one at a time by the pool's lanes, each writing only its
  // own slots.
  const auto build_exact_frame = [&](std::size_t f,
                                     common::ThreadPool* cell_pool) {
    const FrameSoA master = generator.frame_soa(f);
    const FlatAssignment buckets = grid.assign_flat(master);
    FrameSizes& sizes = frames_[f];
    sizes.bytes.assign(n_tiers, std::vector<std::uint32_t>(n_cells, 0));
    sizes.points.assign(n_tiers, std::vector<std::uint32_t>(n_cells, 0));
    std::vector<CellId> occupied;
    for (CellId c = 0; c < n_cells; ++c)
      if (!buckets.cell(c).empty()) occupied.push_back(c);
    const auto size_cell = [&](std::size_t k) {
      const std::size_t q = k / occupied.size();
      const CellId c = occupied[k % occupied.size()];
      const FrameSoA cell =
          tier_cell(master, buckets.cell(c), classes, min_class[q]);
      if (cell.empty()) return;
      sizes.bytes[q][c] =
          static_cast<std::uint32_t>(encoded_size(cell, config_.codec));
      sizes.points[q][c] = static_cast<std::uint32_t>(cell.size());
    };
    const std::size_t pairs = n_tiers * occupied.size();
    if (cell_pool != nullptr) {
      // The lanes claim the pairs largest first (ties by index), so the
      // big cells of the top tier start early instead of forming the
      // tail. Each pair writes only its own slots, so the order does not
      // change the table.
      std::vector<std::uint32_t> class_counts(n_classes);
      std::vector<std::uint32_t> pair_points(pairs);
      for (std::size_t k = 0; k < occupied.size(); ++k) {
        std::fill(class_counts.begin(), class_counts.end(), 0);
        for (const std::uint32_t i : buckets.cell(occupied[k]))
          ++class_counts[classes[i]];
        for (std::size_t q = 0; q < n_tiers; ++q)
          pair_points[q * occupied.size() + k] = std::accumulate(
              class_counts.begin() + min_class[q], class_counts.end(),
              std::uint32_t{0});
      }
      std::vector<std::size_t> order(pairs);
      std::iota(order.begin(), order.end(), std::size_t{0});
      std::stable_sort(order.begin(), order.end(),
                       [&](std::size_t a, std::size_t b) {
                         return pair_points[a] > pair_points[b];
                       });
      cell_pool->parallel_tasks(
          pairs, [&](std::size_t k) { size_cell(order[k]); });
    } else {
      for (std::size_t k = 0; k < pairs; ++k) size_cell(k);
    }
  };
  // A modeled frame needs only per-cell point counts: the leaves fill a
  // [class][cell] histogram, and a suffix sum over classes turns row k
  // into the count of points of class >= k, which is tier q's row at
  // k = min_class[q]. Exact integer arithmetic, so it equals
  // occupancy(thin(master, fraction)) per tier. Bytes come from the fit.
  const auto build_modeled_frame = [&](std::size_t f,
                                       const SampleLeaves& leaves,
                                       SampleLeaves::Scratch& scratch,
                                       std::vector<std::uint32_t>& hist) {
    hist.assign(n_classes * n_cells, 0);
    leaves.count(f, grid, scratch, hist);
    for (std::size_t k = n_classes - 1; k-- > 0;)
      for (std::size_t c = 0; c < n_cells; ++c)
        hist[k * n_cells + c] += hist[(k + 1) * n_cells + c];

    FrameSizes& sizes = frames_[f];
    sizes.points.resize(n_tiers);
    sizes.bytes.assign(n_tiers, std::vector<std::uint32_t>(n_cells, 0));
    const auto floor_bytes = static_cast<double>(kCodecHeaderBytes);
    for (std::size_t q = 0; q < n_tiers; ++q) {
      const auto row = hist.begin() +
                       static_cast<std::ptrdiff_t>(min_class[q] * n_cells);
      sizes.points[q].assign(row, row + static_cast<std::ptrdiff_t>(n_cells));
      for (CellId c = 0; c < n_cells; ++c) {
        const std::uint32_t count = sizes.points[q][c];
        if (count == 0) continue;
        const double predicted = fits[q].at(static_cast<double>(count));
        sizes.bytes[q][c] =
            static_cast<std::uint32_t>(std::max(predicted, floor_bytes));
      }
    }
  };

  if (config_.exact) {
    // Every frame is exact and independent (no size model to fit).
    common::ThreadPool::run(config_.pool, n_frames, [&](std::size_t f) {
      build_exact_frame(f, nullptr);
    });
    return;
  }
  // The serial sample frames spread their (tier, cell) pairs over the pool
  // instead.
  common::ThreadPool* cell_pool =
      config_.pool != nullptr && config_.pool->thread_count() > 1
          ? config_.pool
          : nullptr;
  std::vector<std::vector<double>> model_points(n_tiers);
  std::vector<std::vector<double>> model_bytes(n_tiers);
  for (std::size_t f = 0; f < sample_count; ++f) {
    build_exact_frame(f, cell_pool);
    const FrameSizes& sizes = frames_[f];
    for (std::size_t q = 0; q < n_tiers; ++q) {
      for (CellId c = 0; c < n_cells; ++c) {
        if (sizes.points[q][c] == 0) continue;
        model_points[q].push_back(static_cast<double>(sizes.points[q][c]));
        model_bytes[q].push_back(static_cast<double>(sizes.bytes[q][c]));
      }
    }
  }
  for (std::size_t q = 0; q < n_tiers; ++q)
    fits[q] = fit_line(model_points[q], model_bytes[q]);
  const std::size_t modeled = n_frames - sample_count;
  if (modeled == 0) return;
  // Leaves are built after the sample frames, whose buffers are gone by
  // then, so they do not add to the build's peak memory. Each lane owns
  // one scratch set and a contiguous chunk of frames.
  const SampleLeaves leaves(generator, grid.cell_size_m() / 16.0, classes,
                            n_classes);
  const std::size_t lanes = std::min(
      config_.pool != nullptr ? config_.pool->thread_count() : 1, modeled);
  common::ThreadPool::run(config_.pool, lanes, [&](std::size_t lane) {
    SampleLeaves::Scratch scratch;
    std::vector<std::uint32_t> hist;
    const std::size_t lo = sample_count + modeled * lane / lanes;
    const std::size_t hi = sample_count + modeled * (lane + 1) / lanes;
    for (std::size_t f = lo; f < hi; ++f)
      build_modeled_frame(f, leaves, scratch, hist);
  });
}

std::size_t VideoStore::cell_bytes(std::size_t frame, std::size_t tier,
                                   CellId cell) const {
  return frames_.at(frame).bytes.at(tier).at(cell);
}

std::uint32_t VideoStore::cell_points(std::size_t frame, std::size_t tier,
                                      CellId cell) const {
  return frames_.at(frame).points.at(tier).at(cell);
}

std::span<const std::uint32_t> VideoStore::tier_points(
    std::size_t frame, std::size_t tier) const {
  return frames_.at(frame).points.at(tier);
}

std::size_t VideoStore::frame_bytes(std::size_t frame,
                                    std::size_t tier) const {
  const auto& bytes = frames_.at(frame).bytes.at(tier);
  std::size_t total = 0;
  for (std::uint32_t b : bytes) total += b;
  return total;
}

double VideoStore::tier_bitrate_mbps(std::size_t tier) const {
  if (frames_.empty()) return 0.0;
  double total_bits = 0.0;
  for (std::size_t f = 0; f < frames_.size(); ++f)
    total_bits += byte_bits(static_cast<double>(frame_bytes(f, tier)));
  const double mean_bits_per_frame =
      total_bits / static_cast<double>(frames_.size());
  return bits_to_megabits(mean_bits_per_frame * fps_);
}

double VideoStore::tier_bits_per_point(std::size_t tier) const {
  double bits = 0.0;
  double points = 0.0;
  for (const FrameSizes& f : frames_) {
    for (std::uint32_t b : f.bytes.at(tier)) bits += byte_bits(b);
    for (std::uint32_t n : f.points.at(tier)) points += n;
  }
  return points > 0.0 ? bits / points : 0.0;
}

namespace {

constexpr std::uint8_t kStoreMagic[4] = {'V', 'S', 'T', 'R'};
constexpr std::uint32_t kStoreVersion = 1;

using common::put_u32;
using common::put_u64;

}  // namespace

std::vector<std::uint8_t> VideoStore::serialize() const {
  std::vector<std::uint8_t> out;
  common::append_bytes(out, kStoreMagic, sizeof kStoreMagic);
  put_u32(out, kStoreVersion);
  common::put_f64(out, fps_);
  put_u32(out, static_cast<std::uint32_t>(config_.tiers.size()));
  put_u32(out, static_cast<std::uint32_t>(frames_.size()));
  put_u64(out, grid_->cell_count());
  for (const QualityTier& tier : config_.tiers) {
    put_u32(out, static_cast<std::uint32_t>(tier.name.size()));
    common::append_bytes(out, tier.name.data(), tier.name.size());
    put_u64(out, tier.points_per_frame);
  }
  for (const FrameSizes& frame : frames_) {
    for (std::size_t q = 0; q < config_.tiers.size(); ++q) {
      for (std::uint32_t b : frame.bytes.at(q)) put_u32(out, b);
      for (std::uint32_t p : frame.points.at(q)) put_u32(out, p);
    }
  }
  put_u64(out, common::fnv1a(out));
  return out;
}

}  // namespace volcast::vv
