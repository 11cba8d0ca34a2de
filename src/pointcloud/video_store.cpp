#include "pointcloud/video_store.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>
#include <stdexcept>

#include "common/endian.h"
#include "common/stats.h"
#include "common/thread_pool.h"
#include "common/units.h"

namespace volcast::vv {

std::vector<QualityTier> paper_quality_tiers() {
  return {{"330K", 330'000}, {"430K", 430'000}, {"550K", 550'000}};
}

namespace {

/// Encodes each occupied cell of `frame` exactly into its per-cell byte
/// and point slots. SoA path: one counting-sort bucketing (no per-cell
/// vectors), then a contiguous gather per occupied cell. Gather order
/// equals the old assign()+add loop, so the per-cell blobs are
/// byte-identical. With a pool, cells are claimed one at a time by the
/// pool's lanes; each writes only its own slots, so the tables do not
/// depend on the lane count.
void encode_frame_exact(const FrameSoA& frame, const CellGrid& grid,
                        const VideoStoreConfig& config,
                        std::vector<std::uint32_t>& bytes_out,
                        std::vector<std::uint32_t>& points_out,
                        common::ThreadPool* pool) {
  const FlatAssignment buckets = grid.assign_flat(frame);
  bytes_out.assign(grid.cell_count(), 0);
  points_out.assign(grid.cell_count(), 0);
  std::vector<CellId> occupied;
  for (CellId c = 0; c < grid.cell_count(); ++c)
    if (!buckets.cell(c).empty()) occupied.push_back(c);
  const auto encode_cell = [&](std::size_t k) {
    const CellId c = occupied[k];
    const auto indices = buckets.cell(c);
    const FrameSoA cell_frame = frame.gather(indices);
    const auto blob = encode(cell_frame, config.codec);
    bytes_out[c] = static_cast<std::uint32_t>(blob.size());
    points_out[c] = static_cast<std::uint32_t>(indices.size());
  };
  if (pool != nullptr) {
    pool->parallel_tasks(occupied.size(), encode_cell);
  } else {
    for (std::size_t k = 0; k < occupied.size(); ++k) encode_cell(k);
  }
}

}  // namespace

VideoStore::VideoStore(const VideoGenerator& generator, const CellGrid& grid,
                       VideoStoreConfig config)
    : config_(std::move(config)), grid_(&grid), fps_(generator.config().fps) {
  if (config_.tiers.empty())
    throw std::invalid_argument("VideoStore: no quality tiers");
  const std::size_t master_points = generator.config().points_per_frame;
  for (const QualityTier& tier : config_.tiers) {
    if (tier.points_per_frame == 0 || tier.points_per_frame > master_points)
      throw std::invalid_argument(
          "VideoStore: tier point count must be in (0, generator points]");
  }

  const std::size_t n_frames = generator.config().frame_count;
  const std::size_t n_tiers = config_.tiers.size();
  frames_.resize(n_frames);

  std::vector<ThinFilter> filters;
  std::vector<double> fractions;
  for (const QualityTier& tier : config_.tiers) {
    fractions.push_back(static_cast<double>(tier.points_per_frame) /
                        static_cast<double>(master_points));
    filters.emplace_back(fractions.back());
  }

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
  // fit in frame order, then cell order), then the modeled remainder fans
  // out.
  //
  // An exact frame generates the master frame, thins it once per tier,
  // buckets each tier by cell and encodes every occupied cell.
  const auto build_exact_frame = [&](std::size_t f,
                                     common::ThreadPool* cell_pool) {
    const FrameSoA master = generator.frame_soa(f);
    FrameSizes& sizes = frames_[f];
    sizes.bytes.resize(n_tiers);
    sizes.points.resize(n_tiers);
    for (std::size_t q = 0; q < n_tiers; ++q)
      encode_frame_exact(thin(master, fractions[q]), grid, config_,
                         sizes.bytes[q], sizes.points[q], cell_pool);
  };
  // A modeled frame needs only per-cell point counts, so it makes one pass
  // over the master positions and counts each point into every tier that
  // keeps it. That equals occupancy(thin(master, fraction)) per tier:
  // thinning tests the point index alone, and locate() is the per-point
  // form of the locate_batch() that occupancy() runs. Bytes come from the
  // fit.
  const auto build_modeled_frame = [&](std::size_t f) {
    std::vector<double> x;
    std::vector<double> y;
    std::vector<double> z;
    generator.positions(f, x, y, z);
    FrameSizes& sizes = frames_[f];
    sizes.points.assign(n_tiers,
                        std::vector<std::uint32_t>(grid.cell_count(), 0));
    std::vector<std::uint32_t*> rows(n_tiers);
    for (std::size_t q = 0; q < n_tiers; ++q) rows[q] = sizes.points[q].data();
    for (std::uint32_t i = 0; i < x.size(); ++i) {
      const CellId id = grid.locate({x[i], y[i], z[i]});
      for (std::size_t q = 0; q < n_tiers; ++q)
        if (filters[q].keeps(i)) ++rows[q][id];
    }
    sizes.bytes.assign(n_tiers,
                       std::vector<std::uint32_t>(grid.cell_count(), 0));
    const auto floor_bytes = static_cast<double>(kCodecHeaderBytes);
    for (std::size_t q = 0; q < n_tiers; ++q) {
      for (CellId c = 0; c < grid.cell_count(); ++c) {
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
  } else {
    // The serial sample frames spread their cells over the pool instead.
    common::ThreadPool* cell_pool =
        config_.pool != nullptr && config_.pool->thread_count() > 1
            ? config_.pool
            : nullptr;
    std::vector<std::vector<double>> model_points(n_tiers);
    std::vector<std::vector<double>> model_bytes(n_tiers);
    for (std::size_t f = 0; f < sample_count; ++f) {
      build_exact_frame(f, cell_pool);
      for (std::size_t q = 0; q < n_tiers; ++q) {
        const FrameSizes& sizes = frames_[f];
        for (CellId c = 0; c < grid.cell_count(); ++c) {
          if (sizes.points[q][c] == 0) continue;
          model_points[q].push_back(static_cast<double>(sizes.points[q][c]));
          model_bytes[q].push_back(static_cast<double>(sizes.bytes[q][c]));
        }
      }
    }
    for (std::size_t q = 0; q < n_tiers; ++q)
      fits[q] = fit_line(model_points[q], model_bytes[q]);
    common::ThreadPool::run(config_.pool, n_frames - sample_count,
                            [&](std::size_t i) {
                              build_modeled_frame(sample_count + i);
                            });
  }
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
constexpr std::size_t kMaxTiers = 64;
constexpr std::size_t kMaxFrames = 1u << 20;
constexpr std::size_t kMaxNameLen = 256;

std::uint64_t fnv1a(std::span<const std::uint8_t> data) noexcept {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (std::uint8_t b : data) {
    h ^= b;
    h *= 0x100000001b3ULL;
  }
  return h;
}

using common::put_u32;
using common::put_u64;

/// Bounds-checked little-endian reader; every decode failure throws.
class Reader {
 public:
  explicit Reader(std::span<const std::uint8_t> data) : data_(data) {}

  std::uint32_t u32() {
    need(4);
    const std::uint32_t v = common::get_u32(data_, pos_);
    pos_ += 4;
    return v;
  }
  std::uint64_t u64() {
    need(8);
    const std::uint64_t v = common::get_u64(data_, pos_);
    pos_ += 8;
    return v;
  }
  std::string str(std::size_t len) {
    need(len);
    std::string s(reinterpret_cast<const char*>(data_.data() + pos_), len);
    pos_ += len;
    return s;
  }
  [[nodiscard]] std::size_t pos() const noexcept { return pos_; }

 private:
  void need(std::size_t bytes) const {
    if (pos_ + bytes > data_.size())
      throw std::runtime_error("VideoStore: truncated blob");
  }
  std::span<const std::uint8_t> data_;
  std::size_t pos_ = 0;
};

}  // namespace

std::vector<std::uint8_t> VideoStore::serialize() const {
  std::vector<std::uint8_t> out;
  for (std::uint8_t b : kStoreMagic) out.push_back(b);
  put_u32(out, kStoreVersion);
  common::put_f64(out, fps_);
  put_u32(out, static_cast<std::uint32_t>(config_.tiers.size()));
  put_u32(out, static_cast<std::uint32_t>(frames_.size()));
  put_u64(out, grid_ != nullptr ? grid_->cell_count() : 0);
  for (const QualityTier& tier : config_.tiers) {
    put_u32(out, static_cast<std::uint32_t>(tier.name.size()));
    out.insert(out.end(), tier.name.begin(), tier.name.end());
    put_u64(out, tier.points_per_frame);
  }
  for (const FrameSizes& frame : frames_) {
    for (std::size_t q = 0; q < config_.tiers.size(); ++q) {
      for (std::uint32_t b : frame.bytes.at(q)) put_u32(out, b);
      for (std::uint32_t p : frame.points.at(q)) put_u32(out, p);
    }
  }
  put_u64(out, fnv1a(out));
  return out;
}

VideoStore VideoStore::deserialize(const CellGrid& grid,
                                   std::span<const std::uint8_t> blob) {
  if (blob.size() < sizeof kStoreMagic + 8)
    throw std::runtime_error("VideoStore: blob too small");
  Reader checksum_reader(blob.subspan(blob.size() - 8));
  const std::uint64_t expected = checksum_reader.u64();
  if (fnv1a(blob.subspan(0, blob.size() - 8)) != expected)
    throw std::runtime_error("VideoStore: checksum mismatch");

  Reader in(blob.subspan(0, blob.size() - 8));
  if (std::memcmp(in.str(4).data(), kStoreMagic, 4) != 0)
    throw std::runtime_error("VideoStore: bad magic");
  if (in.u32() != kStoreVersion)
    throw std::runtime_error("VideoStore: unsupported version");
  VideoStore store;
  const double fps = std::bit_cast<double>(in.u64());
  if (!(fps > 0.0) || !std::isfinite(fps))
    throw std::runtime_error("VideoStore: invalid fps");
  store.fps_ = fps;
  const std::size_t n_tiers = in.u32();
  const std::size_t n_frames = in.u32();
  const std::uint64_t n_cells = in.u64();
  if (n_tiers == 0 || n_tiers > kMaxTiers)
    throw std::runtime_error("VideoStore: tier count out of range");
  if (n_frames > kMaxFrames)
    throw std::runtime_error("VideoStore: frame count out of range");
  if (n_cells != grid.cell_count())
    throw std::runtime_error("VideoStore: cell count does not match grid");
  store.config_.tiers.clear();
  for (std::size_t q = 0; q < n_tiers; ++q) {
    const std::size_t name_len = in.u32();
    if (name_len > kMaxNameLen)
      throw std::runtime_error("VideoStore: tier name too long");
    QualityTier tier;
    tier.name = in.str(name_len);
    tier.points_per_frame = in.u64();
    store.config_.tiers.push_back(std::move(tier));
  }
  store.grid_ = &grid;
  store.frames_.resize(n_frames);
  for (FrameSizes& frame : store.frames_) {
    frame.bytes.resize(n_tiers);
    frame.points.resize(n_tiers);
    for (std::size_t q = 0; q < n_tiers; ++q) {
      frame.bytes[q].resize(n_cells);
      for (std::uint64_t c = 0; c < n_cells; ++c) frame.bytes[q][c] = in.u32();
      frame.points[q].resize(n_cells);
      for (std::uint64_t c = 0; c < n_cells; ++c)
        frame.points[q][c] = in.u32();
    }
  }
  if (in.pos() != blob.size() - 8)
    throw std::runtime_error("VideoStore: trailing bytes in blob");
  return store;
}

}  // namespace volcast::vv
