// Content-server view of a volumetric video: for every frame, every cell and
// every quality tier, the number of points and the encoded size in bytes.
// This is what the streaming scheduler consumes — it never touches raw
// points on the hot path.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "pointcloud/cell_grid.h"
#include "pointcloud/codec.h"
#include "pointcloud/video_generator.h"

namespace volcast::common {
class ThreadPool;
}  // namespace volcast::common

namespace volcast::vv {

/// One quality tier of the stored video (e.g. the paper's 330K/430K/550K
/// points-per-frame versions).
struct QualityTier {
  std::string name;
  std::size_t points_per_frame = 0;
};

/// The paper's three quality tiers.
[[nodiscard]] std::vector<QualityTier> paper_quality_tiers();

/// Store construction options.
struct VideoStoreConfig {
  std::vector<QualityTier> tiers = paper_quality_tiers();
  CodecConfig codec{};
  /// When true every cell of every frame is range-coded exactly (slow; for
  /// tests and the codec bench). When false, `sample_frames` frames are
  /// encoded exactly and a linear bytes-vs-points model fitted from them
  /// sizes the remaining frames (fast; for system benches).
  bool exact = false;
  std::size_t sample_frames = 2;
  /// Optional worker pool: independent frames are precomputed in parallel,
  /// and with more than one worker the serial sample frames size their
  /// (tier, cell) pairs in parallel (bit-identical tables — each frame and
  /// each pair fills its own slot; the size model is still fitted from the
  /// sample frames in frame, tier, cell order). The pool must outlive
  /// construction.
  common::ThreadPool* pool = nullptr;
};

/// Precomputed per-frame/per-tier/per-cell sizes of a generated video.
///
/// Thread safety: once constructed, a VideoStore is
/// immutable — every public member function is const and reads only state
/// written during construction. Any number of threads may query one store
/// concurrently without synchronization. This is what lets a shared
/// core::WorkloadBundle serve one store to a whole fleet of sessions. The
/// store aliases the CellGrid passed to its constructor (it keeps a
/// pointer, not a copy), so the grid must outlive it and must be equally
/// immutable for the guarantee to hold.
class VideoStore {
 public:
  /// Builds the store: the sample frames (every frame when `exact`) are
  /// generated, bucketed by cell once and sized cell by cell per tier; the
  /// other frames only count each tier's points per cell.
  /// Throws std::invalid_argument for an empty tier list, more than 64
  /// tiers or tiers exceeding the generator's points_per_frame.
  VideoStore(const VideoGenerator& generator, const CellGrid& grid,
             VideoStoreConfig config = {});

  [[nodiscard]] const CellGrid& grid() const noexcept { return *grid_; }
  [[nodiscard]] std::size_t frame_count() const noexcept {
    return frames_.size();
  }
  [[nodiscard]] std::size_t tier_count() const noexcept {
    return config_.tiers.size();
  }
  [[nodiscard]] const std::vector<QualityTier>& tiers() const noexcept {
    return config_.tiers;
  }
  [[nodiscard]] double fps() const noexcept { return fps_; }

  /// Encoded bytes of one cell (0 for empty cells).
  [[nodiscard]] std::size_t cell_bytes(std::size_t frame, std::size_t tier,
                                       CellId cell) const;
  /// Point count of one cell.
  [[nodiscard]] std::uint32_t cell_points(std::size_t frame, std::size_t tier,
                                          CellId cell) const;
  /// Point counts of every cell of one frame at one tier, indexed by
  /// CellId (a view of the table cell_points() reads; valid for the
  /// store's lifetime).
  [[nodiscard]] std::span<const std::uint32_t> tier_points(
      std::size_t frame, std::size_t tier) const;
  /// Total encoded bytes of a frame at a tier.
  [[nodiscard]] std::size_t frame_bytes(std::size_t frame,
                                        std::size_t tier) const;
  /// Mean stream bitrate of a tier in Mbps at the video frame rate.
  [[nodiscard]] double tier_bitrate_mbps(std::size_t tier) const;
  /// Mean encoded bits per point at a tier (codec efficiency metric).
  [[nodiscard]] double tier_bits_per_point(std::size_t tier) const;

  /// The store's fingerprint: fps, tiers and every size table as one
  /// binary blob ("VSTR") ending in its FNV-1a checksum. Two stores have
  /// equal blobs exactly when their tables are equal.
  [[nodiscard]] std::vector<std::uint8_t> serialize() const;

 private:
  struct FrameSizes {
    // [tier][cell]
    std::vector<std::vector<std::uint32_t>> bytes;
    std::vector<std::vector<std::uint32_t>> points;
  };

  VideoStoreConfig config_;
  const CellGrid* grid_ = nullptr;
  double fps_ = 30.0;
  std::vector<FrameSizes> frames_;
};

}  // namespace volcast::vv
