// Session-lifetime tile accounting.
//
// A *tile* is one cell at one quality tier of one video frame: the unit a
// tiled server encodes independently and splices into per-viewer frames.
// Which tiles a session must encode is decided by which (frame, tier,
// cell) keys it touches first, never by payload bytes, so tiling is pure
// bookkeeping (see core/stages/tiling_stage.h).
#pragma once

#include <cstdint>

namespace volcast::vv {

/// Tile totals folded into SessionResult. Counted from session-local
/// first-touch state, so the report is deterministic at any parallelism.
struct TileReport {
  std::uint64_t requests = 0;        // tiles assembled into user frames
  std::uint64_t encoded_tiles = 0;   // first touches (distinct tiles)
  std::uint64_t stitched_tiles = 0;  // repeats served from encoded output
  std::uint64_t encoded_bytes = 0;   // bytes the session had to encode
  std::uint64_t stitched_bytes = 0;  // encode bytes saved by stitching

  bool operator==(const TileReport&) const = default;
};

}  // namespace volcast::vv
