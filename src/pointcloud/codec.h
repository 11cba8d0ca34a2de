// Point-cloud codec: the role Google Draco plays in the paper's pipeline.
//
// Pipeline (encode): quantize positions to `quant_bits` per axis over the
// cloud bounds -> sort by Morton code -> delta the codes -> entropy-code the
// deltas and per-channel color deltas with an adaptive binary range coder.
//
// Properties the streaming system relies on:
//  * each encoded blob is self-contained (a cell can be decoded alone),
//  * decode_soa(encode(x)) reproduces the quantized frame exactly (lossless
//    in the quantized domain; position error is bounded by half a
//    quantization step),
//  * the compressed rate lands in the ~20-25 bits/point regime that the
//    paper's 235-364 Mbps bitrates imply for 330K-550K point frames.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "pointcloud/point_cloud.h"

namespace volcast::vv {

/// Codec tuning knobs.
struct CodecConfig {
  /// Target spatial resolution (quantization step) in metres. When > 0 the
  /// per-axis bit depth is derived from the cloud extent so that the step is
  /// at most this value (capped at 21 bits); voxelized datasets such as 8i
  /// are defined by resolution, not bit depth, and deriving bits per blob
  /// keeps small cells from wasting bits. When <= 0, `quant_bits` is used
  /// directly.
  double resolution_m = 0.0012;
  /// Fallback / explicit position quantization bits per axis (1..21).
  unsigned quant_bits = 11;
  /// When false, colors are dropped and reconstructed as mid-grey; used by
  /// ablations to isolate geometry cost.
  bool encode_colors = true;
};

/// Encodes a frame into a self-contained blob. Empty frames are valid.
/// Throws std::invalid_argument for out-of-range quant_bits. Per-axis
/// quantization and Morton batching run over contiguous columns.
[[nodiscard]] std::vector<std::uint8_t> encode(const FrameSoA& frame,
                                               const CodecConfig& config = {});

/// encode(frame, config).size(), without producing the bytes: the same
/// pipeline drives a range coder that only counts its output. The video
/// store sizes its exactly encoded cells with this.
[[nodiscard]] std::size_t encoded_size(const FrameSoA& frame,
                                       const CodecConfig& config = {});

/// Decodes a blob produced by encode() into frame columns; the codec's
/// round-trip reference (the store only sizes blobs). Throws
/// std::runtime_error on a malformed header.
[[nodiscard]] FrameSoA decode_soa(std::span<const std::uint8_t> data);

namespace detail {

/// The encoder's quantizer for one coordinate column: with
/// x = (v[i] - lo) * (max_q / len), q[i] = clamp(round(x), 0, max_q) for
/// every finite x (a NaN x gives 0), and every q[i] is 0 when len <= 0.
/// `max_q` is a whole number below 2^31. It clamps x to [0, max_q] first,
/// as CellGrid::locate does, then rounds half away from zero: with
/// t = trunc(x) as int32, it adds (x - t >= 0.5), computed as
/// trunc(2 (x - t)), which is exact for x >= 0. Unlike std::round, a libm
/// call on SSE2, every step has a packed form, so the loop vectorizes.
void quantize_column(std::span<const double> v, double lo, double len,
                     double max_q, std::uint32_t* q) noexcept;

}  // namespace detail

/// Size of the fixed header every blob starts with (encoded_size() adds
/// the payload to it).
inline constexpr std::size_t kCodecHeaderBytes = 4 + 4 + 1 + 1 + 6 * 8;

}  // namespace volcast::vv
