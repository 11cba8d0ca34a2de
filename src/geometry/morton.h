// 3D Morton (Z-order) codes. The point-cloud codec sorts quantized points in
// Morton order so that delta coding sees spatially coherent (small) gaps —
// the spatial locality that tree-based geometry coders such as Draco exploit.
#pragma once

#include <cstdint>

namespace volcast::geo {

/// Spreads the low 21 bits of x so there are two zero bits between each
/// payload bit (enough for 21-bit-per-axis 63-bit Morton codes).
[[nodiscard]] constexpr std::uint64_t morton_spread(std::uint64_t x) noexcept {
  x &= 0x1fffff;  // 21 bits
  x = (x | (x << 32)) & 0x1f00000000ffffULL;
  x = (x | (x << 16)) & 0x1f0000ff0000ffULL;
  x = (x | (x << 8)) & 0x100f00f00f00f00fULL;
  x = (x | (x << 4)) & 0x10c30c30c30c30c3ULL;
  x = (x | (x << 2)) & 0x1249249249249249ULL;
  return x;
}

/// Inverse of morton_spread.
[[nodiscard]] constexpr std::uint64_t morton_compact(std::uint64_t x) noexcept {
  x &= 0x1249249249249249ULL;
  x = (x ^ (x >> 2)) & 0x10c30c30c30c30c3ULL;
  x = (x ^ (x >> 4)) & 0x100f00f00f00f00fULL;
  x = (x ^ (x >> 8)) & 0x1f0000ff0000ffULL;
  x = (x ^ (x >> 16)) & 0x1f00000000ffffULL;
  x = (x ^ (x >> 32)) & 0x1fffff;
  return x;
}

/// Interleaves three 21-bit coordinates into one 63-bit Morton code.
[[nodiscard]] constexpr std::uint64_t morton_encode(std::uint32_t x,
                                                    std::uint32_t y,
                                                    std::uint32_t z) noexcept {
  return morton_spread(x) | (morton_spread(y) << 1) | (morton_spread(z) << 2);
}

/// Recovers the three coordinates from a Morton code.
struct MortonCoords {
  std::uint32_t x = 0;
  std::uint32_t y = 0;
  std::uint32_t z = 0;
};

[[nodiscard]] constexpr MortonCoords morton_decode(std::uint64_t code) noexcept {
  return {static_cast<std::uint32_t>(morton_compact(code)),
          static_cast<std::uint32_t>(morton_compact(code >> 1)),
          static_cast<std::uint32_t>(morton_compact(code >> 2))};
}

// Batched column forms for structure-of-arrays pipelines. The bodies are
// pure shift/mask chains with no branches or cross-iteration state, so the
// compiler vectorizes the loops; keeping them here (instead of at call
// sites) gives the codec one shared, tested kernel.

/// codes[i] = morton_encode(x[i], y[i], z[i]) for i in [0, n).
inline void morton_encode_batch(const std::uint32_t* x, const std::uint32_t* y,
                                const std::uint32_t* z, std::uint64_t* codes,
                                std::size_t n) noexcept {
  for (std::size_t i = 0; i < n; ++i)
    codes[i] = morton_encode(x[i], y[i], z[i]);
}

/// One decoded axis of a code column: out[i] = compact(codes[i] >> shift),
/// with shift 0/1/2 selecting x/y/z. Split per axis so the dequantization
/// that follows also runs one contiguous column at a time.
inline void morton_compact_batch(const std::uint64_t* codes, unsigned shift,
                                 std::uint32_t* out, std::size_t n) noexcept {
  for (std::size_t i = 0; i < n; ++i)
    out[i] = static_cast<std::uint32_t>(morton_compact(codes[i] >> shift));
}

}  // namespace volcast::geo
