// Little-endian (de)serialization helpers shared by every binary format in
// the tree (point-cloud codecs, the VideoStore blob, trace files).
//
// All values are stored little-endian regardless of host byte order. On
// little-endian hosts every helper compiles to a single std::memcpy (which
// the optimizer turns into an unaligned load/store) instead of the
// byte-at-a-time shift loops these replaced.
#pragma once

#include <bit>
#include <cstdint>
#include <cstring>
#include <span>
#include <vector>

namespace volcast::common {

namespace detail {

template <typename T>
[[nodiscard]] constexpr T byteswap(T v) noexcept {
  static_assert(std::is_unsigned_v<T>);
  T out = 0;
  for (std::size_t i = 0; i < sizeof(T); ++i) {
    out = static_cast<T>(out << 8);
    out = static_cast<T>(out | ((v >> (8 * i)) & 0xff));
  }
  return out;
}

template <typename T>
[[nodiscard]] constexpr T to_little(T v) noexcept {
  if constexpr (std::endian::native == std::endian::big)
    return byteswap(v);
  else
    return v;
}

}  // namespace detail

/// Appends the `size` bytes at `data` to `out`. Grows the vector, then
/// copies: GCC 12 at -O3 misreads an inlined vector::insert of a few bytes
/// as an overflow (-Wstringop-overflow / -Wstringop-overread).
inline void append_bytes(std::vector<std::uint8_t>& out, const void* data,
                         std::size_t size) {
  if (size == 0) return;
  const std::size_t at = out.size();
  out.resize(at + size);
  std::memcpy(out.data() + at, data, size);
}

/// Appends `v` to `out` as `sizeof(T)` little-endian bytes.
template <typename T>
inline void append_le(std::vector<std::uint8_t>& out, T v) {
  static_assert(std::is_unsigned_v<T>);
  const T le = detail::to_little(v);
  append_bytes(out, &le, sizeof(T));
}

/// Reads a little-endian `T` from `in` at byte offset `at`.
/// Callers are responsible for bounds (at + sizeof(T) <= in.size()).
template <typename T>
[[nodiscard]] inline T read_le(std::span<const std::uint8_t> in,
                               std::size_t at) noexcept {
  static_assert(std::is_unsigned_v<T>);
  T v;
  std::memcpy(&v, in.data() + at, sizeof(T));
  return detail::to_little(v);
}

inline void put_u16(std::vector<std::uint8_t>& out, std::uint16_t v) {
  append_le(out, v);
}
inline void put_u32(std::vector<std::uint8_t>& out, std::uint32_t v) {
  append_le(out, v);
}
inline void put_u64(std::vector<std::uint8_t>& out, std::uint64_t v) {
  append_le(out, v);
}
inline void put_f64(std::vector<std::uint8_t>& out, double v) {
  append_le(out, std::bit_cast<std::uint64_t>(v));
}

[[nodiscard]] inline std::uint16_t get_u16(std::span<const std::uint8_t> in,
                                           std::size_t at) noexcept {
  return read_le<std::uint16_t>(in, at);
}
[[nodiscard]] inline std::uint32_t get_u32(std::span<const std::uint8_t> in,
                                           std::size_t at) noexcept {
  return read_le<std::uint32_t>(in, at);
}
[[nodiscard]] inline std::uint64_t get_u64(std::span<const std::uint8_t> in,
                                           std::size_t at) noexcept {
  return read_le<std::uint64_t>(in, at);
}
[[nodiscard]] inline double get_f64(std::span<const std::uint8_t> in,
                                    std::size_t at) noexcept {
  return std::bit_cast<double>(read_le<std::uint64_t>(in, at));
}

}  // namespace volcast::common
