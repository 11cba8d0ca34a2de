// FNV-1a 64-bit hashing, the one implementation behind the library's
// content hashes and checksums: the workload bundle hash, the fleet
// fingerprint, the checkpoint checksum and the VideoStore blob checksum.
#pragma once

#include <cstdint>
#include <span>

namespace volcast::common {

/// Incremental FNV-1a64. Multi-byte values are fed little-endian, so a
/// digest does not depend on the host byte order.
class Fnv1a {
 public:
  constexpr void byte(std::uint8_t v) noexcept {
    h_ ^= v;
    h_ *= 0x100000001b3ULL;
  }
  constexpr void bytes(std::span<const std::uint8_t> data) noexcept {
    for (std::uint8_t v : data) byte(v);
  }
  constexpr void u64(std::uint64_t v) noexcept {
    for (int i = 0; i < 8; ++i) byte(static_cast<std::uint8_t>(v >> (8 * i)));
  }
  [[nodiscard]] constexpr std::uint64_t digest() const noexcept { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

/// FNV-1a64 of a byte span.
[[nodiscard]] constexpr std::uint64_t fnv1a(
    std::span<const std::uint8_t> data) noexcept {
  Fnv1a h;
  h.bytes(data);
  return h.digest();
}

}  // namespace volcast::common
