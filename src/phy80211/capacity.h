// Multi-user WLAN goodput model for the paper's Table 1 testbed.
//
// The paper measures aggregate/unicast goodput of its 802.11ac and 802.11ad
// links directly ("when serving a single user, the throughput is around 374
// Mbps for 802.11ac and 1270 Mbps for 802.11ad"), and Table 1's second
// column gives the measured per-user rate for every user count. Those
// measurements ARE the ground truth this model reproduces: aggregate
// efficiency factors are calibrated to the paper's numbers, and user counts
// beyond the measured range extrapolate with a gentle contention decay.
//
// The frame-rate model converts per-user goodput to the maximum achievable
// FPS exactly as the benchmark does: a viewer needs (bitrate / 30) bits per
// frame; the client decode ceiling caps everything at 30 FPS.
#pragma once

#include <cstddef>

namespace volcast::phy {

/// Which WLAN the testbed uses.
enum class WlanStandard {
  k80211ac,  // 5 GHz, 80 MHz
  k80211ad,  // 60 GHz mmWave
};

[[nodiscard]] const char* to_string(WlanStandard standard) noexcept;

/// Calibrated multi-user goodput tables.
class CapacityModel {
 public:
  /// Aggregate MAC goodput with `users` saturated unicast receivers (Mbps).
  /// `users` == 0 returns 0.
  [[nodiscard]] static double total_goodput_mbps(WlanStandard standard,
                                                 std::size_t users) noexcept;

  /// Per-user share (total / users); matches Table 1 column 2 within the
  /// calibrated range.
  [[nodiscard]] static double per_user_goodput_mbps(WlanStandard standard,
                                                    std::size_t users) noexcept;
};

/// Maximum achievable frame rate for a stream of `bitrate_mbps` (encoded at
/// `native_fps`) delivered at `goodput_mbps`, capped by the client decode
/// ceiling (the Table 1 experiment is capped at 30 FPS).
[[nodiscard]] double max_achievable_fps(double goodput_mbps,
                                        double bitrate_mbps,
                                        double native_fps = 30.0,
                                        double decode_cap_fps = 30.0) noexcept;

}  // namespace volcast::phy
