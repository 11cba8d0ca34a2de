#include "phy80211/capacity.h"

#include <algorithm>
#include <array>
#include <span>

namespace volcast::phy {
namespace {

// Aggregate goodput (Mbps) measured on the paper's testbed; index = number
// of users - 1. Derived from Table 1's per-user rates:
//   ac: 374x1, 180x2, 112x3   ->  374, 360, 336
//   ad: 1270x1, 575x2, 382x3, 298x4, 231x5, 175x6, 144x7
constexpr std::array<double, 3> kAcTotals{374.0, 360.0, 336.0};
constexpr std::array<double, 7> kAdTotals{1270.0, 1150.0, 1146.0, 1192.0,
                                          1155.0, 1050.0, 1008.0};

// Extrapolation beyond the measured range: MAC contention keeps shaving the
// aggregate; 3% per extra user with a floor at 60% of the last measurement.
constexpr double kExtrapolationDecay = 0.03;
constexpr double kExtrapolationFloor = 0.6;

double extrapolate(std::span<const double> totals, std::size_t users) {
  const double last = totals.back();
  const auto extra = static_cast<double>(users - totals.size());
  const double factor =
      std::max(1.0 - kExtrapolationDecay * extra, kExtrapolationFloor);
  return last * factor;
}

std::span<const double> table_for(WlanStandard standard) noexcept {
  return standard == WlanStandard::k80211ac ? std::span<const double>(kAcTotals)
                                            : std::span<const double>(kAdTotals);
}

}  // namespace

const char* to_string(WlanStandard standard) noexcept {
  return standard == WlanStandard::k80211ac ? "802.11ac" : "802.11ad";
}

double CapacityModel::total_goodput_mbps(WlanStandard standard,
                                         std::size_t users) noexcept {
  if (users == 0) return 0.0;
  const auto totals = table_for(standard);
  if (users <= totals.size()) return totals[users - 1];
  return extrapolate(totals, users);
}

double CapacityModel::per_user_goodput_mbps(WlanStandard standard,
                                            std::size_t users) noexcept {
  if (users == 0) return 0.0;
  return total_goodput_mbps(standard, users) / static_cast<double>(users);
}

double max_achievable_fps(double goodput_mbps, double bitrate_mbps,
                          double native_fps, double decode_cap_fps) noexcept {
  if (bitrate_mbps <= 0.0 || native_fps <= 0.0) return 0.0;
  const double network_fps = native_fps * goodput_mbps / bitrate_mbps;
  return std::min({network_fps, native_fps, decode_cap_fps});
}

}  // namespace volcast::phy
