// Cross-layer bandwidth prediction (paper Section 4.3).
//
// "We design a cross-layer bandwidth prediction scheme by combining the
// data rate indicators from the physical layer (blockage or mobility) and
// the application layer (buffer size or throughput)."
//
// Three estimator modes, so the rate-adaptation ablation can compare:
//   * kAppOnly    — harmonic mean of recent application-layer throughput
//                   samples (the classic client-side estimator);
//   * kPhyOnly    — the instantaneous PHY rate implied by RSS/MCS;
//   * kCrossLayer — application history rescaled by the ratio of the
//                   current PHY rate to the PHY rate those samples saw,
//                   discounted further when a blockage forecast is active.
//                   Reacts instantly to RSS drops (PHY term) without losing
//                   the MAC/contention realism of app-layer samples.
#pragma once

#include <cstddef>
#include <vector>

#include "common/ring_buffer.h"

namespace volcast::core {

enum class BandwidthEstimator {
  kAppOnly,
  kPhyOnly,
  kCrossLayer,
};

[[nodiscard]] const char* to_string(BandwidthEstimator mode) noexcept;

/// Per-link bandwidth predictor.
class BandwidthPredictor {
 public:
  explicit BandwidthPredictor(BandwidthEstimator mode,
                              std::size_t window = 8);

  /// Records one delivery interval: the application-layer goodput achieved
  /// and the PHY rate that was available during it.
  void observe(double app_goodput_mbps, double phy_rate_mbps);

  /// Tells the predictor the current PHY rate (updated every tick, even
  /// between deliveries) and whether a blockage is forecast imminently.
  void set_phy_state(double phy_rate_mbps, bool blockage_forecast);

  /// Predicted goodput for the next interval (Mbps). Returns the PHY rate
  /// until enough app samples exist.
  [[nodiscard]] double predict_mbps() const;

  [[nodiscard]] BandwidthEstimator mode() const noexcept { return mode_; }

 private:
  struct Sample {
    double app_mbps;
    double phy_mbps;
  };
  BandwidthEstimator mode_;
  RingBuffer<Sample> window_;
  double current_phy_mbps_ = 0.0;
  bool blockage_forecast_ = false;
  // predict_mbps's copy of the window's app samples, kept across calls.
  mutable std::vector<double> app_scratch_;

  /// Forecast discount: expected residual rate fraction under an imminent
  /// body blockage (calibrated to the partial-blockage channel model).
  static constexpr double kForecastDiscount = 0.35;
};

}  // namespace volcast::core
