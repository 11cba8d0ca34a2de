#include "core/bandwidth_predictor.h"

#include <algorithm>
#include <vector>

#include "common/stats.h"

namespace volcast::core {

const char* to_string(BandwidthEstimator mode) noexcept {
  switch (mode) {
    case BandwidthEstimator::kAppOnly:
      return "app-only";
    case BandwidthEstimator::kPhyOnly:
      return "phy-only";
    case BandwidthEstimator::kCrossLayer:
      return "cross-layer";
  }
  return "?";
}

BandwidthPredictor::BandwidthPredictor(BandwidthEstimator mode,
                                       std::size_t window)
    : mode_(mode), window_(std::max<std::size_t>(window, 1)) {}

void BandwidthPredictor::observe(double app_goodput_mbps,
                                 double phy_rate_mbps) {
  window_.push({app_goodput_mbps, phy_rate_mbps});
  current_phy_mbps_ = phy_rate_mbps;
}

void BandwidthPredictor::set_phy_state(double phy_rate_mbps,
                                       bool blockage_forecast) {
  current_phy_mbps_ = phy_rate_mbps;
  blockage_forecast_ = blockage_forecast;
}

double BandwidthPredictor::predict_mbps() const {
  if (window_.empty()) return current_phy_mbps_;

  std::vector<double>& app = app_scratch_;
  app.clear();
  double mean_phy = 0.0;
  for (std::size_t i = 0; i < window_.size(); ++i) {
    app.push_back(window_[i].app_mbps);
    mean_phy += window_[i].phy_mbps;
  }
  mean_phy /= static_cast<double>(window_.size());
  const double app_estimate = harmonic_mean(app);

  switch (mode_) {
    case BandwidthEstimator::kAppOnly:
      return app_estimate;
    case BandwidthEstimator::kPhyOnly:
      return blockage_forecast_ ? current_phy_mbps_ * kForecastDiscount
                                : current_phy_mbps_;
    case BandwidthEstimator::kCrossLayer: {
      // App history rescaled by how the channel has moved since: if RSS just
      // collapsed, the PHY ratio pulls the estimate down this tick instead
      // of waiting a window's worth of bad samples.
      const double ratio =
          mean_phy > 0.0
              ? std::clamp(current_phy_mbps_ / mean_phy, 0.05, 2.0)
              : 1.0;
      double estimate = app_estimate * ratio;
      if (blockage_forecast_) estimate *= kForecastDiscount;
      return estimate;
    }
  }
  return app_estimate;
}

}  // namespace volcast::core
