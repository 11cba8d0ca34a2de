// Joint multi-user viewport prediction (paper Section 4.1).
//
// Beyond running one predictor per user, the joint predictor uses the
// holistic multi-user view to do what per-user predictors cannot:
//   * user-user viewport occlusion — when another user's predicted body
//     stands between a viewer and a cell, that cell is not needed (AR
//     semantics: you would see the person, not the content);
//   * proactive mmWave blockage forecasting — when a user's predicted body
//     crosses the AP -> user line-of-sight of another user, the AP learns of
//     the impending rate drop *before* it happens and can prefetch or switch
//     beams (Section 4.1, "viewport prediction for proactive blockage
//     mitigation").
#pragma once

#include <memory>
#include <span>
#include <vector>

#include "geometry/pose.h"
#include "pointcloud/cell_grid.h"
#include "viewport/predictor.h"
#include "viewport/visibility.h"

namespace volcast::obs {
class Counter;
class MetricRegistry;
}  // namespace volcast::obs

namespace volcast::view {

/// Forecast of one mmWave line-of-sight blockage event.
struct BlockageForecast {
  std::size_t user = 0;      // whose link is (about to be) blocked
  std::size_t blocker = 0;   // which user's body causes it
  double clearance_m = 0.0;  // distance from blocker to the LoS segment
};

/// Everything the cross-layer scheduler needs per look-ahead step.
struct JointPrediction {
  std::vector<geo::Pose> poses;             // per user
  std::vector<VisibilityMap> visibility;    // per user, occlusion-aware
  std::vector<BlockageForecast> blockages;  // predicted LoS blockages
};

/// Joint predictor configuration.
struct JointPredictorConfig {
  std::string base_predictor = "linear-regression";
  VisibilityOptions visibility{};
  /// When true, other users' predicted bodies occlude viewports.
  bool user_occlusion = true;
  /// Body capsule used for both viewport occlusion and blockage forecasts.
  double body_radius_m = 0.25;
  double body_height_m = 1.8;
  /// AP (transmitter) position for blockage forecasting.
  geo::Vec3 ap_position{0.0, 0.0, 2.6};
  /// A forecast is emitted when a body comes within this XY clearance of a
  /// link's line of sight (first Fresnel zone scale at 60 GHz).
  double blockage_clearance_m = 0.35;
  /// Optional telemetry: counters for observations / predictions /
  /// blockage forecasts land here (atomic bumps only — no effect on the
  /// predictions themselves). The registry must outlive the predictor.
  obs::MetricRegistry* metrics = nullptr;
};

/// Per-user predictors + the joint reasoning layer.
class JointViewportPredictor {
 public:
  JointViewportPredictor(std::size_t user_count, JointPredictorConfig config);

  [[nodiscard]] std::size_t user_count() const noexcept {
    return predictors_.size();
  }
  [[nodiscard]] const JointPredictorConfig& config() const noexcept {
    return config_;
  }

  /// Feeds one synchronized observation (one pose per user) at time `t`.
  /// Throws std::invalid_argument when the pose count mismatches.
  void observe(double t, std::span<const geo::Pose> poses);

  /// Predicts all users `horizon_s` ahead and derives occlusion-aware
  /// visibility (against `grid`/`occupancy` of the target frame) plus
  /// blockage forecasts.
  [[nodiscard]] JointPrediction predict(
      double horizon_s, const vv::CellGrid& grid,
      std::span<const std::uint32_t> occupancy) const;

  /// Poses only (cheap variant for callers that do their own visibility).
  [[nodiscard]] std::vector<geo::Pose> predict_poses(double horizon_s) const;

  /// Forecasts blockages among an explicit set of poses — exposed for tests
  /// and for the mitigation ablation, which wants ground-truth poses.
  [[nodiscard]] std::vector<BlockageForecast> forecast_blockages(
      std::span<const geo::Pose> poses) const;

 private:
  JointPredictorConfig config_;
  std::vector<std::unique_ptr<ViewportPredictor>> predictors_;
  // Telemetry handles (null when config_.metrics is null).
  obs::Counter* observations_ = nullptr;
  obs::Counter* predictions_ = nullptr;
  obs::Counter* forecasts_ = nullptr;
};

}  // namespace volcast::view
