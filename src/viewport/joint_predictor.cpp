#include "viewport/joint_predictor.h"

#include <stdexcept>

#include "obs/metrics.h"

namespace volcast::view {

JointViewportPredictor::JointViewportPredictor(std::size_t user_count,
                                               JointPredictorConfig config)
    : config_(std::move(config)) {
  predictors_.reserve(user_count);
  for (std::size_t u = 0; u < user_count; ++u)
    predictors_.push_back(make_predictor(config_.base_predictor));
  if (config_.metrics != nullptr) {
    observations_ = &config_.metrics->counter("viewport.observations");
    predictions_ = &config_.metrics->counter("viewport.predictions");
    forecasts_ = &config_.metrics->counter("viewport.blockage_forecasts");
  }
}

void JointViewportPredictor::observe(double t,
                                     std::span<const geo::Pose> poses) {
  if (poses.size() != predictors_.size())
    throw std::invalid_argument("JointViewportPredictor: pose count mismatch");
  for (std::size_t u = 0; u < poses.size(); ++u)
    predictors_[u]->observe(t, poses[u]);
  if (observations_ != nullptr) observations_->add(poses.size());
}

std::vector<geo::Pose> JointViewportPredictor::predict_poses(
    double horizon_s) const {
  std::vector<geo::Pose> out;
  out.reserve(predictors_.size());
  for (const auto& p : predictors_) out.push_back(p->predict(horizon_s));
  return out;
}

std::vector<BlockageForecast> JointViewportPredictor::forecast_blockages(
    std::span<const geo::Pose> poses) const {
  std::vector<BlockageForecast> out;
  for (std::size_t user = 0; user < poses.size(); ++user) {
    for (std::size_t blocker = 0; blocker < poses.size(); ++blocker) {
      if (blocker == user) continue;
      BodyObstacle body;
      body.position = poses[blocker].position;
      body.radius_m = config_.blockage_clearance_m;  // Fresnel-padded radius
      body.height_m = config_.body_height_m;
      if (segment_hits_body(config_.ap_position, poses[user].position, body)) {
        // Clearance: XY distance from the blocker to the LoS segment.
        BodyObstacle tight = body;
        double lo = 0.0;
        double hi = body.radius_m;
        // Bisect the radius at which the body stops hitting the segment —
        // that radius is exactly the clearance.
        for (int i = 0; i < 20; ++i) {
          const double mid = 0.5 * (lo + hi);
          tight.radius_m = mid;
          if (segment_hits_body(config_.ap_position, poses[user].position,
                                tight)) {
            hi = mid;
          } else {
            lo = mid;
          }
        }
        out.push_back({user, blocker, hi});
      }
    }
  }
  return out;
}

JointPrediction JointViewportPredictor::predict(
    double horizon_s, const vv::CellGrid& grid,
    std::span<const std::uint32_t> occupancy) const {
  JointPrediction result;
  result.poses = predict_poses(horizon_s);

  // Per-user visibility is the hot part of every tick: each user's map
  // depends only on the (already predicted) poses.
  result.visibility.reserve(result.poses.size());
  std::vector<BodyObstacle> others;  // every user's, refilled per user
  others.reserve(result.poses.size());
  for (std::size_t u = 0; u < result.poses.size(); ++u) {
    others.clear();
    if (config_.user_occlusion) {
      for (std::size_t v = 0; v < result.poses.size(); ++v) {
        if (v == u) continue;
        others.push_back({result.poses[v].position, config_.body_radius_m,
                          config_.body_height_m});
      }
    }
    result.visibility.push_back(compute_visibility(
        grid, occupancy, result.poses[u], config_.visibility, others));
  }

  result.blockages = forecast_blockages(result.poses);
  if (predictions_ != nullptr) predictions_->add(result.poses.size());
  if (forecasts_ != nullptr) forecasts_->add(result.blockages.size());
  return result;
}

}  // namespace volcast::view
