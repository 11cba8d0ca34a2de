#include "viewport/predictor.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <span>
#include <stdexcept>
#include <vector>

#include "common/rng.h"
#include "common/stats.h"

namespace volcast::view {

// ---------------------------------------------------------------- Static

void StaticPredictor::observe(double /*t*/, const geo::Pose& pose) {
  last_ = pose;
  has_observation_ = true;
}

geo::Pose StaticPredictor::predict(double /*horizon_s*/) const {
  return last_;
}

// ------------------------------------------------------ ConstantVelocity

void ConstantVelocityPredictor::observe(double t, const geo::Pose& pose) {
  if (observations_ > 0) dt_ = t - last_t_;
  prev_ = last_;
  last_ = pose;
  last_t_ = t;
  ++observations_;
}

geo::Pose ConstantVelocityPredictor::predict(double horizon_s) const {
  if (observations_ < 2 || dt_ <= 0.0) return last_;
  const double scale = horizon_s / dt_;
  geo::Pose out;
  out.position =
      last_.position + (last_.position - prev_.position) * scale;
  // Rotation: apply the last inter-sample delta rotation `scale` times,
  // with the fractional remainder applied via slerp from identity. Capped
  // at 4 full deltas so a long horizon cannot spin the viewport.
  const geo::Quat delta =
      (last_.orientation * prev_.orientation.conjugate()).normalized();
  double remaining = std::min(scale, 4.0);
  geo::Quat total{};
  while (remaining > 1.0) {
    total = (delta * total).normalized();
    remaining -= 1.0;
  }
  total = (slerp(geo::Quat{}, delta, remaining) * total).normalized();
  out.orientation = (total * last_.orientation).normalized();
  return out;
}

// ------------------------------------------------------ LinearRegression

LinearRegressionPredictor::LinearRegressionPredictor(std::size_t window,
                                                     double target_distance_m)
    : window_(window < 2 ? 2 : window), target_distance_m_(target_distance_m) {
  if (target_distance_m <= 0.0)
    throw std::invalid_argument("target_distance_m must be positive");
}

void LinearRegressionPredictor::observe(double t, const geo::Pose& pose) {
  window_.push({t, pose.position,
                pose.position + pose.forward() * target_distance_m_, pose});
}

geo::Pose LinearRegressionPredictor::predict(double horizon_s) const {
  if (window_.empty()) return {};
  if (window_.size() < 3) return window_.back().pose;

  // The regression columns, sample times then one axis at a time: on the
  // stack for windows of up to kStackWindow samples (every predictor a
  // session builds), so a prediction allocates nothing.
  constexpr std::size_t kStackWindow = 32;
  const std::size_t n = window_.size();
  std::array<double, 2 * kStackWindow> stack_columns;
  std::vector<double> heap_columns;
  std::span<double> columns(stack_columns);
  if (n > kStackWindow) {
    heap_columns.resize(2 * n);
    columns = heap_columns;
  }
  const std::span<double> ts = columns.first(n);
  const std::span<double> ys = columns.subspan(n, n);
  const double t0 = window_[0].t;
  for (std::size_t i = 0; i < n; ++i) ts[i] = window_[i].t - t0;
  const double t_pred = window_[n - 1].t - t0 + horizon_s;

  auto fit_axis = [&](auto getter) {
    for (std::size_t i = 0; i < n; ++i) ys[i] = getter(window_[i]);
    return fit_line(ts, ys).at(t_pred);
  };

  const geo::Vec3 position{
      fit_axis([](const Sample& s) { return s.position.x; }),
      fit_axis([](const Sample& s) { return s.position.y; }),
      fit_axis([](const Sample& s) { return s.position.z; })};
  const geo::Vec3 target{
      fit_axis([](const Sample& s) { return s.target.x; }),
      fit_axis([](const Sample& s) { return s.target.y; }),
      fit_axis([](const Sample& s) { return s.target.z; })};
  if ((target - position).norm_sq() < 1e-9) return window_.back().pose;
  return geo::Pose::look_at(position, target);
}

// ----------------------------------------------------------------- Ewma

EwmaPredictor::EwmaPredictor(double alpha) : alpha_(alpha) {
  if (alpha <= 0.0 || alpha > 1.0)
    throw std::invalid_argument("EWMA alpha must be in (0, 1]");
}

void EwmaPredictor::observe(double t, const geo::Pose& pose) {
  const geo::Vec3 target = pose.position + pose.forward() * 2.0;
  if (observations_ > 0) {
    const double dt = t - last_t_;
    if (dt > 0.0) {
      const geo::Vec3 v = (pose.position - last_.position) / dt;
      const geo::Vec3 tv = (target - last_target_) / dt;
      velocity_ = velocity_ * (1.0 - alpha_) + v * alpha_;
      target_velocity_ = target_velocity_ * (1.0 - alpha_) + tv * alpha_;
    }
  }
  last_ = pose;
  last_target_ = target;
  last_t_ = t;
  ++observations_;
}

geo::Pose EwmaPredictor::predict(double horizon_s) const {
  if (observations_ < 2) return last_;
  const geo::Vec3 position = last_.position + velocity_ * horizon_s;
  const geo::Vec3 target = last_target_ + target_velocity_ * horizon_s;
  if ((target - position).norm_sq() < 1e-9) return last_;
  return geo::Pose::look_at(position, target);
}


// ------------------------------------------------------------------ Mlp

MlpPredictor::MlpPredictor(std::size_t history, std::size_t hidden,
                           double learning_rate, std::uint64_t seed)
    : history_(history < 2 ? 2 : history),
      hidden_(hidden < 2 ? 2 : hidden),
      learning_rate_(learning_rate),
      window_(history_ + 1) {
  if (learning_rate <= 0.0)
    throw std::invalid_argument("MLP learning rate must be positive");
  // Small deterministic initialization.
  volcast::Rng rng(seed);
  const std::size_t input = history_ * 6;
  w1_.resize(hidden_ * input);
  b1_.assign(hidden_, 0.0);
  w2_.resize(6 * hidden_);
  b2_.assign(6, 0.0);
  const double scale1 = 1.0 / std::sqrt(static_cast<double>(input));
  for (double& w : w1_) w = rng.uniform(-scale1, scale1);
  const double scale2 = 1.0 / std::sqrt(static_cast<double>(hidden_));
  for (double& w : w2_) w = rng.uniform(-scale2, scale2);
}

std::vector<double> MlpPredictor::features() const {
  // history_ velocity vectors for position and look-at target, oldest
  // first, clamped into tanh's comfortable range (velocities are ~m/s).
  std::vector<double> input;
  input.reserve(history_ * 6);
  for (std::size_t i = 0; i + 1 < window_.size(); ++i) {
    const Sample& a = window_[i];
    const Sample& b = window_[i + 1];
    const double dt = std::max(b.t - a.t, 1e-6);
    const geo::Vec3 vp = (b.position - a.position) / dt;
    const geo::Vec3 vt = (b.target - a.target) / dt;
    for (double v : {vp.x, vp.y, vp.z, vt.x, vt.y, vt.z})
      input.push_back(std::clamp(v, -3.0, 3.0));
  }
  return input;
}

std::array<geo::Vec3, 2> MlpPredictor::forward(
    const std::vector<double>& input) const {
  std::vector<double> h(hidden_, 0.0);
  for (std::size_t j = 0; j < hidden_; ++j) {
    double acc = b1_[j];
    for (std::size_t i = 0; i < input.size(); ++i)
      acc += w1_[j * input.size() + i] * input[i];
    h[j] = std::tanh(acc);
  }
  double out[6];
  for (std::size_t k = 0; k < 6; ++k) {
    double acc = b2_[k];
    for (std::size_t j = 0; j < hidden_; ++j)
      acc += w2_[k * hidden_ + j] * h[j];
    out[k] = acc;
  }
  return {geo::Vec3{out[0], out[1], out[2]},
          geo::Vec3{out[3], out[4], out[5]}};
}

void MlpPredictor::train_step(const std::vector<double>& input,
                              const geo::Vec3& v_pos,
                              const geo::Vec3& v_target) {
  // One SGD step on the squared error of the 6 velocity outputs.
  std::vector<double> h(hidden_, 0.0);
  for (std::size_t j = 0; j < hidden_; ++j) {
    double acc = b1_[j];
    for (std::size_t i = 0; i < input.size(); ++i)
      acc += w1_[j * input.size() + i] * input[i];
    h[j] = std::tanh(acc);
  }
  const double target[6] = {v_pos.x, v_pos.y, v_pos.z,
                            v_target.x, v_target.y, v_target.z};
  double delta_out[6];
  for (std::size_t k = 0; k < 6; ++k) {
    double acc = b2_[k];
    for (std::size_t j = 0; j < hidden_; ++j)
      acc += w2_[k * hidden_ + j] * h[j];
    delta_out[k] = acc - target[k];
  }
  // Hidden-layer error before updating w2.
  std::vector<double> delta_hidden(hidden_, 0.0);
  for (std::size_t j = 0; j < hidden_; ++j) {
    double acc = 0.0;
    for (std::size_t k = 0; k < 6; ++k)
      acc += w2_[k * hidden_ + j] * delta_out[k];
    delta_hidden[j] = acc * (1.0 - h[j] * h[j]);
  }
  for (std::size_t k = 0; k < 6; ++k) {
    for (std::size_t j = 0; j < hidden_; ++j)
      w2_[k * hidden_ + j] -= learning_rate_ * delta_out[k] * h[j];
    b2_[k] -= learning_rate_ * delta_out[k];
  }
  for (std::size_t j = 0; j < hidden_; ++j) {
    for (std::size_t i = 0; i < input.size(); ++i)
      w1_[j * input.size() + i] -=
          learning_rate_ * delta_hidden[j] * input[i];
    b1_[j] -= learning_rate_ * delta_hidden[j];
  }
  ++training_steps_;
}

void MlpPredictor::observe(double t, const geo::Pose& pose) {
  // Before pushing, the current window's features predict the velocity
  // that this new observation realizes: that is one training pair.
  if (window_.size() == window_.capacity()) {
    const Sample& last = window_.back();
    const double dt = std::max(t - last.t, 1e-6);
    const geo::Vec3 new_target = pose.position + pose.forward() * 2.0;
    const geo::Vec3 v_pos = (pose.position - last.position) / dt;
    const geo::Vec3 v_target = (new_target - last.target) / dt;
    train_step(features(), v_pos, v_target);
  }
  window_.push({pose.position, pose.position + pose.forward() * 2.0, t});
}

geo::Pose MlpPredictor::predict(double horizon_s) const {
  if (window_.empty()) return {};
  const Sample& last = window_.back();
  auto fallback = [&] {
    return geo::Pose::look_at(last.position, last.target);
  };
  // Warm-up: behave like constant velocity until the net has seen data.
  if (window_.size() < window_.capacity() || training_steps_ < 30) {
    if (window_.size() < 2) return fallback();
    const Sample& prev = window_[window_.size() - 2];
    const double dt = std::max(last.t - prev.t, 1e-6);
    const geo::Vec3 v_pos = (last.position - prev.position) / dt;
    const geo::Vec3 v_target = (last.target - prev.target) / dt;
    const geo::Vec3 p = last.position + v_pos * horizon_s;
    const geo::Vec3 target = last.target + v_target * horizon_s;
    if ((target - p).norm_sq() < 1e-9) return fallback();
    return geo::Pose::look_at(p, target);
  }
  const auto [v_pos, v_target] = forward(features());
  const geo::Vec3 p = last.position + v_pos * horizon_s;
  const geo::Vec3 target = last.target + v_target * horizon_s;
  if ((target - p).norm_sq() < 1e-9) return fallback();
  return geo::Pose::look_at(p, target);
}

// -------------------------------------------------------------- factory

std::unique_ptr<ViewportPredictor> make_predictor(const std::string& name) {
  if (name == "static") return std::make_unique<StaticPredictor>();
  if (name == "const-velocity")
    return std::make_unique<ConstantVelocityPredictor>();
  if (name == "linear-regression")
    return std::make_unique<LinearRegressionPredictor>();
  if (name == "ewma") return std::make_unique<EwmaPredictor>();
  if (name == "mlp") return std::make_unique<MlpPredictor>();
  throw std::invalid_argument("unknown predictor: " + name);
}

}  // namespace volcast::view
