#include "common/stats.h"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <stdexcept>

namespace volcast {

void RunningStats::add(double x) noexcept {
  if (n_ == 0) {
    min_ = max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++n_;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(n_);
  m2_ += delta * (x - mean_);
}

void RunningStats::merge(const RunningStats& other) noexcept {
  if (other.n_ == 0) return;
  if (n_ == 0) {
    *this = other;
    return;
  }
  const auto na = static_cast<double>(n_);
  const auto nb = static_cast<double>(other.n_);
  const double delta = other.mean_ - mean_;
  const double total = na + nb;
  mean_ += delta * nb / total;
  m2_ += other.m2_ + delta * delta * na * nb / total;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
  n_ += other.n_;
}

double RunningStats::variance() const noexcept {
  return n_ > 1 ? m2_ / static_cast<double>(n_ - 1) : 0.0;
}

void EmpiricalDistribution::add_all(std::span<const double> xs) {
  samples_.insert(samples_.end(), xs.begin(), xs.end());
  sorted_ = false;
}

void EmpiricalDistribution::ensure_sorted() const {
  if (!sorted_) {
    std::sort(samples_.begin(), samples_.end());
    sorted_ = true;
  }
}

double EmpiricalDistribution::percentile(double p) const {
  if (samples_.empty())
    throw std::logic_error("percentile() on empty distribution");
  ensure_sorted();
  const double clamped = std::clamp(p, 0.0, 100.0);
  const double rank =
      clamped / 100.0 * static_cast<double>(samples_.size() - 1);
  const auto lo = static_cast<std::size_t>(rank);
  const auto hi = std::min(lo + 1, samples_.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return samples_[lo] + frac * (samples_[hi] - samples_[lo]);
}

double EmpiricalDistribution::cdf(double x) const {
  if (samples_.empty()) return 0.0;
  ensure_sorted();
  const auto it = std::upper_bound(samples_.begin(), samples_.end(), x);
  return static_cast<double>(it - samples_.begin()) /
         static_cast<double>(samples_.size());
}

double EmpiricalDistribution::mean() const {
  if (samples_.empty()) return 0.0;
  double sum = 0.0;
  for (double x : samples_) sum += x;
  return sum / static_cast<double>(samples_.size());
}

double EmpiricalDistribution::min() const {
  ensure_sorted();
  return samples_.empty() ? 0.0 : samples_.front();
}

double EmpiricalDistribution::max() const {
  ensure_sorted();
  return samples_.empty() ? 0.0 : samples_.back();
}

std::vector<double> EmpiricalDistribution::sorted() const {
  ensure_sorted();
  return samples_;
}

std::string EmpiricalDistribution::format_cdf(std::size_t points) const {
  std::ostringstream out;
  if (samples_.empty() || points == 0) return out.str();
  ensure_sorted();
  for (std::size_t i = 0; i < points; ++i) {
    const double q =
        100.0 * static_cast<double>(i) / static_cast<double>(points - 1);
    const double x = percentile(q);
    out << x << ' ' << cdf(x) << '\n';
  }
  return out.str();
}

LinearFit fit_line(std::span<const double> xs, std::span<const double> ys) {
  const std::size_t n = std::min(xs.size(), ys.size());
  LinearFit fit;
  if (n == 0) return fit;
  double mx = 0.0;
  double my = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    mx += xs[i];
    my += ys[i];
  }
  mx /= static_cast<double>(n);
  my /= static_cast<double>(n);
  double sxx = 0.0;
  double sxy = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const double dx = xs[i] - mx;
    sxx += dx * dx;
    sxy += dx * (ys[i] - my);
  }
  if (sxx <= 0.0) {
    fit.slope = 0.0;
    fit.intercept = my;
    return fit;
  }
  fit.slope = sxy / sxx;
  fit.intercept = my - fit.slope * mx;
  return fit;
}

double harmonic_mean(std::span<const double> xs) noexcept {
  if (xs.empty()) return 0.0;
  double denom = 0.0;
  for (double x : xs) {
    if (x <= 0.0) return 0.0;
    denom += 1.0 / x;
  }
  return static_cast<double>(xs.size()) / denom;
}

}  // namespace volcast
