// Small statistics toolkit used by the benchmark harness and the QoE
// accounting: online moments, percentiles, empirical CDFs and simple linear
// regression (the paper's baseline viewport predictor).
#pragma once

#include <cstddef>
#include <span>
#include <string>
#include <vector>

namespace volcast {

/// Online mean / variance / extrema accumulator (Welford's algorithm).
class RunningStats {
 public:
  void add(double x) noexcept;
  void merge(const RunningStats& other) noexcept;

  [[nodiscard]] std::size_t count() const noexcept { return n_; }
  [[nodiscard]] bool empty() const noexcept { return n_ == 0; }
  [[nodiscard]] double mean() const noexcept { return n_ ? mean_ : 0.0; }
  /// Sample variance (n-1 denominator); 0 for fewer than two samples.
  [[nodiscard]] double variance() const noexcept;
  [[nodiscard]] double min() const noexcept { return n_ ? min_ : 0.0; }
  [[nodiscard]] double max() const noexcept { return n_ ? max_ : 0.0; }
  [[nodiscard]] double sum() const noexcept { return mean_ * static_cast<double>(n_); }

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

/// Empirical distribution: collects samples, answers percentile / CDF queries.
class EmpiricalDistribution {
 public:
  void add(double x) { samples_.push_back(x); }
  void add_all(std::span<const double> xs);

  [[nodiscard]] std::size_t count() const noexcept { return samples_.size(); }
  [[nodiscard]] bool empty() const noexcept { return samples_.empty(); }

  /// Percentile in [0, 100] with linear interpolation. Requires non-empty.
  [[nodiscard]] double percentile(double p) const;
  [[nodiscard]] double median() const { return percentile(50.0); }
  /// Empirical CDF value P[X <= x].
  [[nodiscard]] double cdf(double x) const;
  [[nodiscard]] double mean() const;
  [[nodiscard]] double min() const;
  [[nodiscard]] double max() const;

  /// Sorted copy of the samples (useful for exporting full CDF curves).
  [[nodiscard]] std::vector<double> sorted() const;

  /// Renders "x cdf(x)" rows at `points` evenly spaced sample quantiles;
  /// the format matches the gnuplot-style figures in the paper.
  [[nodiscard]] std::string format_cdf(std::size_t points = 20) const;

 private:
  void ensure_sorted() const;

  mutable std::vector<double> samples_;
  mutable bool sorted_ = false;
};

/// Ordinary least squares fit y = slope * x + intercept.
struct LinearFit {
  double slope = 0.0;
  double intercept = 0.0;

  [[nodiscard]] double at(double x) const noexcept {
    return slope * x + intercept;
  }
};

/// Fits a line to (x, y) pairs. Returns a flat fit through the mean when the
/// x values are degenerate (all equal or fewer than two points).
[[nodiscard]] LinearFit fit_line(std::span<const double> xs,
                                 std::span<const double> ys);

/// Harmonic mean, the classic throughput predictor baseline; 0 if empty or
/// any sample is <= 0.
[[nodiscard]] double harmonic_mean(std::span<const double> xs) noexcept;

}  // namespace volcast
