// Statistics primitives for the benchmark harness: Welford online moments,
// sample summaries with confidence intervals, and fixed-bin histograms.
#pragma once

#include <cstdint>
#include <limits>
#include <vector>

namespace marp::metrics {

/// Online mean/variance (Welford). Numerically stable, O(1) memory.
class Running {
 public:
  void add(double x) noexcept;

  std::uint64_t count() const noexcept { return count_; }
  double mean() const noexcept { return count_ == 0 ? 0.0 : mean_; }
  /// Sample variance (n-1 denominator); 0 with fewer than 2 samples.
  double variance() const noexcept;
  double stddev() const noexcept;
  double min() const noexcept { return count_ == 0 ? 0.0 : min_; }
  double max() const noexcept { return count_ == 0 ? 0.0 : max_; }
  /// Standard error of the mean.
  double sem() const noexcept;
  /// Half-width of the ~95% normal-approximation confidence interval.
  double ci95_half_width() const noexcept { return 1.96 * sem(); }

  void merge(const Running& other) noexcept;

 private:
  std::uint64_t count_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = std::numeric_limits<double>::infinity();
  double max_ = -std::numeric_limits<double>::infinity();
};

/// Retains samples; exact percentiles for modest sample counts.
class Samples {
 public:
  void add(double x) { values_.push_back(x); }
  std::size_t count() const noexcept { return values_.size(); }
  double mean() const;
  double percentile(double p) const;  ///< p in [0, 100], linear interpolation
  double min() const;
  double max() const;
  const std::vector<double>& values() const noexcept { return values_; }

 private:
  mutable std::vector<double> values_;
  mutable bool sorted_ = false;
  void ensure_sorted() const;
};

}  // namespace marp::metrics
