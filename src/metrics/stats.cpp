#include "metrics/stats.hpp"

#include <algorithm>
#include <cmath>

#include "util/assert.hpp"

namespace marp::metrics {

void Running::add(double x) noexcept {
  ++count_;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(count_);
  m2_ += delta * (x - mean_);
  min_ = std::min(min_, x);
  max_ = std::max(max_, x);
}

double Running::variance() const noexcept {
  return count_ < 2 ? 0.0 : m2_ / static_cast<double>(count_ - 1);
}

double Running::stddev() const noexcept { return std::sqrt(variance()); }

double Running::sem() const noexcept {
  return count_ < 2 ? 0.0 : stddev() / std::sqrt(static_cast<double>(count_));
}

void Running::merge(const Running& other) noexcept {
  if (other.count_ == 0) return;
  if (count_ == 0) {
    *this = other;
    return;
  }
  // Chan et al. parallel-merge formula.
  const double delta = other.mean_ - mean_;
  const auto n1 = static_cast<double>(count_);
  const auto n2 = static_cast<double>(other.count_);
  const double n = n1 + n2;
  mean_ += delta * n2 / n;
  m2_ += other.m2_ + delta * delta * n1 * n2 / n;
  count_ += other.count_;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
}

double Samples::mean() const {
  if (values_.empty()) return 0.0;
  double sum = 0.0;
  for (double v : values_) sum += v;
  return sum / static_cast<double>(values_.size());
}

void Samples::ensure_sorted() const {
  if (!sorted_) {
    std::sort(values_.begin(), values_.end());
    sorted_ = true;
  }
}

double Samples::percentile(double p) const {
  if (values_.empty()) return 0.0;
  ensure_sorted();
  const double rank = p / 100.0 * static_cast<double>(values_.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(rank));
  const std::size_t hi = std::min(lo + 1, values_.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return values_[lo] * (1.0 - frac) + values_[hi] * frac;
}

double Samples::min() const {
  if (values_.empty()) return 0.0;
  ensure_sorted();
  return values_.front();
}

double Samples::max() const {
  if (values_.empty()) return 0.0;
  ensure_sorted();
  return values_.back();
}

}  // namespace marp::metrics
