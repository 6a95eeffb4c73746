#include "common/stats.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"

namespace cloudwf {

void Accumulator::add(double x) {
  if (count_ == 0) {
    min_ = x;
    max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++count_;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(count_);
  m2_ += delta * (x - mean_);
}

double Accumulator::mean() const {
  require(count_ > 0, "Accumulator::mean: no observations");
  return mean_;
}

double Accumulator::variance() const {
  if (count_ < 2) return 0.0;
  return m2_ / static_cast<double>(count_ - 1);
}

double Accumulator::stddev() const { return std::sqrt(variance()); }

double Accumulator::min() const {
  require(count_ > 0, "Accumulator::min: no observations");
  return min_;
}

double Accumulator::max() const {
  require(count_ > 0, "Accumulator::max: no observations");
  return max_;
}

Summary::Summary(std::vector<double> values) : values_(std::move(values)) {}

void Summary::add(double x) {
  values_.push_back(x);
  scratch_valid_ = false;
}

double Summary::mean() const {
  require(!values_.empty(), "Summary::mean: no observations");
  double acc = 0.0;
  for (double v : values_) acc += v;
  return acc / static_cast<double>(values_.size());
}

double Summary::stddev() const {
  if (values_.size() < 2) return 0.0;
  const double m = mean();
  double acc = 0.0;
  for (double v : values_) acc += (v - m) * (v - m);
  return std::sqrt(acc / static_cast<double>(values_.size() - 1));
}

double Summary::min() const {
  require(!values_.empty(), "Summary::min: no observations");
  return *std::min_element(values_.begin(), values_.end());
}

double Summary::max() const {
  require(!values_.empty(), "Summary::max: no observations");
  return *std::max_element(values_.begin(), values_.end());
}


double Summary::quantile(double q) const {
  require(!values_.empty(), "Summary::quantile: no observations");
  require(q >= 0.0 && q <= 1.0, "Summary::quantile: q outside [0,1]");
  if (!scratch_valid_) {
    scratch_ = values_;
    scratch_valid_ = true;
  }
  const double pos = q * static_cast<double>(scratch_.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, scratch_.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  // Selection instead of a sort: the lo-th order statistic lands at lo with
  // no larger value before it, so the smallest value after it is the next
  // order statistic.  Any permutation of the sample will do as input.
  const auto nth = scratch_.begin() + static_cast<std::ptrdiff_t>(lo);
  std::nth_element(scratch_.begin(), nth, scratch_.end());
  const double low = *nth;
  const double high = hi == lo ? low : *std::min_element(nth + 1, scratch_.end());
  return low * (1.0 - frac) + high * frac;
}

}  // namespace cloudwf
