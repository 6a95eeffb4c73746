#pragma once

/// \file stats.hpp
/// \brief Streaming and batch statistics used by the experiment harness.
///
/// The paper reports every data point as mean ± standard deviation over 25
/// repetitions (vertical bars in its figures) plus medians in Table III.
/// Accumulator provides numerically stable (Welford) streaming moments;
/// Summary adds order statistics over a retained sample.

#include <cstddef>
#include <vector>

namespace cloudwf {

/// Streaming mean/variance accumulator (Welford's algorithm).
class Accumulator {
 public:
  /// Adds one observation.
  void add(double x);

  [[nodiscard]] std::size_t count() const { return count_; }
  [[nodiscard]] double mean() const;
  /// Sample variance (n-1 denominator); 0 for fewer than two observations.
  [[nodiscard]] double variance() const;
  [[nodiscard]] double stddev() const;
  [[nodiscard]] double min() const;
  [[nodiscard]] double max() const;

 private:
  std::size_t count_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

/// Batch summary that retains the sample for quantiles.
class Summary {
 public:
  Summary() = default;
  explicit Summary(std::vector<double> values);

  void add(double x);

  [[nodiscard]] std::size_t count() const { return values_.size(); }
  [[nodiscard]] bool empty() const { return values_.empty(); }
  [[nodiscard]] double mean() const;
  [[nodiscard]] double stddev() const;
  [[nodiscard]] double min() const;
  [[nodiscard]] double max() const;
  /// Linear-interpolated quantile, q in [0, 1].
  [[nodiscard]] double quantile(double q) const;
  [[nodiscard]] const std::vector<double>& values() const { return values_; }

 private:
  std::vector<double> values_;
  mutable std::vector<double> scratch_;  // a permutation of values_ when valid
  mutable bool scratch_valid_ = false;
};

}  // namespace cloudwf
