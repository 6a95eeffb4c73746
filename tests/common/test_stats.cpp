/// \file test_stats.cpp
/// \brief Unit tests for streaming/batch statistics (common/stats).

#include "common/stats.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <iterator>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"

namespace cloudwf {
namespace {

TEST(Accumulator, EmptyThrows) {
  const Accumulator acc;
  EXPECT_EQ(acc.count(), 0u);
  EXPECT_THROW((void)acc.mean(), InvalidArgument);
  EXPECT_THROW((void)acc.min(), InvalidArgument);
  EXPECT_THROW((void)acc.max(), InvalidArgument);
}

TEST(Accumulator, SingleValue) {
  Accumulator acc;
  acc.add(42.0);
  EXPECT_EQ(acc.count(), 1u);
  EXPECT_DOUBLE_EQ(acc.mean(), 42.0);
  EXPECT_DOUBLE_EQ(acc.variance(), 0.0);
  EXPECT_DOUBLE_EQ(acc.min(), 42.0);
  EXPECT_DOUBLE_EQ(acc.max(), 42.0);
}

TEST(Accumulator, KnownMoments) {
  Accumulator acc;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) acc.add(x);
  EXPECT_DOUBLE_EQ(acc.mean(), 5.0);
  // Sample variance with n-1 = 32/7.
  EXPECT_NEAR(acc.variance(), 32.0 / 7.0, 1e-12);
  EXPECT_NEAR(acc.stddev(), std::sqrt(32.0 / 7.0), 1e-12);
}

TEST(Summary, MedianOddAndEven) {
  Summary odd({3.0, 1.0, 2.0});
  EXPECT_DOUBLE_EQ(odd.quantile(0.5), 2.0);
  Summary even({4.0, 1.0, 2.0, 3.0});
  EXPECT_DOUBLE_EQ(even.quantile(0.5), 2.5);
}

TEST(Summary, QuantileInterpolates) {
  const Summary s({0.0, 10.0});
  EXPECT_DOUBLE_EQ(s.quantile(0.0), 0.0);
  EXPECT_DOUBLE_EQ(s.quantile(0.25), 2.5);
  EXPECT_DOUBLE_EQ(s.quantile(1.0), 10.0);
}

TEST(Summary, QuantileValidatesRange) {
  const Summary s({1.0});
  EXPECT_THROW((void)s.quantile(-0.1), InvalidArgument);
  EXPECT_THROW((void)s.quantile(1.1), InvalidArgument);
}

TEST(Summary, AddInvalidatesCache) {
  Summary s({5.0, 1.0});
  EXPECT_DOUBLE_EQ(s.quantile(0.5), 3.0);
  s.add(9.0);
  EXPECT_DOUBLE_EQ(s.quantile(0.5), 5.0);
}

TEST(Summary, MeanAndStddevMatchAccumulator) {
  Summary s;
  Accumulator acc;
  Rng rng(77);
  for (int i = 0; i < 500; ++i) {
    const double x = rng.uniform(0, 100);
    s.add(x);
    acc.add(x);
  }
  EXPECT_NEAR(s.mean(), acc.mean(), 1e-9);
  EXPECT_NEAR(s.stddev(), acc.stddev(), 1e-9);
  EXPECT_DOUBLE_EQ(s.min(), acc.min());
  EXPECT_DOUBLE_EQ(s.max(), acc.max());
}

/// Summary::quantile's formula on a fully sorted copy: the reference the
/// selection-based quantile must match bit for bit.
double sorted_quantile(std::vector<double> values, double q) {
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] * (1.0 - frac) + values[hi] * frac;
}

TEST(Summary, SelectedQuantilesMatchSortedReferenceExactly) {
  Rng rng(2024);
  const double qs[] = {0.0, 0.5, 0.95, 0.99, 1.0};
  for (std::size_t n = 1; n <= 1000; n += n < 40 ? 1 : 40) {
    // Values drawn from a small pool repeat often; the rest are distinct.
    std::vector<double> values;
    for (std::size_t i = 0; i < n; ++i)
      values.push_back(rng.below(3) == 0 ? static_cast<double>(rng.below(5))
                                         : rng.uniform(-50.0, 50.0));
    Summary summary(values);
    for (const double q : qs)
      EXPECT_EQ(std::bit_cast<std::uint64_t>(summary.quantile(q)),
                std::bit_cast<std::uint64_t>(sorted_quantile(values, q)))
          << "n=" << n << " q=" << q;
    // Repeated and descending queries reuse the partially ordered scratch.
    for (auto q = std::rbegin(qs); q != std::rend(qs); ++q)
      EXPECT_EQ(std::bit_cast<std::uint64_t>(summary.quantile(*q)),
                std::bit_cast<std::uint64_t>(sorted_quantile(values, *q)))
          << "n=" << n << " q=" << *q;
    EXPECT_EQ(summary.values(), values);  // the sample itself keeps its order
  }
}

TEST(Summary, EmptyThrows) {
  const Summary s;
  EXPECT_TRUE(s.empty());
  EXPECT_THROW((void)s.mean(), InvalidArgument);
  EXPECT_THROW((void)s.quantile(0.5), InvalidArgument);
}

}  // namespace
}  // namespace cloudwf
