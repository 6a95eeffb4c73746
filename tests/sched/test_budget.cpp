/// \file test_budget.cpp
/// \brief Unit tests for budget division, Algorithm 1 (sched/budget).

#include "sched/budget.hpp"

#include <gtest/gtest.h>

#include <numeric>

#include "common/error.hpp"
#include "testing/helpers.hpp"

namespace cloudwf::sched {
namespace {

TEST(Budget, SequentialEstimateOnDiamond) {
  const auto wf = testing::diamond();
  const auto platform = testing::toy_platform();
  // 700 instructions at mean speed 1.5 + 6e6 external bytes at 1e6 B/s.
  EXPECT_NEAR(sequential_estimate(wf, platform), 700.0 / 1.5 + 6.0, 1e-9);
}

TEST(Budget, TaskTimeEstimateIncludesInboundData) {
  const auto wf = testing::diamond();
  const auto platform = testing::toy_platform();
  // D: 100/1.5 compute + (1e6 + 1e6)/1e6 transfers.
  EXPECT_NEAR(task_time_estimate(wf, platform, wf.find_task("D")), 100.0 / 1.5 + 2.0, 1e-9);
  // A: 100/1.5 + external input 4 s.
  EXPECT_NEAR(task_time_estimate(wf, platform, wf.find_task("A")), 100.0 / 1.5 + 4.0, 1e-9);
}

TEST(Budget, ReservesSetupPerTask) {
  const auto wf = testing::diamond();
  const auto platform = testing::toy_platform();
  const BudgetShares shares = divide_budget(BudgetModel::build(wf, platform), 100.0);
  EXPECT_DOUBLE_EQ(shares.reserved_setup, 4 * 0.5);
  EXPECT_DOUBLE_EQ(shares.reserved_dc, 0.0);  // free datacenter in the toy platform
  EXPECT_DOUBLE_EQ(shares.b_calc, 98.0);
}

TEST(Budget, SharesSumToBcalc) {
  const auto wf = testing::diamond(0.5);
  const auto platform = testing::toy_platform();
  const BudgetShares shares = divide_budget(BudgetModel::build(wf, platform), 50.0);
  const Dollars sum =
      std::accumulate(shares.per_task.begin(), shares.per_task.end(), Dollars{0});
  EXPECT_NEAR(sum, shares.b_calc, 1e-9);
}

TEST(Budget, SharesProportionalToTaskTime) {
  const auto wf = testing::diamond();
  const auto platform = testing::toy_platform();
  const BudgetShares shares = divide_budget(BudgetModel::build(wf, platform), 100.0);
  const double ratio = shares.share(wf.find_task("B")) / shares.share(wf.find_task("D"));
  const double expected = task_time_estimate(wf, platform, wf.find_task("B")) /
                          task_time_estimate(wf, platform, wf.find_task("D"));
  EXPECT_NEAR(ratio, expected, 1e-9);
}

TEST(Budget, DcReservationChargedOnPaperPlatform) {
  const auto wf = testing::diamond();
  const auto platform = platform::paper_platform();
  const BudgetShares shares = divide_budget(BudgetModel::build(wf, platform), 100.0);
  EXPECT_GT(shares.reserved_dc, 0.0);
  // Transfer part alone: 6e6 bytes * $0.055/GB.
  EXPECT_GT(shares.reserved_dc, 6e6 * 0.055 / 1e9);
}

TEST(Budget, TinyBudgetClampsToZeroCalc) {
  const auto wf = testing::diamond();
  const auto platform = testing::toy_platform();
  const BudgetShares shares =
      divide_budget(BudgetModel::build(wf, platform), 1.0);  // < reserved setup
  EXPECT_DOUBLE_EQ(shares.b_calc, 0.0);
  for (const Dollars share : shares.per_task) EXPECT_DOUBLE_EQ(share, 0.0);
}

TEST(Budget, MonotonicInBudget) {
  const auto wf = testing::diamond();
  const auto platform = testing::toy_platform();
  const BudgetShares small = divide_budget(BudgetModel::build(wf, platform), 10.0);
  const BudgetShares large = divide_budget(BudgetModel::build(wf, platform), 20.0);
  for (dag::TaskId t = 0; t < wf.task_count(); ++t)
    EXPECT_GE(large.share(t), small.share(t));
}

TEST(Budget, NegativeBudgetRejected) {
  const auto wf = testing::diamond();
  const auto platform = testing::toy_platform();
  EXPECT_THROW((void)divide_budget(BudgetModel::build(wf, platform), -1.0), InvalidArgument);
}

}  // namespace
}  // namespace cloudwf::sched
