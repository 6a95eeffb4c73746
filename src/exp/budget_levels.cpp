#include "exp/budget_levels.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/error.hpp"
#include "obs/profile.hpp"
#include "sched/cg.hpp"
#include "sched/plan.hpp"
#include "sched/registry.hpp"

namespace cloudwf::exp {

BudgetLevels compute_budget_levels(const dag::Workflow& wf, const platform::Platform& platform) {
  const obs::ProfileScope profile("exp.budget_levels");
  BudgetLevels levels;
  levels.min_cost = sched::single_vm_cost(wf, platform, platform.cheapest_category());
  levels.low = levels.min_cost;

  // One plan serves the HEFT call and every bisection step.
  const sched::WorkflowPlan plan = sched::WorkflowPlan::build(wf, platform);
  const auto input = [&](Dollars budget) {
    return sched::make_input(wf, platform, budget, /*bus=*/nullptr, &plan);
  };

  // "High": comfortably above what the budget-unaware baseline spends, so
  // affordability never constrains any host choice.
  const auto heft = sched::make_scheduler("heft");
  const sched::SchedulerOutput baseline =
      heft->schedule(input(std::numeric_limits<Dollars>::infinity()));
  levels.high = 3.0 * std::max(baseline.predicted_cost, levels.min_cost);

  // Empirical B_min: smallest budget at which HEFTBUDG's predicted makespan
  // matches the baseline's (2% tolerance), found by bisection.
  const auto heft_budg = sched::make_scheduler("heft-budg");
  const Seconds target = baseline.predicted_makespan * 1.02;
  Dollars lo = levels.min_cost;
  Dollars hi = levels.high;
  const auto reaches = [&](Dollars budget) {
    return heft_budg->schedule(input(budget)).predicted_makespan <= target;
  };
  if (!reaches(hi)) {
    // Baseline makespan unreachable under any budget (can happen when the
    // conservative reservations always bind); fall back to the high budget.
    levels.baseline_reaching = levels.high;
  } else {
    for (int iter = 0; iter < 12; ++iter) {
      const Dollars mid = 0.5 * (lo + hi);
      (reaches(mid) ? hi : lo) = mid;
    }
    levels.baseline_reaching = hi;
  }

  levels.medium = 0.5 * (levels.baseline_reaching + levels.high);
  return levels;
}

std::vector<Dollars> budget_sweep(const BudgetLevels& levels, std::size_t points) {
  require(points >= 2, "budget_sweep: need at least two points");
  require(levels.low > 0 && levels.high >= levels.low, "budget_sweep: invalid levels");
  std::vector<Dollars> budgets(points);
  const double ratio = levels.high / levels.low;
  for (std::size_t i = 0; i < points; ++i) {
    // Geometric spacing concentrates points in the low-budget region, where
    // the algorithms actually differ (the curves flatten once every task can
    // afford the fastest category).
    const double frac = static_cast<double>(i) / static_cast<double>(points - 1);
    budgets[i] = levels.low * std::pow(ratio, frac);
  }
  return budgets;
}

}  // namespace cloudwf::exp
