#pragma once

/// \file budget_levels.hpp
/// \brief Characteristic budgets of one workflow (Section V-B / Table III).
///
/// The paper sweeps the initial budget between the cheapest possible
/// execution and a "high" budget that can enroll an unlimited number of
/// VMs, and uses three characteristic values for the CPU-time study:
///  * low    — the minimum budget needed to find a schedule (~ min_cost);
///  * high   — large enough that the budget constraint never binds;
///  * medium — halfway between the minimal budget B_min that already
///    reaches the baseline (budget-unaware) makespan and high.

#include <vector>

#include "common/units.hpp"
#include "dag/workflow.hpp"
#include "platform/platform.hpp"

namespace cloudwf::exp {

/// Characteristic budgets of one (workflow, platform) pair.
struct BudgetLevels {
  Dollars min_cost = 0;  ///< cheapest execution: all tasks on one cheapest VM
  Dollars low = 0;       ///< "low" budget of Table III
  Dollars medium = 0;    ///< "medium" budget of Table III
  Dollars high = 0;      ///< unbounded-VM regime
  Dollars baseline_reaching = 0;  ///< empirical B_min: HEFTBUDG matches HEFT
};

/// Computes all characteristic budgets (runs HEFT once and a short binary
/// search of HEFTBUDG's predicted makespan, all on one WorkflowPlan).
[[nodiscard]] BudgetLevels compute_budget_levels(const dag::Workflow& wf,
                                                 const platform::Platform& platform);

/// \p points budgets linearly spaced in [low, high] (the paper's x-axis).
[[nodiscard]] std::vector<Dollars> budget_sweep(const BudgetLevels& levels, std::size_t points);

}  // namespace cloudwf::exp
