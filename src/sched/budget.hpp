#pragma once

/// \file budget.hpp
/// \brief Budget reservation and per-task division (Algorithm 1).
///
/// From the initial budget B_ini the algorithm first reserves:
///  * the estimated datacenter cost of a sequential single-VM execution at
///    the mean category speed (only external I/O crosses the datacenter in
///    that scenario, but we charge the storage rate on the full conservative
///    footprint — see DESIGN.md);
///  * one VM setup cost per task ("ready to pay the price for parallelism").
///
/// The remainder B_calc is split across tasks proportionally to their
/// estimated execution time t_calc,T = (mu_T + sigma_T)/s-bar +
/// size(d_pred,T)/bw (Eq. 5-6); the shares sum to B_calc exactly.  External
/// input bytes participate in both the task's share and the workflow total —
/// a consistent extension of Eq. 6, since our model transfers entry inputs
/// from the datacenter too.

#include <vector>

#include "common/units.hpp"
#include "dag/workflow.hpp"
#include "platform/platform.hpp"

namespace cloudwf::sched {

/// Result of Algorithm 1 (getBudgCalc) plus the per-task shares.
struct BudgetShares {
  Dollars b_ini = 0;           ///< the caller's initial budget
  Dollars reserved_dc = 0;     ///< datacenter reservation
  Dollars reserved_setup = 0;  ///< n VM setups
  Dollars b_calc = 0;          ///< what remains for VM usage
  std::vector<Dollars> per_task;  ///< B_T, summing to b_calc

  [[nodiscard]] Dollars share(dag::TaskId task) const { return per_task[task]; }
};

/// Estimated duration of a sequential single-VM execution at mean speed,
/// conservative weights, external I/O only (the DC-reservation scenario).
[[nodiscard]] Seconds sequential_estimate(const dag::Workflow& wf,
                                          const platform::Platform& platform);

/// Estimated time charged to one task: compute at mean speed plus inbound
/// transfers (Eq. 6 plus external input).
[[nodiscard]] Seconds task_time_estimate(const dag::Workflow& wf,
                                         const platform::Platform& platform, dag::TaskId task);

/// Budget-independent inputs of Algorithm 1, computed once per (workflow,
/// platform) pair as part of its WorkflowPlan (sched/plan.hpp) and reused
/// across every budget level of a sweep.
struct BudgetModel {
  Dollars reserved_dc = 0;     ///< datacenter reservation (when reserving)
  Dollars reserved_setup = 0;  ///< n cheapest-category setups
  std::vector<Seconds> t_task;  ///< t_calc,T per task (Eq. 6)
  Seconds t_wf = 0;             ///< sum of t_task, task-id order

  [[nodiscard]] static BudgetModel build(const dag::Workflow& wf,
                                         const platform::Platform& platform);
};

/// Runs Algorithm 1 and the proportional split of Eq. 5 on \p model.
/// \p reserve disables the datacenter/setup reservation when false (the
/// ablation in bench/ext_ablation.cpp; the paper always reserves).
[[nodiscard]] BudgetShares divide_budget(const BudgetModel& model, Dollars b_ini,
                                         bool reserve = true);

}  // namespace cloudwf::sched
