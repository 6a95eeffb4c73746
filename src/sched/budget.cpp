#include "sched/budget.hpp"

#include <algorithm>

#include "common/error.hpp"

namespace cloudwf::sched {

Seconds sequential_estimate(const dag::Workflow& wf, const platform::Platform& platform) {
  const Seconds compute = wf.total_conservative_weight() / platform.mean_speed();
  const Seconds io =
      (wf.external_input_bytes() + wf.external_output_bytes()) / platform.bandwidth();
  return compute + io;
}

Seconds task_time_estimate(const dag::Workflow& wf, const platform::Platform& platform,
                           dag::TaskId task) {
  const Seconds compute = wf.task(task).conservative_weight() / platform.mean_speed();
  const Seconds transfer =
      (wf.predecessor_bytes(task) + wf.external_input_of(task)) / platform.bandwidth();
  return compute + transfer;
}

BudgetModel BudgetModel::build(const dag::Workflow& wf, const platform::Platform& platform) {
  require(wf.frozen(), "BudgetModel: workflow must be frozen");
  BudgetModel model;

  // Datacenter reservation: Eq. (2) on the sequential scenario, charging
  // the storage rate on the conservative footprint (all data transits the
  // DC).
  const Seconds t_seq = sequential_estimate(wf, platform);
  const Bytes footprint =
      wf.external_input_bytes() + wf.external_output_bytes() + wf.total_edge_bytes();
  model.reserved_dc = (wf.external_input_bytes() + wf.external_output_bytes()) *
                          platform.dc_transfer_price_per_byte() +
                      t_seq * platform.dc_rate_for_footprint(footprint);

  // One (cheapest-category) setup per task: n VMs, "ready to pay the price
  // for parallelism".
  model.reserved_setup = static_cast<double>(wf.task_count()) *
                         platform.category(platform.cheapest_category()).setup_cost;

  // t_calc,T of Eq. 6, summed in task-id order.
  model.t_task.resize(wf.task_count());
  for (dag::TaskId t = 0; t < wf.task_count(); ++t) {
    model.t_task[t] = task_time_estimate(wf, platform, t);
    model.t_wf += model.t_task[t];
  }
  CLOUDWF_ASSERT(model.t_wf > 0);
  return model;
}

BudgetShares divide_budget(const BudgetModel& model, Dollars b_ini, bool reserve) {
  require(b_ini >= 0, "divide_budget: negative budget");

  BudgetShares shares;
  shares.b_ini = b_ini;
  if (reserve) {
    shares.reserved_dc = model.reserved_dc;
    shares.reserved_setup = model.reserved_setup;
  }
  shares.b_calc = std::max(0.0, b_ini - shares.reserved_dc - shares.reserved_setup);

  // Proportional split (Eq. 5); the t_calc,T values sum to t_calc,wf by
  // construction, so the B_T sum to b_calc.
  shares.per_task.resize(model.t_task.size());
  for (dag::TaskId t = 0; t < model.t_task.size(); ++t)
    shares.per_task[t] = model.t_task[t] / model.t_wf * shares.b_calc;
  return shares;
}

}  // namespace cloudwf::sched
