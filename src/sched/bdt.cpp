#include "sched/bdt.hpp"

#include <algorithm>
#include <limits>
#include <vector>

#include "common/error.hpp"
#include "obs/event_bus.hpp"
#include "obs/profile.hpp"
#include "sched/best_host.hpp"
#include "sched/budget.hpp"
#include "sched/plan.hpp"

namespace cloudwf::sched {

namespace {

/// TCTF host choice for one task given its tentative sub-budget; affordable
/// when the host fits within subBudg, else the cheapest host.
BestHost pick_tctf_host(const EftState& state, dag::TaskId task, Dollars sub_budget,
                        std::vector<PlacementEstimate>& estimates) {
  const auto hosts = state.candidates();

  // First sweep: per-host estimates and the ECT / cost extremes.  The
  // estimate scratch is caller-owned so the per-task loop stays
  // allocation-free.
  estimates.clear();
  estimates.reserve(hosts.size());
  Seconds ect_min = std::numeric_limits<Seconds>::infinity();
  Seconds ect_max = 0;
  Dollars ct_min = std::numeric_limits<Dollars>::infinity();
  for (const HostCandidate& host : hosts) {
    const PlacementEstimate est = state.estimate(task, host);
    ect_min = std::min(ect_min, est.eft);
    ect_max = std::max(ect_max, est.eft);
    ct_min = std::min(ct_min, est.cost);
    estimates.push_back(est);
  }

  BestHost best{{}, {}, false};
  double best_tctf = -1.0;
  BestHost cheapest{{}, {}, false};
  Dollars cheapest_cost = std::numeric_limits<Dollars>::infinity();

  for (std::size_t i = 0; i < hosts.size(); ++i) {
    const PlacementEstimate& est = estimates[i];
    if (est.cost < cheapest_cost ||
        (est.cost == cheapest_cost &&
         better_placement(est, hosts[i], cheapest.estimate, cheapest.host))) {
      cheapest_cost = est.cost;
      cheapest = BestHost{hosts[i], est, false};
    }
    if (est.cost > sub_budget + money_epsilon) continue;  // ineligible

    const double time_span = ect_max - ect_min;
    const double time_factor = time_span > time_epsilon ? (ect_max - est.eft) / time_span : 1.0;
    const double cost_span = sub_budget - ct_min;
    const double cost_factor =
        cost_span > money_epsilon ? (sub_budget - est.cost) / cost_span : 1.0;
    // Maximizing Time/Cost is the eager trade-off of Section V-D1: it
    // rewards fast hosts and penalizes thrifty ones.
    const double tctf = time_factor / std::max(cost_factor, 1e-9);
    if (tctf > best_tctf ||
        (tctf == best_tctf && better_placement(est, hosts[i], best.estimate, best.host))) {
      best_tctf = tctf;
      best = BestHost{hosts[i], est, true};
    }
  }

  return best.affordable ? best : cheapest;
}

}  // namespace

SchedulerOutput BdtScheduler::schedule(const SchedulerInput& input) const {
  const dag::Workflow& wf = input.wf;
  const obs::ProfileScope profile("sched.plan");
  const bool trace = input.bus != nullptr && input.bus->enabled();

  // Same reservations as the paper's algorithms (fair comparison).
  const BudgetModel& model = input.plan.budget_model;
  const BudgetShares shares = divide_budget(model, input.budget);
  const std::vector<std::vector<dag::TaskId>>& levels = input.plan.levels;

  // Level budgets: proportional split of B_calc by estimated level time
  // (model.t_task holds task_time_estimate() per task).
  std::vector<Dollars> level_budget(levels.size(), 0);
  {
    Seconds total_time = 0;
    std::vector<Seconds> level_time(levels.size(), 0);
    for (std::size_t l = 0; l < levels.size(); ++l) {
      for (dag::TaskId t : levels[l]) level_time[l] += model.t_task[t];
      total_time += level_time[l];
    }
    CLOUDWF_ASSERT(total_time > 0);
    for (std::size_t l = 0; l < levels.size(); ++l)
      level_budget[l] = level_time[l] / total_time * shares.b_calc;
  }

  sim::Schedule schedule(wf.task_count());
  EftState state(wf, input.platform);
  std::vector<PlacementEstimate> estimate_scratch;
  std::vector<Seconds> est(wf.task_count(), 0);

  Dollars trickle = 0;  // leftover budget flowing between levels
  std::size_t decision = 0;
  for (std::size_t l = 0; l < levels.size(); ++l) {
    // Tasks inside a level by increasing EST (data-at-DC readiness);
    // ties by task id for determinism.
    std::vector<dag::TaskId> order = levels[l];
    for (dag::TaskId t : order) est[t] = state.ready_at_dc(t);
    std::stable_sort(order.begin(), order.end(), [&](dag::TaskId a, dag::TaskId b) {
      if (est[a] != est[b]) return est[a] < est[b];
      return a < b;
    });

    // "All in": the head task may spend the whole remaining level budget.
    Dollars remaining = level_budget[l] + trickle;
    for (dag::TaskId task : order) {
      const BestHost choice = pick_tctf_host(state, task, remaining, estimate_scratch);
      const std::size_t n_candidates = trace ? state.candidates().size() : 0;
      const sim::VmId vm = state.commit(task, choice.host, choice.estimate, schedule);
      if (trace)
        emit_decision(*input.bus, decision, wf, input.platform, task, vm, choice, n_candidates,
                      remaining);
      ++decision;
      remaining -= choice.estimate.cost;  // may go negative: eager overrun
    }
    trickle = remaining;
  }

  return finish(input, std::move(schedule));
}

}  // namespace cloudwf::sched
