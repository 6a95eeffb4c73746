#include "sched/heft.hpp"

#include "obs/event_bus.hpp"
#include "obs/profile.hpp"
#include "sched/best_host.hpp"
#include "sched/budget.hpp"
#include "sched/plan.hpp"

namespace cloudwf::sched {

sim::Schedule HeftScheduler::run_list_pass(const SchedulerInput& input, bool budget_aware,
                                           std::vector<dag::TaskId>& list_out,
                                           const HeftBudgOptions& options) {
  const dag::Workflow& wf = input.wf;
  const obs::ProfileScope profile("sched.plan");
  const bool trace = input.bus != nullptr && input.bus->enabled();

  const std::vector<Seconds>& ranks = input.plan.bottom_levels;
  list_out = input.plan.heft_list;

  BudgetShares shares;
  if (budget_aware)
    shares = divide_budget(input.plan.budget_model, input.budget, options.reserve_budget);
  Dollars pot = 0;

  sim::Schedule schedule(wf.task_count());
  for (dag::TaskId t = 0; t < wf.task_count(); ++t) schedule.set_priority(t, ranks[t]);

  EftState state(wf, input.platform);
  std::size_t decision = 0;
  for (dag::TaskId task : list_out) {
    const std::optional<Dollars> cap =
        budget_aware ? std::optional<Dollars>(shares.share(task) + pot) : std::nullopt;
    const BestHost best = get_best_host(state, task, cap);
    const std::size_t n_candidates = trace ? state.candidates().size() : 0;
    const sim::VmId vm = state.commit(task, best.host, best.estimate, schedule);
    if (trace)
      emit_decision(*input.bus, decision, wf, input.platform, task, vm, best, n_candidates, cap);
    ++decision;
    if (budget_aware && options.share_pot) pot += shares.share(task) - best.estimate.cost;
  }
  return schedule;
}

SchedulerOutput HeftScheduler::schedule(const SchedulerInput& input) const {
  std::vector<dag::TaskId> list;
  sim::Schedule result = run_list_pass(input, budget_aware_, list, options_);
  return finish(input, std::move(result));
}

}  // namespace cloudwf::sched
