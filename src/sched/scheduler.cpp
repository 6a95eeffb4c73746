#include "sched/scheduler.hpp"

#include <utility>

#include "common/error.hpp"
#include "common/units.hpp"
#include "obs/profile.hpp"
#include "sched/plan.hpp"
#include "sim/simulator.hpp"

namespace cloudwf::sched {

SchedulerInput::SchedulerInput(const dag::Workflow& workflow, const platform::Platform& cloud,
                               Dollars b_ini, obs::EventBus* event_bus,
                               std::shared_ptr<const WorkflowPlan> owned,
                               const WorkflowPlan& analyses)
    : wf(workflow), platform(cloud), budget(b_ini), bus(event_bus), plan(analyses),
      owned_plan_(std::move(owned)) {}

SchedulerInput make_input(const dag::Workflow& wf, const platform::Platform& platform,
                          Dollars budget, obs::EventBus* bus, const WorkflowPlan* plan) {
  require(wf.frozen(), "make_input: workflow must be frozen");
  require(budget >= 0, "make_input: negative budget");
  // The one place that tells a lent plan from none: without one, the input
  // builds its own and keeps it alive.
  std::shared_ptr<const WorkflowPlan> owned;
  if (!plan) {
    owned = std::make_shared<const WorkflowPlan>(WorkflowPlan::build(wf, platform));
    plan = owned.get();
  }
  require(plan->bottom_levels.size() == wf.task_count() &&
              plan->budget_model.t_task.size() == wf.task_count(),
          "make_input: plan was built for a different workflow");
  return {wf, platform, budget, bus, std::move(owned), *plan};
}

SchedulerOutput Scheduler::finish(const SchedulerInput& input, sim::Schedule schedule) {
  const obs::ProfileScope profile("sched.predict");
  sim::Schedule compacted = schedule.compacted();
  const sim::SimResult prediction = sim::Predictor(input.wf, input.platform, compacted).run();
  SchedulerOutput out{std::move(compacted), prediction.makespan, prediction.total_cost(), false};
  out.budget_feasible = out.predicted_cost <= input.budget + money_epsilon;
  return out;
}

}  // namespace cloudwf::sched
