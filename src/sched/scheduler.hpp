#pragma once

/// \file scheduler.hpp
/// \brief Common interface of all scheduling algorithms (Section IV).

#include <memory>
#include <string>
#include <string_view>

#include "common/units.hpp"
#include "dag/workflow.hpp"
#include "platform/platform.hpp"
#include "sim/result.hpp"
#include "sim/schedule.hpp"

namespace cloudwf::obs {
class EventBus;
}  // namespace cloudwf::obs

namespace cloudwf::sched {

struct WorkflowPlan;

/// Everything a scheduler needs for one decision problem.  Built only by
/// make_input(), which validates the pieces once for every entry point (CLI,
/// experiment runner, tests) and always attaches a WorkflowPlan, so no
/// scheduler recomputes the budget-independent analyses or branches on
/// whether they exist.  Copies share the plan.
class SchedulerInput {
 public:
  const dag::Workflow& wf;              ///< frozen workflow
  const platform::Platform& platform;   ///< VM categories + datacenter
  Dollars budget;                       ///< B_ini; ignored by budget-unaware baselines
  /// Optional observability bus: list schedulers emit one sched_decision
  /// per placement (candidate count, chosen host, budget headroom) when a
  /// sink is attached.  Null costs nothing.
  obs::EventBus* bus;
  /// Ranks, HEFT order, levels and Algorithm 1's model of (wf, platform)
  /// (sched/plan.hpp): the caller's shared plan, or one make_input built.
  const WorkflowPlan& plan;

 private:
  SchedulerInput(const dag::Workflow& workflow, const platform::Platform& cloud, Dollars b_ini,
                 obs::EventBus* event_bus, std::shared_ptr<const WorkflowPlan> owned,
                 const WorkflowPlan& analyses);

  std::shared_ptr<const WorkflowPlan> owned_plan_;  ///< null when the caller lent one

  friend SchedulerInput make_input(const dag::Workflow& wf, const platform::Platform& platform,
                                   Dollars budget, obs::EventBus* bus, const WorkflowPlan* plan);
};

/// The only way to build a SchedulerInput: requires a frozen workflow and a
/// non-negative budget.  \p plan, when given, must have been built for this
/// (wf, platform) pair and outlive the input (a PlanCache entry, say);
/// otherwise the input builds its own plan and keeps it alive.
[[nodiscard]] SchedulerInput make_input(const dag::Workflow& wf,
                                        const platform::Platform& platform, Dollars budget,
                                        obs::EventBus* bus = nullptr,
                                        const WorkflowPlan* plan = nullptr);

/// A produced schedule plus its deterministic prediction.
///
/// The prediction is one sim::Simulator::run() with
/// dag::conservative_weights() (mu + sigma) — the same `simulate()`
/// Algorithm 5 uses — so every algorithm's feasibility is judged by one
/// consistent model.
struct SchedulerOutput {
  sim::Schedule schedule;         ///< complete, compacted mapping
  Seconds predicted_makespan = 0; ///< conservative-weights makespan
  Dollars predicted_cost = 0;     ///< conservative-weights C_wf
  bool budget_feasible = false;   ///< predicted_cost <= budget (+ rounding)
};

/// Abstract scheduling algorithm.
class Scheduler {
 public:
  virtual ~Scheduler() = default;

  /// Canonical lower-case name, e.g. "heft-budg".
  [[nodiscard]] virtual std::string_view name() const = 0;

  /// Computes a complete schedule for \p input.
  [[nodiscard]] virtual SchedulerOutput schedule(const SchedulerInput& input) const = 0;

 protected:
  /// Compacts \p schedule, runs it once with conservative weights and
  /// packages the output.
  [[nodiscard]] static SchedulerOutput finish(const SchedulerInput& input,
                                              sim::Schedule schedule);
};

}  // namespace cloudwf::sched
