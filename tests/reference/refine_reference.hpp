#pragma once

/// \file refine_reference.hpp
/// \brief Straightforward reference implementations of the refinement loops.
///
/// These are the differential oracles of the optimized loops in
/// sched/refine.cpp (Algorithm 5) and sched/cg.cpp (CG+): every candidate
/// move deep-copies the schedule, applies the move and runs the full
/// Simulator::run() with conservative weights.  They stay deliberately naive — the
/// optimized code must reproduce their schedules bit for bit.

#include <span>

#include "common/error.hpp"
#include "common/units.hpp"
#include "sched/scheduler.hpp"
#include "sim/simulator.hpp"

namespace cloudwf::reference {

/// Algorithm 5 with one full re-simulation per candidate move; returns the
/// number of applied moves.
inline std::size_t refine_by_resimulation(const sched::SchedulerInput& input,
                                          sim::Schedule& schedule,
                                          std::span<const dag::TaskId> order) {
  require(order.size() == input.wf.task_count(), "reference: order must cover every task");
  const sim::Simulator simulator(input.wf, input.platform);
  Seconds best_makespan = simulator.run(schedule, dag::conservative_weights(input.wf)).makespan;
  std::size_t applied = 0;

  for (const dag::TaskId task : order) {
    const sim::VmId current_vm = schedule.vm_of(task);
    sim::VmId selected_vm = current_vm;
    platform::CategoryId selected_fresh_category = 0;
    bool selected_is_fresh = false;

    const auto try_candidate = [&](sim::Schedule tentative, sim::VmId vm, bool fresh,
                                   platform::CategoryId category) {
      tentative.move(task, vm);
      const sim::SimResult result = simulator.run(tentative, dag::conservative_weights(input.wf));
      if (result.makespan < best_makespan &&
          result.total_cost() <= input.budget + money_epsilon) {
        best_makespan = result.makespan;
        selected_vm = vm;
        selected_is_fresh = fresh;
        selected_fresh_category = category;
      }
    };

    // Used VMs other than the current one.
    for (sim::VmId vm = 0; vm < schedule.vm_count(); ++vm) {
      if (vm == current_vm || schedule.vm_tasks(vm).empty()) continue;
      try_candidate(schedule, vm, false, 0);
    }
    // One fresh VM per category.
    for (platform::CategoryId c = 0; c < input.platform.category_count(); ++c) {
      sim::Schedule tentative = schedule;
      const sim::VmId fresh = tentative.add_vm(c);
      try_candidate(std::move(tentative), fresh, true, c);
    }

    if (selected_is_fresh) {
      const sim::VmId fresh = schedule.add_vm(selected_fresh_category);
      schedule.move(task, fresh);
      ++applied;
    } else if (selected_vm != current_vm) {
      schedule.move(task, selected_vm);
      ++applied;
    }
  }
  return applied;
}

/// CG+'s critical-path refinement (the phase after CG's list pass) with one
/// full re-simulation per candidate move.
inline void cg_plus_refine(const sched::SchedulerInput& input, sim::Schedule& schedule) {
  const dag::Workflow& wf = input.wf;
  const platform::Platform& platform = input.platform;
  const sim::Simulator simulator(wf, platform);
  sim::SimResult current = simulator.run(schedule, dag::conservative_weights(wf));
  const std::size_t max_iterations = 3 * wf.task_count();

  for (std::size_t iter = 0; iter < max_iterations; ++iter) {
    const auto path = sim::schedule_critical_path(current);

    double best_ratio = 0;
    dag::TaskId best_task = dag::invalid_task;
    sim::VmId best_vm = sim::invalid_vm;
    bool best_fresh = false;
    platform::CategoryId best_category = 0;

    const auto consider = [&](dag::TaskId task, sim::Schedule tentative, sim::VmId vm,
                              bool fresh, platform::CategoryId category) {
      tentative.move(task, vm);
      const sim::SimResult result = simulator.run(tentative, dag::conservative_weights(wf));
      const Seconds dt = current.makespan - result.makespan;
      const Dollars dc = result.total_cost() - current.total_cost();
      if (dt <= time_epsilon || dc <= money_epsilon) return;
      if (result.total_cost() > input.budget + money_epsilon) return;
      const double ratio = dt / dc;
      if (ratio > best_ratio) {
        best_ratio = ratio;
        best_task = task;
        best_vm = vm;
        best_fresh = fresh;
        best_category = category;
      }
    };

    for (dag::TaskId task : path) {
      const sim::VmId current_vm = schedule.vm_of(task);
      for (sim::VmId vm = 0; vm < schedule.vm_count(); ++vm) {
        if (vm == current_vm || schedule.vm_tasks(vm).empty()) continue;
        consider(task, schedule, vm, false, 0);
      }
      for (platform::CategoryId c = 0; c < platform.category_count(); ++c) {
        sim::Schedule tentative = schedule;
        const sim::VmId fresh = tentative.add_vm(c);
        consider(task, std::move(tentative), fresh, true, c);
      }
    }

    if (best_task == dag::invalid_task) break;
    if (best_fresh) {
      const sim::VmId fresh = schedule.add_vm(best_category);
      schedule.move(best_task, fresh);
    } else {
      schedule.move(best_task, best_vm);
    }
    current = simulator.run(schedule, dag::conservative_weights(wf));
  }
}

}  // namespace cloudwf::reference
