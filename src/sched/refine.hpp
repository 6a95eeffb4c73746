#pragma once

/// \file refine.hpp
/// \brief The Algorithm 5 refinement loop, factored out of HEFTBUDG+.
///
/// Given any complete schedule and a task visit order, the loop tries every
/// alternative host per task (for_each_move), predicts each tentative move
/// with the conservative sim::Predictor, and keeps moves that beat the best
/// makespan seen so far while the total cost stays within the budget.  HEFTBUDG+ /
/// HEFTBUDG+INV instantiate it on HEFTBUDG's schedule; MINMINBUDG+ (the
/// extension the paper suggests in Section V-B: "similar improvements could
/// be designed for MIN-MINBUDG") instantiates it on MIN-MINBUDG's.

#include <span>

#include "sched/scheduler.hpp"
#include "sim/schedule.hpp"

namespace cloudwf::sched {

/// The candidate moves of \p task shared by Algorithm 5 and CG+, in scan
/// order: every used VM except the task's own, then one fresh VM per
/// category (numbered schedule.vm_count()).
template <class Visit>
void for_each_move(const sim::Schedule& schedule, std::size_t category_count, dag::TaskId task,
                   Visit&& visit) {
  const sim::VmId current = schedule.vm_of(task);
  for (sim::VmId vm = 0; vm < schedule.vm_count(); ++vm)
    if (vm != current && !schedule.vm_tasks(vm).empty()) visit(sim::Move{task, vm});
  const auto fresh = static_cast<sim::VmId>(schedule.vm_count());
  for (platform::CategoryId c = 0; c < category_count; ++c)
    visit(sim::Move{task, fresh, true, c});
}

/// Runs the refinement sweep in place; \p order is the task visit order
/// (every task exactly once).  Returns the number of applied moves.
std::size_t refine_by_resimulation(const SchedulerInput& input, sim::Schedule& schedule,
                                   std::span<const dag::TaskId> order);

}  // namespace cloudwf::sched
