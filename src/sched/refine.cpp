#include "sched/refine.hpp"

#include <optional>

#include "common/error.hpp"
#include "obs/profile.hpp"
#include "sim/simulator.hpp"

namespace cloudwf::sched {

std::size_t refine_by_resimulation(const SchedulerInput& input, sim::Schedule& schedule,
                                   std::span<const dag::TaskId> order) {
  require(order.size() == input.wf.task_count(),
          "refine_by_resimulation: order must cover every task");
  const obs::ProfileScope profile("sched.refine");
  sim::Predictor predictor(input.wf, input.platform, schedule);
  Seconds best_makespan = predictor.run().makespan;
  std::size_t applied = 0;

  for (const dag::TaskId task : order) {
    std::optional<sim::Move> selected;
    for_each_move(schedule, input.platform.category_count(), task, [&](const sim::Move& move) {
      // Acceptance needs a strictly lower makespan: best_makespan is the cutoff.
      const std::optional<sim::Prediction> result = predictor.predict(move, best_makespan);
      if (result && result->makespan < best_makespan &&
          result->cost <= input.budget + money_epsilon) {
        best_makespan = result->makespan;
        selected = move;
      }
    });
    if (selected) {
      schedule.apply(*selected);
      predictor.rebase(schedule);
      ++applied;
    }
  }
  return applied;
}

}  // namespace cloudwf::sched
