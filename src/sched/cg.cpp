#include "sched/cg.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <optional>

#include "common/error.hpp"
#include "obs/event_bus.hpp"
#include "obs/profile.hpp"
#include "sched/best_host.hpp"
#include "sched/plan.hpp"
#include "sched/refine.hpp"
#include "sim/simulator.hpp"

namespace cloudwf::sched {

namespace {

/// Estimated cost of one task on one category: compute plus inbound and
/// outbound transfers, all billed at the category rate (the CG extension's
/// per-task analogue of ct).
Dollars task_cost_on_category(const dag::Workflow& wf, const platform::Platform& platform,
                              dag::TaskId task, platform::CategoryId category) {
  const platform::VmCategory& cat = platform.category(category);
  const Seconds compute = wf.task(task).conservative_weight() / cat.speed;
  Bytes out_bytes = wf.external_output_of(task);
  for (dag::EdgeId e : wf.out_edges(task)) out_bytes += wf.edge(e).bytes;
  const Seconds transfer =
      (wf.predecessor_bytes(task) + wf.external_input_of(task) + out_bytes) /
      platform.bandwidth();
  return (compute + transfer) * cat.price_per_second;
}

/// Builds the all-tasks-on-one-VM schedule for \p category.
sim::Schedule single_vm_schedule(const dag::Workflow& wf, platform::CategoryId category) {
  sim::Schedule schedule(wf.task_count());
  const sim::VmId vm = schedule.add_vm(category);
  for (dag::TaskId t : wf.topological_order()) schedule.assign(t, vm);
  return schedule;
}

}  // namespace

Dollars single_vm_cost(const dag::Workflow& wf, const platform::Platform& platform,
                       platform::CategoryId category) {
  return sim::Predictor(wf, platform, single_vm_schedule(wf, category)).run().total_cost();
}

namespace {

/// CG: HEFT task order, each task on the category whose cost is closest to
/// its share of the global budget level gb.  Returns the uncompacted
/// schedule.
sim::Schedule cg_list_pass(const SchedulerInput& input) {
  const dag::Workflow& wf = input.wf;
  const platform::Platform& platform = input.platform;
  const obs::ProfileScope profile("sched.plan");
  const bool trace = input.bus != nullptr && input.bus->enabled();

  // ---- CG: global budget level gb ----------------------------------------
  // c_min: the cheapest execution (all tasks on a single VM of the cheapest
  // category, as the paper states).  c_max: the maximal spend — every task
  // on its own VM of the most expensive category, setup included.  (With
  // cost linear in speed, a *single* expensive VM would cost the same as a
  // single cheap one and gb would degenerate; the per-task reading is the
  // one that reproduces CG's near-cheapest behaviour in Figure 3.)
  const Dollars c_min = single_vm_cost(wf, platform, platform.cheapest_category());
  Dollars c_max = 0;
  {
    platform::CategoryId dearest = 0;
    for (platform::CategoryId c = 1; c < platform.category_count(); ++c)
      if (platform.category(c).price_per_second >
          platform.category(dearest).price_per_second)
        dearest = c;
    for (dag::TaskId t = 0; t < wf.task_count(); ++t)
      c_max += task_cost_on_category(wf, platform, t, dearest) +
               platform.category(dearest).setup_cost;
  }
  const double gb =
      c_max - c_min > money_epsilon
          ? std::clamp((input.budget - c_min) / (c_max - c_min), 0.0, 1.0)
          : 0.0;

  // ---- CG: per-task category choice, HEFT task order ----------------------
  const std::vector<Seconds>& ranks = input.plan.bottom_levels;

  sim::Schedule schedule(wf.task_count());
  for (dag::TaskId t = 0; t < wf.task_count(); ++t) schedule.set_priority(t, ranks[t]);
  EftState state(wf, platform);

  std::size_t decision = 0;
  std::vector<Dollars> cost_on(platform.category_count());
  for (dag::TaskId task : input.plan.heft_list) {
    // Target spend for this task.
    Dollars ct_min = std::numeric_limits<Dollars>::infinity();
    Dollars ct_max = 0;
    for (platform::CategoryId c = 0; c < platform.category_count(); ++c) {
      cost_on[c] = task_cost_on_category(wf, platform, task, c);
      ct_min = std::min(ct_min, cost_on[c]);
      ct_max = std::max(ct_max, cost_on[c]);
    }
    const Dollars target = ct_min + (ct_max - ct_min) * gb;

    platform::CategoryId chosen = 0;
    Dollars best_gap = std::numeric_limits<Dollars>::infinity();
    for (platform::CategoryId c = 0; c < platform.category_count(); ++c) {
      const Dollars gap = std::abs(cost_on[c] - target);
      if (gap < best_gap) {
        best_gap = gap;
        chosen = c;
      }
    }

    // Among instances of the chosen category (plus a fresh one), CG stays
    // cost-greedy: pick the instance with the smallest *marginal billed
    // cost* — reusing a VM bills its idle gap until the task starts, a fresh
    // one bills its setup — breaking ties by EFT.  This keeps CG's spend
    // near the cheapest schedule (Figure 3) instead of inheriting HEFT's
    // time-greedy instance packing.
    BestHost best{};
    Dollars best_marginal = std::numeric_limits<Dollars>::infinity();
    bool have = false;
    for (const HostCandidate& host : state.candidates()) {
      if (host.category != chosen) continue;
      const PlacementEstimate est = state.estimate(task, host);
      const Dollars marginal =
          est.cost + (host.fresh ? platform.category(host.category).setup_cost : 0.0);
      if (!have || marginal < best_marginal - money_epsilon ||
          (marginal <= best_marginal + money_epsilon &&
           better_placement(est, host, best.estimate, best.host))) {
        have = true;
        best_marginal = marginal;
        best = BestHost{host, est, true};
      }
    }
    CLOUDWF_ASSERT(have);
    const std::size_t n_candidates = trace ? state.candidates().size() : 0;
    const sim::VmId vm = state.commit(task, best.host, best.estimate, schedule);
    if (trace)
      emit_decision(*input.bus, decision, wf, platform, task, vm, best, n_candidates,
                    std::nullopt);
    ++decision;
  }
  return schedule;
}

/// CG+: spends the leftover budget on critical-path re-assignments, in place.
void refine_critical_path(const SchedulerInput& input, sim::Schedule& schedule) {
  const dag::Workflow& wf = input.wf;
  const platform::Platform& platform = input.platform;
  const obs::ProfileScope profile("sched.refine");
  sim::Predictor predictor(wf, platform, schedule);
  sim::SimResult current = predictor.run();
  // Generous iteration cap: each applied move strictly reduces makespan, but
  // guard against floating-point ping-pong anyway.
  const std::size_t max_iterations = 3 * wf.task_count();

  for (std::size_t iter = 0; iter < max_iterations; ++iter) {
    double best_ratio = 0;
    std::optional<sim::Move> best;
    for (dag::TaskId task : sim::schedule_critical_path(current)) {
      for_each_move(schedule, platform.category_count(), task, [&](const sim::Move& move) {
        // A move whose makespan cannot drop below the current one has dt <= 0.
        const std::optional<sim::Prediction> result = predictor.predict(move, current.makespan);
        if (!result) return;
        const Seconds dt = current.makespan - result->makespan;
        const Dollars dc = result->cost - current.total_cost();
        // Faithful CG+ rule: only time-improving, cost-increasing moves have
        // a positive ratio; cheaper-and-faster moves are (wrongly) skipped.
        if (dt <= time_epsilon || dc <= money_epsilon) return;
        if (result->cost > input.budget + money_epsilon) return;
        const double ratio = dt / dc;
        if (ratio > best_ratio) {
          best_ratio = ratio;
          best = move;
        }
      });
    }

    if (!best) break;  // leftover budget cannot buy time
    schedule.apply(*best);
    predictor.rebase(schedule);
    current = predictor.run();
  }
}

}  // namespace

SchedulerOutput CgScheduler::schedule(const SchedulerInput& input) const {
  sim::Schedule schedule = cg_list_pass(input);
  if (refine_) refine_critical_path(input, schedule);
  return finish(input, std::move(schedule));
}

}  // namespace cloudwf::sched
