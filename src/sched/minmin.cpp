#include "sched/minmin.hpp"

#include <vector>

#include "common/error.hpp"
#include "obs/event_bus.hpp"
#include "obs/profile.hpp"
#include "sched/best_host.hpp"
#include "sched/budget.hpp"
#include "sched/plan.hpp"
#include "sched/refine.hpp"

namespace cloudwf::sched {

namespace {

/// One ready task plus its memoized per-candidate estimates, aligned
/// index-for-index with EftState::candidates().
struct ReadyEntry {
  dag::TaskId task = 0;
  std::vector<PlacementEstimate> est;
};

/// Fills \p row.est with fresh estimates for every current candidate.
void probe_all(const EftState& state, ReadyEntry& row) {
  const std::span<const HostCandidate> hosts = state.candidates();
  row.est.resize(hosts.size());
  for (std::size_t j = 0; j < hosts.size(); ++j) row.est[j] = state.estimate(row.task, hosts[j]);
}

}  // namespace

sim::Schedule MinMinScheduler::run_list_pass(const SchedulerInput& input, bool budget_aware,
                                             std::vector<dag::TaskId>& order_out) {
  const dag::Workflow& wf = input.wf;
  const obs::ProfileScope profile("sched.plan");
  const bool trace = input.bus != nullptr && input.bus->enabled();

  BudgetShares shares;
  if (budget_aware) shares = divide_budget(input.plan.budget_model, input.budget);
  Dollars pot = 0;

  sim::Schedule schedule(wf.task_count());
  EftState state(wf, input.platform);
  order_out.clear();
  order_out.reserve(wf.task_count());

  // Ready set maintenance.  Each entry memoizes the task's estimate on every
  // candidate host; a committed placement only changes the availability of
  // the VM it landed on (and never the inputs of an already-ready task — the
  // committed task cannot be its predecessor), so each round re-probes one
  // column instead of the full (ready x hosts) cross product.  The budget
  // cap does change every round through the pot, but it only affects
  // selection, not the estimates, so BestHostScan re-runs over the memoized
  // rows at comparison cost only.
  std::vector<std::size_t> pending(wf.task_count());
  std::vector<ReadyEntry> ready;
  for (dag::TaskId t = 0; t < wf.task_count(); ++t) {
    pending[t] = wf.in_edges(t).size();
    if (pending[t] == 0) {
      ReadyEntry& row = ready.emplace_back();
      row.task = t;
      probe_all(state, row);
    }
  }

  std::size_t scheduled = 0;
  while (scheduled < wf.task_count()) {
    CLOUDWF_ASSERT(!ready.empty());
    const std::span<const HostCandidate> hosts = state.candidates();

    // Among ready tasks, find the pair (task, best host) with minimal EFT.
    // Scan order (ready rows outer, candidates inner) matches the
    // non-memoized implementation, so tie-breaking is bit-identical.
    std::size_t best_index = 0;
    BestHost best{};
    bool have_best = false;
    for (std::size_t i = 0; i < ready.size(); ++i) {
      const ReadyEntry& row = ready[i];
      CLOUDWF_ASSERT(row.est.size() == hosts.size());
      const std::optional<Dollars> cap =
          budget_aware ? std::optional<Dollars>(shares.share(row.task) + pot) : std::nullopt;
      BestHostScan scan(cap);
      for (std::size_t j = 0; j < hosts.size(); ++j) scan.consider(hosts[j], row.est[j]);
      const BestHost candidate = scan.result();
      if (!have_best ||
          better_placement(candidate.estimate, candidate.host, best.estimate, best.host)) {
        have_best = true;
        best = candidate;
        best_index = i;
      }
    }

    const dag::TaskId task = ready[best_index].task;
    const std::size_t n_candidates = trace ? ready.size() * hosts.size() : 0;
    const std::size_t old_used = state.used_host_count();
    const sim::VmId vm = state.commit(task, best.host, best.estimate, schedule);
    if (trace) {
      // MIN-MIN's candidate set is the (ready task, host) cross product.
      const std::optional<Dollars> cap =
          budget_aware ? std::optional<Dollars>(shares.share(task) + pot) : std::nullopt;
      emit_decision(*input.bus, scheduled, wf, input.platform, task, vm, best, n_candidates,
                    cap);
    }
    if (budget_aware) pot += shares.share(task) - best.estimate.cost;
    order_out.push_back(task);
    ++scheduled;

    ready.erase(ready.begin() + static_cast<std::ptrdiff_t>(best_index));

    // Re-probe only what the commit invalidated: the landed-on VM's column
    // (its availability moved).  A fresh commit inserts the new VM at
    // candidate index old_used (used VMs stay id-ordered, fresh slots shift
    // right); the fresh slots themselves keep their estimates, which depend
    // only on the category.
    const std::span<const HostCandidate> new_hosts = state.candidates();
    if (best.host.fresh) {
      for (ReadyEntry& row : ready) {
        row.est.insert(row.est.begin() + static_cast<std::ptrdiff_t>(old_used),
                       state.estimate(row.task, new_hosts[old_used]));
      }
    } else {
      // Used VMs occupy candidate indices [0, used) in ascending id order.
      std::size_t column = old_used;
      for (std::size_t j = 0; j < old_used; ++j) {
        if (new_hosts[j].vm == vm) {
          column = j;
          break;
        }
      }
      CLOUDWF_ASSERT(column < old_used);
      for (ReadyEntry& row : ready)
        row.est[column] = state.estimate(row.task, new_hosts[column]);
    }

    for (dag::EdgeId e : wf.out_edges(task)) {
      const dag::TaskId succ = wf.edge(e).dst;
      if (--pending[succ] == 0) {
        ReadyEntry& row = ready.emplace_back();
        row.task = succ;
        probe_all(state, row);
      }
    }
  }
  return schedule;
}

SchedulerOutput MinMinScheduler::schedule(const SchedulerInput& input) const {
  std::vector<dag::TaskId> order;
  sim::Schedule result = run_list_pass(input, budget_aware_, order);
  return finish(input, std::move(result));
}

SchedulerOutput MinMinBudgPlusScheduler::schedule(const SchedulerInput& input) const {
  std::vector<dag::TaskId> order;
  sim::Schedule current = MinMinScheduler::run_list_pass(input, /*budget_aware=*/true, order);
  refine_by_resimulation(input, current, order);
  return finish(input, std::move(current));
}

}  // namespace cloudwf::sched
