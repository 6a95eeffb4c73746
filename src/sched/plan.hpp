#pragma once

/// \file plan.hpp
/// \brief Budget-independent workflow analyses, shared across scheduler runs.
///
/// Every list scheduler starts from the same frozen-workflow analyses:
/// conservative bottom levels and the HEFT order (HEFT*, CG*), precedence
/// levels (BDT) and Algorithm 1's time model (every budget-aware kernel).
/// WorkflowPlan is their only source: make_input() attaches one to every
/// SchedulerInput, either the caller's or one it builds.  A campaign
/// evaluates the same workflow instance across many budget levels and
/// algorithms, so PlanCache shares one plan across a whole experiment matrix
/// (the runner attaches one automatically — see exp/runner.hpp), and
/// exp::compute_budget_levels builds one for its whole bisection.
///
/// Sharing a plan never changes results: a plan holds only budget-independent
/// quantities, and building it is deterministic, so a cached plan and a
/// freshly built one are the same doubles.

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <utility>
#include <vector>

#include "dag/analysis.hpp"
#include "dag/workflow.hpp"
#include "platform/platform.hpp"
#include "sched/budget.hpp"

namespace cloudwf::sched {

/// Frozen-workflow analyses every scheduler reads via SchedulerInput::plan.
/// Built against one platform: the conservative ranks bake in its mean speed
/// and bandwidth.
struct WorkflowPlan {
  std::vector<Seconds> bottom_levels;     ///< HEFT upward ranks
  std::vector<dag::TaskId> heft_list;     ///< non-increasing rank order
  std::vector<std::vector<dag::TaskId>> levels;  ///< precedence levels (BDT)
  BudgetModel budget_model;               ///< Algorithm 1 time model

  [[nodiscard]] static WorkflowPlan build(const dag::Workflow& wf,
                                          const platform::Platform& platform);
};

/// Thread-safe plan store keyed by (workflow, platform) content: the pair of
/// Workflow::content_hash() and Platform::content_hash().  Equal copies share
/// one plan, and a workflow built where a destroyed one lived gets its own.
/// get() builds on first use and returns a reference that stays valid for the
/// cache's lifetime; the workflow and platform need not outlive the cache.
class PlanCache {
 public:
  [[nodiscard]] const WorkflowPlan& get(const dag::Workflow& wf,
                                        const platform::Platform& platform);

  /// Plans built so far (tests / diagnostics).
  [[nodiscard]] std::size_t size() const;

 private:
  using Key = std::pair<std::uint64_t, std::uint64_t>;
  mutable std::mutex mutex_;
  std::map<Key, std::unique_ptr<const WorkflowPlan>> plans_;
};

}  // namespace cloudwf::sched
