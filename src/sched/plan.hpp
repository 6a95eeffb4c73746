#pragma once

/// \file plan.hpp
/// \brief Budget-independent workflow analyses, shared across scheduler runs.
///
/// Every list scheduler starts by recomputing the same frozen-workflow
/// analyses: conservative bottom levels and the HEFT order (HEFT*, CG*),
/// precedence levels (BDT) and Algorithm 1's time model (every budget-aware
/// kernel).  A campaign evaluates the same workflow instance across many
/// budget levels and algorithms, so those analyses dominated repeated plan
/// time.  WorkflowPlan computes them once per (workflow, platform) pair;
/// PlanCache shares them across a whole experiment matrix (the runner
/// attaches one automatically — see exp/runner.hpp).
///
/// Sharing a plan never changes results: each cached value is the exact
/// double sequence the ad-hoc computation produces (same functions, same
/// iteration order), and only budget-independent quantities are cached.

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

/// Frozen-workflow analyses reused by every scheduler via
/// SchedulerInput::plan.  Built against one platform: the rank parameters
/// bake in mean speed and bandwidth.
struct WorkflowPlan {
  dag::RankParams rank_params;            ///< conservative, platform-derived
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
