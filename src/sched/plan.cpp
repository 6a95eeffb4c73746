#include "sched/plan.hpp"

#include "common/error.hpp"

namespace cloudwf::sched {

WorkflowPlan WorkflowPlan::build(const dag::Workflow& wf, const platform::Platform& platform) {
  require(wf.frozen(), "WorkflowPlan: workflow must be frozen");
  WorkflowPlan plan;
  const dag::RankParams rank_params{platform.mean_speed(), platform.bandwidth(),
                                    /*conservative=*/true};
  plan.bottom_levels = dag::bottom_levels(wf, rank_params);
  plan.heft_list = dag::heft_order(plan.bottom_levels);
  plan.levels = dag::tasks_by_level(wf);
  plan.budget_model = BudgetModel::build(wf, platform);
  return plan;
}

const WorkflowPlan& PlanCache::get(const dag::Workflow& wf,
                                   const platform::Platform& platform) {
  const Key key{wf.content_hash(), platform.content_hash()};
  const std::scoped_lock lock(mutex_);
  auto it = plans_.find(key);
  if (it == plans_.end()) {
    // Built under the lock: plans are milliseconds to build and only built
    // once, so serializing first use is simpler than racing duplicates.
    auto plan = std::make_unique<const WorkflowPlan>(WorkflowPlan::build(wf, platform));
    it = plans_.emplace(key, std::move(plan)).first;
  }
  return *it->second;
}

std::size_t PlanCache::size() const {
  const std::scoped_lock lock(mutex_);
  return plans_.size();
}

}  // namespace cloudwf::sched
