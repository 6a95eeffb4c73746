#include "dag/analysis.hpp"

#include <algorithm>
#include <numeric>

#include "common/error.hpp"

namespace cloudwf::dag {

namespace {

void check_params(const RankParams& params) {
  require(params.mean_speed > 0, "RankParams: mean_speed must be positive");
  require(params.bandwidth > 0, "RankParams: bandwidth must be positive");
}

}  // namespace

Seconds estimated_compute_time(const Task& task, const RankParams& params) {
  check_params(params);
  const Instructions weight = params.conservative ? task.conservative_weight() : task.mean_weight;
  return weight / params.mean_speed;
}

std::vector<Seconds> bottom_levels(const Workflow& wf, const RankParams& params) {
  check_params(params);
  std::vector<Seconds> rank(wf.task_count(), 0.0);
  const auto order = wf.topological_order();
  // Reverse topological sweep: successors are final before their predecessors.
  for (auto it = order.rbegin(); it != order.rend(); ++it) {
    const TaskId t = *it;
    Seconds best_succ = 0.0;
    for (EdgeId e : wf.out_edges(t)) {
      const Edge& edge = wf.edge(e);
      best_succ = std::max(best_succ, edge.bytes / params.bandwidth + rank[edge.dst]);
    }
    rank[t] = estimated_compute_time(wf.task(t), params) + best_succ;
  }
  return rank;
}

std::vector<std::size_t> precedence_levels(const Workflow& wf) {
  std::vector<std::size_t> level(wf.task_count(), 0);
  for (TaskId t : wf.topological_order()) {
    std::size_t best = 0;
    for (EdgeId e : wf.in_edges(t)) best = std::max(best, level[wf.edge(e).src] + 1);
    level[t] = best;
  }
  return level;
}

std::vector<std::vector<TaskId>> tasks_by_level(const Workflow& wf) {
  const auto level = precedence_levels(wf);
  const std::size_t depth = level.empty() ? 0 : *std::max_element(level.begin(), level.end()) + 1;
  std::vector<std::vector<TaskId>> groups(depth);
  for (TaskId t = 0; t < wf.task_count(); ++t) groups[level[t]].push_back(t);
  return groups;
}

Seconds critical_path_length(const Workflow& wf, const RankParams& params) {
  const auto rank = bottom_levels(wf, params);
  Seconds best = 0.0;
  for (TaskId t : wf.entry_tasks()) best = std::max(best, rank[t]);
  return best;
}

std::vector<TaskId> heft_order(std::span<const Seconds> ranks) {
  std::vector<TaskId> order(ranks.size());
  std::iota(order.begin(), order.end(), TaskId{0});
  std::stable_sort(order.begin(), order.end(), [&](TaskId a, TaskId b) {
    if (ranks[a] != ranks[b]) return ranks[a] > ranks[b];
    return a < b;
  });
  return order;
}

GraphMetrics graph_metrics(const Workflow& wf, const RankParams& params) {
  check_params(params);
  GraphMetrics m;
  const auto groups = tasks_by_level(wf);
  m.depth = groups.size();
  for (const auto& group : groups) m.width = std::max(m.width, group.size());
  m.mean_out_degree =
      static_cast<double>(wf.edge_count()) / static_cast<double>(wf.task_count());

  const Seconds compute =
      (params.conservative ? wf.total_conservative_weight() : wf.total_mean_weight()) /
      params.mean_speed;
  const Seconds transfer = wf.total_edge_bytes() / params.bandwidth;
  m.ccr = compute > 0 ? transfer / compute : 0.0;

  const Seconds cp = critical_path_length(wf, params);
  m.parallelism = cp > 0 ? compute / cp : 0.0;
  return m;
}

}  // namespace cloudwf::dag
