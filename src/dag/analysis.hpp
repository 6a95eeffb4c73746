#pragma once

/// \file analysis.hpp
/// \brief Structural and temporal DAG analyses used by the schedulers.
///
/// Bottom levels (HEFT's upward rank) drive HEFTBUDG's task order; precedence
/// levels drive BDT's budget trickling; the critical-path length and the
/// metrics feed the workflow-structure discussion of
/// Section V-B (Bag-of-Tasks-ness of LIGO/CYBERSHAKE vs MONTAGE).

#include <vector>

#include "common/units.hpp"
#include "dag/workflow.hpp"

namespace cloudwf::dag {

/// Parameters turning weights/bytes into time for rank computations.
struct RankParams {
  InstrPerSec mean_speed = 1.0;   ///< s-bar: average speed over VM categories
  BytesPerSec bandwidth = 1.0;    ///< bw between VMs and the datacenter
  bool conservative = true;       ///< use mu + sigma (paper) instead of mu
};

/// Execution-time estimate of one task under \p params.
[[nodiscard]] Seconds estimated_compute_time(const Task& task, const RankParams& params);

/// Bottom level (upward rank) per task: rank(T) = w_T/s + max over successors
/// of (bytes/bw + rank(succ)).  Exit tasks have rank equal to their own time.
[[nodiscard]] std::vector<Seconds> bottom_levels(const Workflow& wf, const RankParams& params);

/// Precedence level per task: 0 for entries, 1 + max over predecessors
/// otherwise (BDT's level grouping).
[[nodiscard]] std::vector<std::size_t> precedence_levels(const Workflow& wf);

/// Tasks grouped by precedence level, levels in topological order.
[[nodiscard]] std::vector<std::vector<TaskId>> tasks_by_level(const Workflow& wf);

/// Length (seconds) of the critical path: a lower bound on any makespan with
/// unlimited identical VMs of speed mean_speed (ignoring boot).
[[nodiscard]] Seconds critical_path_length(const Workflow& wf, const RankParams& params);

/// Task ids ordered by non-increasing bottom level (HEFT's list order).
/// Ties broken by task id for determinism.
[[nodiscard]] std::vector<TaskId> heft_order(const Workflow& wf, const RankParams& params);

/// Aggregate shape statistics of a DAG.
struct GraphMetrics {
  std::size_t depth = 0;          ///< number of precedence levels
  std::size_t width = 0;          ///< size of the largest level
  double mean_out_degree = 0.0;   ///< edges / tasks
  double ccr = 0.0;               ///< communication-to-computation ratio
                                  ///< (total transfer time / total compute time)
  double parallelism = 0.0;       ///< total work / critical path work
};

/// Computes GraphMetrics under \p params.
[[nodiscard]] GraphMetrics graph_metrics(const Workflow& wf, const RankParams& params);

}  // namespace cloudwf::dag
