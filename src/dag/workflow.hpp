#pragma once

/// \file workflow.hpp
/// \brief The workflow DAG container (paper Section III-A).
///
/// A Workflow is built incrementally (add_task / add_edge / external I/O
/// annotations) and then frozen with freeze(), which validates the structure
/// (acyclic, edges well-formed, positive weights) and precomputes adjacency
/// and a topological order.  All scheduling and simulation code requires a
/// frozen workflow.

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/units.hpp"
#include "dag/task.hpp"

namespace cloudwf::dag {

/// Directed acyclic graph of tasks with stochastic weights and data edges.
class Workflow {
 public:
  /// Creates an empty workflow with a human-readable \p name.
  explicit Workflow(std::string name = "workflow");

  // ---- construction ------------------------------------------------------

  /// Adds a task; names must be unique and weights non-negative.
  TaskId add_task(std::string name, Instructions mean_weight, Instructions weight_stddev,
                  std::string type = {});

  /// Adds a dependency edge carrying \p bytes; multi-edges are rejected.
  EdgeId add_edge(TaskId src, TaskId dst, Bytes bytes);

  /// Declares data that an entry task reads from outside the cloud
  /// (d_in,DC in Eq. 2); accumulates across calls.
  void add_external_input(TaskId task, Bytes bytes);

  /// Declares data that an exit task ships back to the user
  /// (d_DC,out in Eq. 2); accumulates across calls.
  void add_external_output(TaskId task, Bytes bytes);

  /// Validates and freezes the DAG; builds adjacency and topological order.
  /// Throws ValidationError on cycles or malformed structure.
  void freeze();

  [[nodiscard]] bool frozen() const { return frozen_; }

  // ---- basic accessors ---------------------------------------------------

  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] std::size_t task_count() const { return tasks_.size(); }
  [[nodiscard]] std::size_t edge_count() const { return edges_.size(); }
  [[nodiscard]] const Task& task(TaskId id) const;
  [[nodiscard]] const Edge& edge(EdgeId id) const;
  [[nodiscard]] std::span<const Task> tasks() const { return tasks_; }
  [[nodiscard]] std::span<const Edge> edges() const { return edges_; }

  /// Looks a task up by name; returns invalid_task if absent.
  [[nodiscard]] TaskId find_task(std::string_view name) const;

  // ---- adjacency (frozen only) ------------------------------------------

  /// Edges entering \p task.
  [[nodiscard]] std::span<const EdgeId> in_edges(TaskId task) const;
  /// Edges leaving \p task.
  [[nodiscard]] std::span<const EdgeId> out_edges(TaskId task) const;
  /// Tasks with no predecessor.
  [[nodiscard]] std::span<const TaskId> entry_tasks() const;
  /// A topological order of all tasks.
  [[nodiscard]] std::span<const TaskId> topological_order() const;

  // ---- aggregate queries (frozen only) ------------------------------------

  /// Sum of mean weights.
  [[nodiscard]] Instructions total_mean_weight() const { return total_mean_weight_; }
  /// Sum of conservative weights mu + sigma (W_max in Section IV-A).
  [[nodiscard]] Instructions total_conservative_weight() const {
    return total_conservative_weight_;
  }
  /// Sum of all edge sizes (d_max in Section IV-A).
  [[nodiscard]] Bytes total_edge_bytes() const { return total_edge_bytes_; }
  /// Total data entering the datacenter from outside (Eq. 2).
  [[nodiscard]] Bytes external_input_bytes() const { return external_input_total_; }
  /// Total data leaving the datacenter to the user (Eq. 2).
  [[nodiscard]] Bytes external_output_bytes() const { return external_output_total_; }
  /// External input attached to one task.
  [[nodiscard]] Bytes external_input_of(TaskId task) const;
  /// External output attached to one task.
  [[nodiscard]] Bytes external_output_of(TaskId task) const;
  /// Sum of incoming edge sizes of \p task (size(d_pred,T), Eq. 6).
  [[nodiscard]] Bytes predecessor_bytes(TaskId task) const;
  /// FNV-1a fingerprint of everything but the names: task weights, edges
  /// with their sizes and external data, in id order.  Workflows with equal
  /// hashes schedule and simulate identically (sched::PlanCache's key).
  [[nodiscard]] std::uint64_t content_hash() const;

 private:
  void require_frozen(const char* fn) const;
  void require_mutable(const char* fn) const;

  std::string name_;
  std::vector<Task> tasks_;
  std::vector<Edge> edges_;
  std::vector<Bytes> external_input_;   // per task
  std::vector<Bytes> external_output_;  // per task
  Bytes external_input_total_ = 0;
  Bytes external_output_total_ = 0;

  bool frozen_ = false;
  std::vector<std::vector<EdgeId>> in_edges_;
  std::vector<std::vector<EdgeId>> out_edges_;
  std::vector<TaskId> entries_;
  std::vector<TaskId> topo_order_;
  Instructions total_mean_weight_ = 0;
  Instructions total_conservative_weight_ = 0;
  Bytes total_edge_bytes_ = 0;
  std::uint64_t content_hash_ = 0;
};

}  // namespace cloudwf::dag
