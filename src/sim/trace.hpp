#pragma once

/// \file trace.hpp
/// \brief Human/machine-readable export of simulation results.

#include <array>
#include <ostream>
#include <string>
#include <string_view>

#include "dag/workflow.hpp"
#include "sim/result.hpp"

namespace cloudwf::obs {
class MetricsRegistry;
}  // namespace cloudwf::obs

namespace cloudwf::sim {

/// Header of tasks.csv: the TaskRecord fields by task name, plus the
/// derived duration (finish - start); bound_by is "-" when no input bound it.
inline constexpr std::array<std::string_view, 9> task_trace_columns{
    "task",         "vm",       "start",    "finish", "duration",
    "inputs_at_dc", "bound_by", "restarts", "failed"};

/// Header of vms.csv: the VmRecord fields by VM id, plus the derived
/// utilization (vm_utilization); `tasks` is VmRecord::task_count.
inline constexpr std::array<std::string_view, 12> vm_trace_columns{
    "vm",    "category",    "boot_request",  "boot_done", "end",      "busy",
    "tasks", "utilization", "boot_attempts", "crashed",   "recovery", "billed"};

/// Writes one CSV row per task, with the columns of task_trace_columns.
void write_task_trace_csv(const dag::Workflow& wf, const SimResult& result, std::ostream& out);

/// Writes one CSV row per VM that ran a task, was billed, crashed, served
/// recovery or needed a second boot attempt, with the columns of
/// vm_trace_columns.
void write_vm_trace_csv(const SimResult& result, std::ostream& out);

/// \name Crash-safe file variants
/// Stage through common/atomic_file (write-temp -> fsync -> rename), so an
/// interrupted export never leaves a torn trace on disk.
///@{
void save_task_trace_csv(const dag::Workflow& wf, const SimResult& result,
                         const std::string& path);
void save_vm_trace_csv(const SimResult& result, const std::string& path);
void save_result_summary_json(const SimResult& result, const std::string& path);
///@}

/// JSON summary of the run (makespan, cost breakdown, VM/transfer stats).
[[nodiscard]] std::string result_summary_json(const SimResult& result);

/// Pretty multi-line summary for terminal output (examples/quickstart).
[[nodiscard]] std::string result_summary_text(const SimResult& result);

/// Records the run's quantitative story into an obs::MetricsRegistry:
/// per-task queue-wait and per-VM utilization histograms, transfer/fault
/// counters, and makespan / cost / budget-headroom gauges.  \p budget <= 0
/// skips the headroom gauge (no budget to measure against).
void record_run_metrics(obs::MetricsRegistry& metrics, const SimResult& result, Dollars budget);

}  // namespace cloudwf::sim
