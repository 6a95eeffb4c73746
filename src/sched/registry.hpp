#pragma once

/// \file registry.hpp
/// \brief Name-based factory and capability records for every algorithm.
///
/// The registry is the single source of truth about which algorithms exist
/// and what they need: the CLI's default algorithm sets, the experiment
/// runner's validation and the campaign driver all consume SchedulerInfo
/// instead of hard-coding name lists.

#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "sched/scheduler.hpp"

namespace cloudwf::sched {

/// Static capability record of one registered algorithm.
struct SchedulerInfo {
  std::string_view name;      ///< canonical lower-case name, e.g. "heft-budg"
  bool needs_budget = false;  ///< consumes B_ini (budget-unaware baselines don't)
  bool refining = false;      ///< runs a resimulation/critical-path refinement
                              ///< pass on top of a base list pass
};

/// Every registered algorithm, in the paper's presentation order.  The span
/// is static storage; entries never move.
[[nodiscard]] std::span<const SchedulerInfo> scheduler_registry();

/// Capability record for \p name, or nullptr when unknown.
[[nodiscard]] const SchedulerInfo* find_scheduler(std::string_view name);

/// Capability record for \p name; throws InvalidArgument for unknown names
/// (same message as make_scheduler, so either works as early validation).
[[nodiscard]] const SchedulerInfo& scheduler_info(std::string_view name);

/// Canonical algorithm names, in the paper's presentation order:
/// "minmin", "heft", "minmin-budg", "heft-budg", "minmin-budg-plus"
/// (the refinement the paper suggests for MIN-MINBUDG), "heft-budg-plus",
/// "heft-budg-plus-inv", "bdt", "cg", "cg-plus".
[[nodiscard]] std::vector<std::string> algorithm_names();

/// Instantiates the scheduler registered under \p name.
/// Throws InvalidArgument for unknown names.
[[nodiscard]] std::unique_ptr<Scheduler> make_scheduler(std::string_view name);

}  // namespace cloudwf::sched
