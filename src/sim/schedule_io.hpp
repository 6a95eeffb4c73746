#pragma once

/// \file schedule_io.hpp
/// \brief JSON interchange for Schedule (cloudwf-lint, reproducible replays).
///
/// Schema (version 1):
///   {
///     "schema": "cloudwf-schedule", "version": 1,
///     "workflow": "<name>",        // provenance only; not validated
///     "task_count": N,
///     "vms": [ {"category": k,
///               "tasks": ["name", ...],          // execution order
///               "priorities": [p, ...]}, ... ]   // parallel to "tasks"
///   }
/// Tasks are referenced by name so a schedule file stays meaningful next to
/// its workflow JSON.  Loading re-assigns tasks in the stored per-VM order
/// with their stored priorities, which reproduces the original order
/// exactly (insertion is stable for equal priorities).

#include <string>

#include "common/json.hpp"
#include "dag/workflow.hpp"
#include "sim/schedule.hpp"

namespace cloudwf::sim {

[[nodiscard]] Json schedule_to_json(const Schedule& schedule, const dag::Workflow& wf);

/// Parses a schedule for \p wf; throws ValidationError on unknown task
/// names, out-of-range fields or a task assigned twice.
[[nodiscard]] Schedule schedule_from_json(const Json& json, const dag::Workflow& wf);

/// Writes the JSON form of \p schedule to \p path through an AtomicFile.
void save_schedule_json(const Schedule& schedule, const dag::Workflow& wf,
                        const std::string& path);

}  // namespace cloudwf::sim
