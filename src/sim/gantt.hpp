#pragma once

/// \file gantt.hpp
/// \brief SVG Gantt-chart rendering of a simulated execution.
///
/// One horizontal lane per billed VM: a light band for the billed interval,
/// a hatched lead-in for the (uncharged) boot, and one labeled rectangle per
/// task, colored by task type.  A time axis and a cost/makespan caption
/// complete the chart.  The output is self-contained SVG 1.1.

#include <ostream>
#include <string>

#include "dag/workflow.hpp"
#include "sim/result.hpp"

namespace cloudwf::sim {

/// Rendering options.
struct GanttOptions {
  int width = 1200;          ///< total SVG width in px
  int lane_height = 28;      ///< per-VM lane height in px
  std::string title;         ///< chart title; empty = workflow name
};

/// Renders \p result as an SVG document.
[[nodiscard]] std::string render_gantt_svg(const dag::Workflow& wf, const SimResult& result,
                                           const GanttOptions& options = {});

/// Writes the SVG to \p out.
void write_gantt_svg(const dag::Workflow& wf, const SimResult& result, std::ostream& out,
                     const GanttOptions& options = {});

}  // namespace cloudwf::sim
