#include "sim/gantt.hpp"

#include <algorithm>
#include <cmath>
#include <iomanip>
#include <map>
#include <sstream>

#include "common/error.hpp"

namespace cloudwf::sim {

namespace {

// A color-blind-friendly categorical palette (Okabe-Ito), cycled per task type.
constexpr const char* palette[] = {"#0072B2", "#E69F00", "#009E73", "#CC79A7",
                                   "#56B4E9", "#D55E00", "#F0E442", "#999999"};
constexpr std::size_t palette_size = sizeof(palette) / sizeof(palette[0]);

void escape_into(std::string& out, const std::string& text) {
  for (char c : text) {
    switch (c) {
      case '&': out += "&amp;"; break;
      case '<': out += "&lt;"; break;
      case '>': out += "&gt;"; break;
      default: out += c;
    }
  }
}

std::string fmt(double value) {
  std::ostringstream os;
  os << std::fixed << std::setprecision(1) << value;
  return os.str();
}

}  // namespace

std::string render_gantt_svg(const dag::Workflow& wf, const SimResult& result,
                             const GanttOptions& options) {
  require(options.width > 200, "render_gantt_svg: width too small");
  require(options.lane_height >= 12, "render_gantt_svg: lane height too small");

  // Lanes: billed VMs in id order.
  std::vector<VmId> lanes;
  for (VmId v = 0; v < result.vms.size(); ++v)
    if (result.vms[v].task_count > 0 || result.vms[v].end > 0) lanes.push_back(v);
  require(!lanes.empty(), "render_gantt_svg: no billed VMs in result");

  const int margin_left = 90;
  const int margin_top = 40;
  const int margin_bottom = 50;
  const int chart_width = options.width - margin_left - 20;
  const int height = margin_top + static_cast<int>(lanes.size()) * options.lane_height +
                     margin_bottom;
  const Seconds t0 = result.start_first;
  const Seconds span = std::max(result.end_last - t0, 1e-9);
  const auto x_of = [&](Seconds t) {
    return margin_left + chart_width * (t - t0) / span;
  };
  const auto lane_y = [&](std::size_t lane) {
    return margin_top + static_cast<int>(lane) * options.lane_height;
  };

  // Stable per-type colors.
  std::map<std::string, const char*> colors;
  for (const dag::Task& task : wf.tasks())
    if (!colors.contains(task.type))
      colors.emplace(task.type, palette[colors.size() % palette_size]);

  std::ostringstream svg;
  svg << "<svg xmlns=\"http://www.w3.org/2000/svg\" width=\"" << options.width
      << "\" height=\"" << height << "\" font-family=\"sans-serif\">\n";
  svg << "<rect width=\"100%\" height=\"100%\" fill=\"white\"/>\n";

  std::string title = options.title.empty() ? wf.name() : options.title;
  std::string escaped_title;
  escape_into(escaped_title, title);
  svg << "<text x=\"" << margin_left << "\" y=\"20\" font-size=\"14\" font-weight=\"bold\">"
      << escaped_title << "</text>\n";
  svg << "<text x=\"" << options.width - 20 << "\" y=\"20\" font-size=\"12\" text-anchor=\"end\">"
      << "makespan " << fmt(result.makespan) << " s — cost $" << fmt(result.cost.total() * 1000)
      << "e-3</text>\n";

  // Time axis with ~8 ticks.
  const int ticks = 8;
  for (int i = 0; i <= ticks; ++i) {
    const Seconds t = t0 + span * i / ticks;
    const double x = x_of(t);
    svg << "<line x1=\"" << x << "\" y1=\"" << margin_top - 4 << "\" x2=\"" << x << "\" y2=\""
        << height - margin_bottom + 10 << "\" stroke=\"#dddddd\"/>\n";
    svg << "<text x=\"" << x << "\" y=\"" << height - margin_bottom + 24
        << "\" font-size=\"10\" text-anchor=\"middle\">" << fmt(t) << "</text>\n";
  }

  // Lanes.
  for (std::size_t lane = 0; lane < lanes.size(); ++lane) {
    const VmId vm = lanes[lane];
    const VmRecord& record = result.vms[vm];
    const int y = lane_y(lane);
    const int bar_h = options.lane_height - 6;

    svg << "<text x=\"8\" y=\"" << y + bar_h / 2 + 4 << "\" font-size=\"11\">vm" << vm << " ("
        << record.category << ") " << std::round(vm_utilization(record) * 100)
        << "%</text>\n";
    // Boot lead-in (uncharged): light grey.
    svg << "<rect x=\"" << x_of(record.boot_request) << "\" y=\"" << y << "\" width=\""
        << std::max(1.0, x_of(record.boot_done) - x_of(record.boot_request)) << "\" height=\""
        << bar_h << "\" fill=\"#eeeeee\" stroke=\"#bbbbbb\"/>\n";
    // Billed interval band.
    svg << "<rect x=\"" << x_of(record.boot_done) << "\" y=\"" << y << "\" width=\""
        << std::max(1.0, x_of(record.end) - x_of(record.boot_done)) << "\" height=\"" << bar_h
        << "\" fill=\"#f7f7f7\" stroke=\"#cccccc\"/>\n";
  }

  // Task bars.
  std::map<VmId, std::size_t> lane_of;
  for (std::size_t lane = 0; lane < lanes.size(); ++lane) lane_of[lanes[lane]] = lane;
  for (dag::TaskId t = 0; t < result.tasks.size(); ++t) {
    const TaskRecord& task = result.tasks[t];
    const auto lane_it = lane_of.find(task.vm);
    if (lane_it == lane_of.end()) continue;
    const int y = lane_y(lane_it->second);
    const int bar_h = options.lane_height - 6;
    const double x = x_of(task.start);
    const double w = std::max(1.0, x_of(task.finish) - x);
    svg << "<rect x=\"" << x << "\" y=\"" << y + 2 << "\" width=\"" << w << "\" height=\""
        << bar_h - 4 << "\" fill=\"" << colors[wf.task(t).type]
        << "\" fill-opacity=\"0.85\" stroke=\"#333333\" stroke-width=\"0.5\">"
        << "<title>";
    std::string tooltip;
    escape_into(tooltip, wf.task(t).name);
    svg << tooltip << ": " << fmt(task.start) << " - " << fmt(task.finish);
    if (task.restarts > 0) svg << " (" << task.restarts << " restart)";
    svg << "</title></rect>\n";
    if (w > 40) {
      std::string label;
      escape_into(label, wf.task(t).name);
      svg << "<text x=\"" << x + 3 << "\" y=\"" << y + bar_h / 2 + 4
          << "\" font-size=\"9\" fill=\"white\">" << label << "</text>\n";
    }
  }

  svg << "</svg>\n";
  return svg.str();
}

void write_gantt_svg(const dag::Workflow& wf, const SimResult& result, std::ostream& out,
                     const GanttOptions& options) {
  out << render_gantt_svg(wf, result, options);
}

}  // namespace cloudwf::sim
