#pragma once

/// \file bench_common.hpp
/// \brief Shared scaffolding of the figure-reproduction binaries.
///
/// Every fig*/ext* binary reproduces one figure of the paper as a set of
/// ASCII tables (one per sub-plot metric).  Scale is controlled by
/// environment variables:
///   CLOUDWF_QUICK — CI scale (2 instances, 5 reps, 4 budgets, 30 tasks)
///   (default)     — trimmed scale, minutes on a laptop
///   CLOUDWF_FULL  — paper scale (5 instances, 25 reps, 8 budgets, 90 tasks)

#include <algorithm>
#include <cstdlib>
#include <iostream>
#include <string>
#include <vector>

#include "exp/campaign.hpp"
#include "pegasus/generator.hpp"
#include "platform/platform.hpp"

namespace cloudwf::bench {

/// True when CLOUDWF_QUICK is set in the environment.
[[nodiscard]] inline bool quick_mode() {
  const char* value = std::getenv("CLOUDWF_QUICK");
  return value != nullptr && *value != '\0';
}

/// True when CLOUDWF_FULL is set: paper-scale campaigns (5 instances x 25
/// repetitions x 8 budgets at 90 tasks).  Without it the bench binaries run
/// a trimmed-but-representative configuration.
[[nodiscard]] inline bool full_mode() {
  const char* value = std::getenv("CLOUDWF_FULL");
  return value != nullptr && *value != '\0';
}

/// Campaign configuration for one workflow family at the scale selected by
/// the environment.  The matrix runs on every core: campaign results do not
/// depend on the thread count, and the figures print no timing metric.
inline exp::CampaignConfig figure_config(pegasus::WorkflowType type,
                                         std::vector<std::string> algorithms) {
  exp::CampaignConfig config;
  config.type = type;
  config.algorithms = std::move(algorithms);
  config.seed = 42;
  config.threads = 0;
  if (full_mode()) {
    config.tasks = 90;
    config.instances = 5;
    config.repetitions = 25;
    config.budget_points = 8;
  } else {
    config.tasks = 90;
    config.instances = 3;
    config.repetitions = 10;
    config.budget_points = 6;
  }
  if (quick_mode()) {
    config.instances = std::min<std::size_t>(config.instances, 2);
    config.budget_points = std::min<std::size_t>(config.budget_points, 4);
    config.repetitions = std::min<std::size_t>(config.repetitions, 5);
    config.tasks = std::min<std::size_t>(config.tasks, 30);
  }
  return config;
}

/// Runs one family's campaign and prints the requested metric tables.
/// \p low_budget_factor extends the sweep below the feasible minimum
/// (Figure 3/4 validity studies).
inline void run_figure_row(const std::string& figure, pegasus::WorkflowType type,
                           const std::vector<std::string>& algorithms,
                           const std::vector<std::pair<std::string, std::string>>& metrics,
                           double low_budget_factor = 1.0,
                           double high_budget_cap_factor = 0.0) {
  exp::CampaignConfig config = figure_config(type, algorithms);
  config.low_budget_factor = low_budget_factor;
  config.high_budget_cap_factor = high_budget_cap_factor;
  // CLOUDWF_CHECKPOINT_DIR makes long figure regenerations crash-safe:
  // every finished cell is journaled there and a re-run of the binary
  // resumes instead of recomputing (tables stay byte-identical).
  if (const char* dir = std::getenv("CLOUDWF_CHECKPOINT_DIR"); dir != nullptr && *dir != '\0') {
    config.checkpoint_dir = dir;
    config.resume = true;
  }
  const platform::Platform platform = platform::paper_platform();
  const exp::CampaignResult result = exp::run_campaign(platform, config);
  for (const auto& [metric, label] : metrics) {
    const std::string title = figure + " — " + std::string(pegasus::to_string(type)) + " (" +
                              std::to_string(config.tasks) + " tasks) — " + label;
    exp::print_campaign_table(std::cout, result, metric, title);
  }
}

inline void print_scale_banner(const std::string& figure) {
  std::cout << "=== " << figure << " ===\n"
            << "scale: "
            << (full_mode() ? "FULL (paper)" : quick_mode() ? "QUICK (CI)" : "default")
            << " — set CLOUDWF_FULL=1 for the paper-scale campaign\n\n";
}

}  // namespace cloudwf::bench
