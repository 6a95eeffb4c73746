/// \file fig3_competitors.cpp
/// \brief Reproduces Figure 3: MIN-MINBUDG, HEFTBUDG, BDT and CG on the
/// three families — makespan, percentage of valid (budget-respecting)
/// executions, and actual spend vs the initial budget.
///
/// Expected shapes: BDT's %valid collapses at small budgets (eager
/// overspending) while its makespans are competitive when it succeeds; CG
/// stays glued to the cheapest schedule (low cost, long makespan); the
/// paper's algorithms respect the budget across the sweep.

#include "bench_common.hpp"

int main() {
  using namespace cloudwf;
  bench::print_scale_banner("Figure 3");
  const std::vector<std::string> algorithms{"minmin-budg", "heft-budg", "bdt", "cg"};
  const std::vector<std::pair<std::string, std::string>> metrics{
      {"makespan", "makespan (s)"},
      {"valid", "fraction of valid executions"},
      {"cost", "actual spend ($)"}};
  for (const pegasus::WorkflowType type : pegasus::all_types())
    bench::run_figure_row("Figure 3", type, algorithms, metrics, /*low_budget_factor=*/0.5);
  return 0;
}
