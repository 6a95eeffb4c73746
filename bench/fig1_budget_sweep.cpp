/// \file fig1_budget_sweep.cpp
/// \brief Reproduces Figure 1: MIN-MIN, HEFT, MIN-MINBUDG and HEFTBUDG on
/// CYBERSHAKE / LIGO / MONTAGE, makespan + total cost + #VMs as a function
/// of the initial budget (mean ± stddev across instances).
///
/// Expected shapes (EXPERIMENTS.md): budgeted variants respect the budget
/// everywhere; makespan falls towards the baseline as budget grows; VM count
/// rises with budget; the baselines ignore the budget entirely (flat lines).

#include "bench_common.hpp"

int main() {
  using namespace cloudwf;
  bench::print_scale_banner("Figure 1");
  const std::vector<std::string> algorithms{"minmin", "heft", "minmin-budg", "heft-budg"};
  const std::vector<std::pair<std::string, std::string>> metrics{
      {"makespan", "makespan (s)"}, {"cost", "total cost ($)"}, {"vms", "#VMs"}};
  for (const pegasus::WorkflowType type : pegasus::all_types())
    bench::run_figure_row("Figure 1", type, algorithms, metrics);
  return 0;
}
