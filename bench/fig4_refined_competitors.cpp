/// \file fig4_refined_competitors.cpp
/// \brief Reproduces Figure 4: HEFTBUDG+ and HEFTBUDG+INV against CG+ on the
/// three families (makespan / valid fraction / spend vs budget).
///
/// Expected shapes: CG+ improves on CG but keeps finding higher makespans
/// than the HEFTBUDG+ variants (its DeltaT/Deltac rule skips moves that
/// reduce both time and cost); the HEFTBUDG+ variants respect the budget.

#include "bench_common.hpp"

int main() {
  using namespace cloudwf;
  bench::print_scale_banner("Figure 4");
  const std::vector<std::string> algorithms{"heft-budg-plus", "heft-budg-plus-inv", "cg-plus"};
  const std::vector<std::pair<std::string, std::string>> metrics{
      {"makespan", "makespan (s)"},
      {"valid", "fraction of valid executions"},
      {"cost", "actual spend ($)"}};
  for (const pegasus::WorkflowType type : pegasus::all_types())
    bench::run_figure_row("Figure 4", type, algorithms, metrics, /*low_budget_factor=*/0.5,
                          /*high_budget_cap_factor=*/2.5);
  return 0;
}
