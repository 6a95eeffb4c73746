/// \file fig2_refined.cpp
/// \brief Reproduces Figure 2: HEFT, HEFTBUDG, HEFTBUDG+ and HEFTBUDG+INV on
/// the three workflow families (makespan / cost / #VMs vs budget).
///
/// Expected shapes: the refined variants dominate HEFTBUDG (up to ~1/3
/// shorter makespans on MONTAGE) while using fewer VMs; near the minimum
/// budget HEFTBUDG+ beats HEFTBUDG+INV; on LIGO (close to a bag of tasks)
/// the improvement is small.

#include "bench_common.hpp"

int main() {
  using namespace cloudwf;
  bench::print_scale_banner("Figure 2");
  const std::vector<std::string> algorithms{"heft", "heft-budg", "heft-budg-plus",
                                            "heft-budg-plus-inv"};
  const std::vector<std::pair<std::string, std::string>> metrics{
      {"makespan", "makespan (s)"}, {"cost", "total cost ($)"}, {"vms", "#VMs"}};
  for (const pegasus::WorkflowType type : pegasus::all_types())
    bench::run_figure_row("Figure 2", type, algorithms, metrics, /*low_budget_factor=*/1.0,
                          /*high_budget_cap_factor=*/1.6);
  return 0;
}
