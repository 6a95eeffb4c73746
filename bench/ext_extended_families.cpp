/// \file ext_extended_families.cpp
/// \brief Generalization check beyond the paper's benchmark: the budget-aware
/// algorithms on the two Bharathi et al. families the paper did not
/// evaluate — EPIGENOMICS (deep per-lane pipelines) and SIPHT (wide
/// imbalanced fan-ins).
///
/// Expected shapes: the paper's findings carry over — budgets are respected
/// at and above the minimum, HEFTBUDG tracks HEFT once the budget allows,
/// and the structure dependence matches the paper's reasoning: the
/// pipeline-heavy EPIGENOMICS rewards HEFT's rank priorities (like MONTAGE),
/// while SIPHT's independent heavy analyses behave closer to a bag of tasks
/// (like LIGO).

#include "bench_common.hpp"

int main() {
  using namespace cloudwf;
  bench::print_scale_banner("Extended study: EPIGENOMICS and SIPHT");
  const std::vector<std::string> algorithms{"minmin-budg", "heft-budg", "bdt", "cg"};
  const std::vector<std::pair<std::string, std::string>> metrics{
      {"makespan", "makespan (s)"},
      {"valid", "fraction of valid executions"},
      {"cost", "actual spend ($)"}};
  for (const pegasus::WorkflowType type :
       {pegasus::WorkflowType::epigenomics, pegasus::WorkflowType::sipht})
    bench::run_figure_row("Extended families", type, algorithms, metrics);
  return 0;
}
