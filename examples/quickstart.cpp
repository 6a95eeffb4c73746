/// \file quickstart.cpp
/// \brief Minimal end-to-end tour of the cloudwf API.
///
/// Generates a 30-task MONTAGE instance, schedules it with HEFTBUDG under a
/// mid-range budget, executes one stochastic realization on the simulator
/// and prints the outcome next to the budget-unaware HEFT baseline.
///
/// Usage: quickstart [algorithm] [budget]

#include <cstdlib>
#include <iostream>
#include <string>

#include "common/rng.hpp"
#include "dag/stochastic.hpp"
#include "exp/budget_levels.hpp"
#include "pegasus/generator.hpp"
#include "platform/platform.hpp"
#include "sched/registry.hpp"
#include "sim/simulator.hpp"
#include "sim/trace.hpp"

int main(int argc, char** argv) try {
  using namespace cloudwf;

  const std::string algorithm = argc > 1 ? argv[1] : "heft-budg";

  // 1. A platform (the paper's reconstructed Table II) and a workflow.
  const platform::Platform cloud = platform::paper_platform();
  const pegasus::GeneratorConfig gen{.task_count = 30, .seed = 7, .stddev_ratio = 0.5};
  const dag::Workflow wf = pegasus::generate(pegasus::WorkflowType::montage, gen);
  std::cout << "workflow: " << wf.name() << " (" << wf.task_count() << " tasks, "
            << wf.edge_count() << " edges)\n";

  // 2. Pick a budget: halfway between the cheapest execution and the
  //    unbounded-VM regime, unless the caller fixed one.
  const exp::BudgetLevels levels = exp::compute_budget_levels(wf, cloud);
  const Dollars budget = argc > 2 ? std::atof(argv[2]) : levels.medium;
  std::cout << "budgets: min_cost=$" << levels.min_cost << "  chosen=$" << budget
            << "  high=$" << levels.high << "\n\n";

  // 3. Schedule with the requested algorithm and with the HEFT baseline.
  for (const std::string& name : {algorithm, std::string("heft")}) {
    const auto scheduler = sched::make_scheduler(name);
    const sched::SchedulerOutput out = scheduler->schedule(sched::make_input(wf, cloud, budget));

    // 4. Execute one stochastic realization.
    Rng rng(2026);
    const dag::WeightRealization weights = dag::sample_weights(wf, rng);
    const sim::Simulator simulator(wf, cloud);
    const sim::SimResult run = simulator.run(out.schedule, weights);

    std::cout << "=== " << name << " ===\n"
              << "predicted: makespan " << out.predicted_makespan << " s, cost $"
              << out.predicted_cost << (out.budget_feasible ? " (within budget)" : " (OVER budget)")
              << "\n"
              << sim::result_summary_text(run)
              << "budget respected: " << (run.total_cost() <= budget ? "yes" : "NO") << "\n\n";
  }
  return EXIT_SUCCESS;
} catch (const std::exception& error) {
  std::cerr << "quickstart failed: " << error.what() << '\n';
  return EXIT_FAILURE;
}
