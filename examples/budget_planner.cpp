/// \file budget_planner.cpp
/// \brief Answers the practitioner's question the paper opens with: "which
/// VM types, how many, and what budget do I actually need?"
///
/// For a chosen workflow family/size it sweeps the budget axis with
/// HEFTBUDG, executes each schedule against stochastic weights, and prints a
/// planning table: spend, expected makespan, VM mix and the risk of
/// overrunning the budget.  It ends with the knee recommendation — the
/// smallest budget whose makespan is within 5% of the unconstrained optimum.
///
/// Usage: budget_planner [family=montage] [tasks=60] [sigma=0.5]

#include <cstdlib>
#include <iostream>
#include <map>
#include <string>

#include "common/table.hpp"
#include "exp/budget_levels.hpp"
#include "exp/evaluate.hpp"
#include "pegasus/generator.hpp"
#include "platform/platform.hpp"
#include "sched/registry.hpp"

int main(int argc, char** argv) try {
  using namespace cloudwf;

  const pegasus::WorkflowType family =
      pegasus::parse_type(argc > 1 ? argv[1] : "montage");
  const std::size_t tasks = argc > 2 ? static_cast<std::size_t>(std::atoi(argv[2])) : 60;
  const double sigma = argc > 3 ? std::atof(argv[3]) : 0.5;

  const platform::Platform cloud = platform::paper_platform();
  const dag::Workflow wf = pegasus::generate(family, {tasks, 1, sigma});
  const exp::BudgetLevels levels = exp::compute_budget_levels(wf, cloud);

  std::cout << "Planning " << wf.name() << " on " << cloud.name() << " (sigma/mu = " << sigma
            << ")\n"
            << "cheapest possible execution: $" << levels.min_cost << "\n\n";

  TablePrinter table("HEFTBUDG budget plan");
  table.columns({"budget ($)", "expected makespan (s)", "makespan p95 (s)", "mean spend ($)",
                 "#VMs", "VM mix", "overrun risk"});

  Dollars knee = levels.high;
  Seconds best_makespan = 0;
  {
    exp::EvalConfig config;
    config.repetitions = 25;
    const exp::EvalResult unconstrained =
        exp::evaluate(wf, cloud, "heft-budg", levels.high, config);
    best_makespan = unconstrained.makespan.mean();
  }

  for (const Dollars budget : exp::budget_sweep(levels, 8)) {
    exp::EvalConfig config;
    config.repetitions = 25;
    const exp::EvalResult r = exp::evaluate(wf, cloud, "heft-budg", budget, config);

    // VM mix of the produced schedule.
    const auto out =
        sched::make_scheduler("heft-budg")->schedule(sched::make_input(wf, cloud, budget));
    std::map<std::string, std::size_t> mix;
    for (sim::VmId vm = 0; vm < out.schedule.vm_count(); ++vm)
      if (!out.schedule.vm_tasks(vm).empty())
        ++mix[cloud.category(out.schedule.vm_category(vm)).name];
    std::string mix_text;
    for (const auto& [name, count] : mix)
      mix_text += (mix_text.empty() ? "" : ", ") + std::to_string(count) + " " + name;

    table.row({TablePrinter::num(budget, 4), TablePrinter::num(r.makespan.mean(), 0),
               TablePrinter::num(r.makespan.quantile(0.95), 0),
               TablePrinter::num(r.cost.mean(), 4), std::to_string(r.used_vms), mix_text,
               TablePrinter::num(100.0 * (1.0 - r.valid_fraction), 1) + "%"});

    if (r.makespan.mean() <= 1.05 * best_makespan && budget < knee) knee = budget;
  }
  table.print(std::cout);

  std::cout << "\nrecommendation: a budget of $" << TablePrinter::num(knee, 4)
            << " reaches within 5% of the unconstrained makespan ("
            << TablePrinter::num(best_makespan, 0) << " s)\n";
  return EXIT_SUCCESS;
} catch (const std::exception& error) {
  std::cerr << "budget_planner failed: " << error.what() << '\n';
  return EXIT_FAILURE;
}
