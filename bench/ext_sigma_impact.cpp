/// \file ext_sigma_impact.cpp
/// \brief Reproduces the extended version's sigma study (referenced in
/// Section V-B): how the amount of weight uncertainty sigma/mu in
/// {0.25, 0.5, 0.75, 1.0} affects (i) the budget HEFTBUDG needs to reach the
/// baseline makespan and (ii) the validity of executions at a fixed budget.
///
/// Expected shapes: the needed budget grows with sigma; the budget
/// constraint keeps being respected even when task weights can be twice
/// their mean (sigma = mu).

#include <iostream>

#include "bench_common.hpp"
#include "common/table.hpp"
#include "dag/stochastic.hpp"
#include "exp/budget_levels.hpp"
#include "exp/evaluate.hpp"

int main() {
  using namespace cloudwf;
  bench::print_scale_banner("Extended study: impact of sigma");

  const auto platform = platform::paper_platform();
  const std::size_t tasks = bench::full_mode() ? 90 : bench::quick_mode() ? 20 : 40;
  const std::size_t instances = bench::quick_mode() ? 1 : 3;
  const std::size_t reps = bench::full_mode() ? 25 : 10;

  for (const pegasus::WorkflowType type : pegasus::all_types()) {
    TablePrinter table("sigma impact — " + std::string(pegasus::to_string(type)) + " (" +
                       std::to_string(tasks) + " tasks), HEFTBUDG");
    table.columns({"sigma/mu", "budget to reach baseline ($)", "valid fraction @1.5*min_cost",
                   "mean makespan (s)"});

    for (const double sigma : {0.25, 0.5, 0.75, 1.0}) {
      Accumulator needed;
      Accumulator valid;
      Accumulator makespan;
      for (std::size_t inst = 0; inst < instances; ++inst) {
        const auto base = pegasus::generate(type, {tasks, 100 + inst, sigma});
        const exp::BudgetLevels levels = exp::compute_budget_levels(base, platform);
        needed.add(levels.baseline_reaching);

        exp::EvalConfig config;
        config.repetitions = reps;
        config.seed = 1000 + inst;
        const exp::EvalResult r =
            exp::evaluate(base, platform, "heft-budg", 1.5 * levels.min_cost, config);
        valid.add(r.valid_fraction);
        makespan.add(r.makespan.mean());
      }
      table.row({TablePrinter::num(sigma, 2),
                 TablePrinter::pm(needed.mean(), needed.stddev(), 4),
                 TablePrinter::pm(valid.mean(), valid.stddev(), 3),
                 TablePrinter::pm(makespan.mean(), makespan.stddev(), 1)});
    }
    table.print(std::cout);
    std::cout << '\n';
  }
  return 0;
}
