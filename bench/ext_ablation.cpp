/// \file ext_ablation.cpp
/// \brief Ablation study of HEFTBUDG's design ingredients (DESIGN.md §3):
///
///   full         — the paper's algorithm (conservative weights, Algorithm 1
///                  reservations, leftover pot)
///   no-pot       — leftovers are discarded instead of trickling forward
///   no-reserve   — the datacenter/setup reservation is skipped
///   mean-weights — planning uses mu instead of mu + sigma
///
/// For each variant we report, at budgets 1.1x / 1.5x / 3x the cheapest
/// execution: mean makespan, mean spend and the fraction of stochastic
/// executions that respect the budget.
///
/// Expected shapes: dropping the pot starves late tasks (longer makespans at
/// tight budgets); dropping the reservation spends money the datacenter and
/// setups will claim (validity drops); mean-weight planning cuts the safety
/// margin (validity drops as sigma grows).

#include <iostream>

#include "bench_common.hpp"
#include "common/table.hpp"
#include "dag/stochastic.hpp"
#include "exp/budget_levels.hpp"
#include "exp/evaluate.hpp"
#include "sched/heft.hpp"

namespace {

using namespace cloudwf;

struct Variant {
  std::string name;
  sched::HeftBudgOptions options;
  bool mean_weight_planning = false;
};

}  // namespace

int main() {
  bench::print_scale_banner("Extended study: HEFTBUDG ablation");

  const auto platform = platform::paper_platform();
  const std::size_t tasks = bench::full_mode() ? 90 : bench::quick_mode() ? 20 : 50;
  const std::size_t instances = bench::quick_mode() ? 1 : 3;
  const std::size_t reps = bench::full_mode() ? 25 : 10;
  const double sigma = 0.75;  // enough uncertainty for the margins to matter

  const std::vector<Variant> variants{
      {"full", {}, false},
      {"no-pot", {.share_pot = false, .reserve_budget = true}, false},
      {"no-reserve", {.share_pot = true, .reserve_budget = false}, false},
      {"mean-weights", {}, true},
  };

  for (const pegasus::WorkflowType type : pegasus::all_types()) {
    TablePrinter table("HEFTBUDG ablation — " + std::string(pegasus::to_string(type)) + " (" +
                       std::to_string(tasks) + " tasks, sigma/mu = 0.75)");
    table.columns({"variant", "budget factor", "mean makespan (s)", "mean spend ($)",
                   "valid fraction"});

    for (const Variant& variant : variants) {
      for (const double factor : {1.1, 1.5, 3.0}) {
        Accumulator makespan;
        Accumulator cost;
        Accumulator valid;
        for (std::size_t inst = 0; inst < instances; ++inst) {
          const dag::Workflow wf = pegasus::generate(type, {tasks, 300 + inst, sigma});
          const exp::BudgetLevels levels = exp::compute_budget_levels(wf, platform);
          const Dollars budget = factor * levels.min_cost;

          // mean-weights planning: schedule a zero-sigma copy, execute the
          // resulting mapping against the real stochastic workflow.
          const dag::Workflow planning_wf =
              variant.mean_weight_planning ? dag::with_stddev_ratio(wf, 0.0) : wf;
          const sched::HeftScheduler scheduler(/*budget_aware=*/true, variant.options);
          const sched::SchedulerOutput out =
              scheduler.schedule(sched::make_input(planning_wf, platform, budget));

          exp::EvalConfig config;
          config.repetitions = reps;
          config.seed = 555 + inst;
          const exp::EvalResult r =
              exp::evaluate_schedule(wf, platform, out, "heft-budg", budget, config);
          makespan.add(r.makespan.mean());
          cost.add(r.cost.mean());
          valid.add(r.valid_fraction);
        }
        table.row({variant.name, TablePrinter::num(factor, 1),
                   TablePrinter::pm(makespan.mean(), makespan.stddev(), 0),
                   TablePrinter::num(cost.mean(), 4),
                   TablePrinter::pm(valid.mean(), valid.stddev(), 2)});
      }
    }
    table.print(std::cout);
    std::cout << '\n';
  }
  return 0;
}
