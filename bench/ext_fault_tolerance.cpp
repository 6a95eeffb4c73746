/// \file ext_fault_tolerance.cpp
/// \brief Extended study: how gracefully do the budget-aware algorithms
/// degrade when the platform misbehaves?
///
/// The paper's model assumes a perfectly reliable IaaS platform.  This bench
/// re-runs the four budget-aware schedulers (MIN-MINBUDG, HEFTBUDG, HEFTBUDG+
/// and HEFTBUDG+INV) under injected VM crashes (sim::FaultModel) with the
/// bounded, budget-capped recovery of sim::RecoveryPolicy, sweeping the crash
/// rate lambda across several values per billed hour.
///
/// Metrics per (workflow family, algorithm, lambda): success fraction (no
/// terminal task failures), mean makespan and spend, mean recovery spend on
/// replacement VMs (the overhead of surviving), budget-validity fraction and
/// crashes per run.  The recovery cap is tied to the same budget the
/// scheduler had, so schedulers that provision many cheap VMs (spreading
/// risk) can be told apart from those that concentrate work on few fast VMs
/// (cheap but fragile).  Results land in ext_fault_tolerance.csv for
/// scripts/plot_results.py.

#include <fstream>
#include <iostream>

#include "bench_common.hpp"
#include "common/table.hpp"
#include "exp/budget_levels.hpp"
#include "exp/evaluate.hpp"
#include "exp/runner.hpp"

int main() {
  using namespace cloudwf;
  bench::print_scale_banner("Extended study: fault tolerance under VM crashes");

  const auto cloud = platform::paper_platform();
  const std::size_t tasks = bench::full_mode() ? 90 : bench::quick_mode() ? 23 : 50;
  const std::size_t reps = bench::full_mode() ? 50 : bench::quick_mode() ? 10 : 25;
  const std::vector<std::string> algorithms{"minmin-budg", "heft-budg", "heft-budg-plus",
                                            "heft-budg-plus-inv"};
  const std::vector<double> crash_rates{0.0, 0.5, 1.0, 2.0, 4.0};  // per billed hour

  std::vector<dag::Workflow> workflows;
  std::vector<exp::RunRequest> requests;
  workflows.reserve(pegasus::all_types().size());
  for (const pegasus::WorkflowType type : pegasus::all_types())
    workflows.push_back(pegasus::generate(type, {tasks, 3, 0.5}));

  for (const dag::Workflow& wf : workflows) {
    const auto levels = exp::compute_budget_levels(wf, cloud);
    const Dollars budget = 1.2 * levels.min_cost;
    for (const std::string& algorithm : algorithms) {
      for (const double lambda : crash_rates) {
        exp::RunRequest request;
        request.wf = &wf;
        request.algorithm = algorithm;
        request.budget = budget;
        request.config.repetitions = reps;
        request.config.seed = 4242;
        request.config.run.faults.lambda_crash = lambda;
        // Recovery may spend up to 1.5x the scheduling budget before the
        // engine degrades to already-paid VMs.
        request.config.run.recovery.budget_cap = 1.5 * budget;
        request.tag = "lambda" + TablePrinter::num(lambda, 1);
        requests.push_back(std::move(request));
      }
    }
  }

  const std::vector<exp::EvalResult> results =
      exp::run_requests(cloud, requests, /*threads=*/0);

  std::size_t index = 0;
  for (const dag::Workflow& wf : workflows) {
    TablePrinter table("fault tolerance — " + wf.name() + " (" + std::to_string(tasks) +
                       " tasks, budget 1.2*min, recovery cap 1.5*budget)");
    table.columns({"algorithm", "lambda/h", "success", "makespan (s)", "spend ($)",
                   "recovery ($)", "valid", "crashes/run"});
    for (const std::string& algorithm : algorithms) {
      for (const double lambda : crash_rates) {
        const exp::EvalResult& r = results[index++];
        table.row({algorithm, TablePrinter::num(lambda, 1),
                   TablePrinter::num(100 * r.success_fraction, 0) + "%",
                   TablePrinter::pm(r.makespan.mean(), r.makespan.stddev(), 0),
                   TablePrinter::num(r.cost.mean(), 4),
                   TablePrinter::num(r.recovery_cost_mean, 4),
                   TablePrinter::num(100 * r.valid_fraction, 0) + "%",
                   TablePrinter::num(r.crashes_mean, 2)});
      }
    }
    table.print(std::cout);
    std::cout << '\n';
  }

  std::ofstream csv("ext_fault_tolerance.csv");
  exp::write_results_csv(csv, requests, results);
  std::cout << "wrote ext_fault_tolerance.csv\n";
  return 0;
}
