/// \file table3a_cputime.cpp
/// \brief Reproduces Table III(a): CPU time to compute one schedule for a
/// MONTAGE workflow at "low", "medium" and "high" characteristic budgets,
/// for every algorithm (google-benchmark, one benchmark per cell).
///
/// Expected shape: HEFTBUDG+/+INV and CG+ sit two or more orders of
/// magnitude above the list schedulers; budget level barely matters for the
/// unrefined algorithms.
///
/// CLOUDWF_QUICK shrinks the workflow to 30 tasks; CLOUDWF_FULL uses the
/// paper's 90 tasks (default 60).

#include <benchmark/benchmark.h>

#include <map>
#include <memory>

#include "bench_common.hpp"
#include "exp/budget_levels.hpp"
#include "pegasus/generator.hpp"
#include "platform/platform.hpp"
#include "sched/registry.hpp"

namespace {

using namespace cloudwf;

std::size_t table_tasks() {
  if (bench::full_mode()) return 90;
  if (bench::quick_mode()) return 30;
  return 60;
}

struct TableContext {
  dag::Workflow wf;
  platform::Platform platform;
  std::map<std::string, Dollars> budgets;
};

const TableContext& context() {
  static const TableContext ctx = [] {
    const auto platform = platform::paper_platform();
    auto wf = pegasus::generate(pegasus::WorkflowType::montage, {table_tasks(), 1, 0.5});
    const exp::BudgetLevels levels = exp::compute_budget_levels(wf, platform);
    return TableContext{std::move(wf), platform,
                        {{"low", levels.low}, {"medium", levels.medium}, {"high", levels.high}}};
  }();
  return ctx;
}

void schedule_once(benchmark::State& state, const std::string& algorithm,
                   const std::string& level) {
  const TableContext& ctx = context();
  const auto scheduler = sched::make_scheduler(algorithm);
  const Dollars budget = ctx.budgets.at(level);
  for (auto _ : state) {
    const auto out = scheduler->schedule(sched::make_input(ctx.wf, ctx.platform, budget));
    benchmark::DoNotOptimize(out.predicted_makespan);
  }
  state.counters["tasks"] = static_cast<double>(ctx.wf.task_count());
  state.counters["budget"] = budget;
}

void register_all() {
  // The refined variants are orders of magnitude slower (that is the point
  // of Table III); give them fewer default iterations via MinTime.
  for (const std::string& algorithm : sched::algorithm_names()) {
    const bool heavy = algorithm.find("plus") != std::string::npos;
    for (const std::string level : {"low", "medium", "high"}) {
      auto* bench = benchmark::RegisterBenchmark(
          ("table3a/" + algorithm + "/" + level).c_str(),
          [algorithm, level](benchmark::State& state) { schedule_once(state, algorithm, level); });
      bench->Unit(benchmark::kMillisecond);
      if (heavy) bench->Iterations(1);
    }
  }
}

}  // namespace

int main(int argc, char** argv) {
  register_all();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
