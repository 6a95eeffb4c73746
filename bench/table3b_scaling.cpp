/// \file table3b_scaling.cpp
/// \brief Reproduces Table III(b): CPU time to compute one schedule for
/// MONTAGE workflows of 30, 60, 90 and 400 tasks at a high budget, for the
/// six unrefined algorithms the paper tabulates (MIN-MIN, HEFT, MIN-MINBUDG,
/// HEFTBUDG, BDT, CG).
///
/// Expected shape: superlinear growth with the task count (the candidate
/// host set grows with the schedule), with all six algorithms within the
/// same order of magnitude at a given size.

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

std::vector<std::size_t> table_sizes() {
  if (bench::quick_mode()) return {30, 60};
  return {30, 60, 90, 400};
}

struct SizedContext {
  dag::Workflow wf;
  Dollars high_budget;
};

const SizedContext& context_for(std::size_t tasks) {
  static std::map<std::size_t, SizedContext>* cache = new std::map<std::size_t, SizedContext>();
  auto it = cache->find(tasks);
  if (it == cache->end()) {
    const auto platform = platform::paper_platform();
    auto wf = pegasus::generate(pegasus::WorkflowType::montage, {tasks, 1, 0.5});
    const exp::BudgetLevels levels = exp::compute_budget_levels(wf, platform);
    it = cache->emplace(tasks, SizedContext{std::move(wf), levels.high}).first;
  }
  return it->second;
}

void schedule_once(benchmark::State& state, const std::string& algorithm, std::size_t tasks) {
  const SizedContext& ctx = context_for(tasks);
  const auto platform = platform::paper_platform();
  const auto scheduler = sched::make_scheduler(algorithm);
  for (auto _ : state) {
    const auto out = scheduler->schedule(sched::make_input(ctx.wf, platform, ctx.high_budget));
    benchmark::DoNotOptimize(out.predicted_makespan);
  }
  state.counters["tasks"] = static_cast<double>(tasks);
}

void register_all() {
  const std::vector<std::string> algorithms{"minmin", "heft", "minmin-budg",
                                            "heft-budg", "bdt", "cg"};
  for (const std::string& algorithm : algorithms) {
    for (const std::size_t tasks : table_sizes()) {
      auto* bench = benchmark::RegisterBenchmark(
          ("table3b/" + algorithm + "/n" + std::to_string(tasks)).c_str(),
          [algorithm, tasks](benchmark::State& state) { schedule_once(state, algorithm, tasks); });
      bench->Unit(benchmark::kMillisecond);
      if (tasks >= 400) bench->Iterations(1);
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
