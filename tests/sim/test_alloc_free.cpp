/// \file test_alloc_free.cpp
/// \brief Heap-allocation counts of the refinement hot path.
///
/// This binary replaces the global operator new with a counting one, so the
/// guards below are machine-independent: a passing check, a workflow
/// adjacency query, a schedule validation and a warm sim::Predictor probe
/// must not touch the heap at all, and a warm Simulator::run allocates only
/// the SimResult it returns.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <limits>
#include <new>
#include <vector>

#include "check/auto_check.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"
#include "dag/stochastic.hpp"
#include "exp/budget_levels.hpp"
#include "pegasus/generator.hpp"
#include "platform/platform.hpp"
#include "sched/heft.hpp"
#include "sched/refine.hpp"
#include "sim/simulator.hpp"

// Every non-aligned form is replaced, so allocation and release always pair
// up (sanitizer runtimes supply the forms a program leaves alone).
namespace {

std::atomic<std::size_t> allocations{0};

void* counted_malloc(std::size_t size) noexcept {
  allocations.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size == 0 ? 1 : size);
}

// Out of line: a free() inlined into operator delete reads to GCC as the
// release of a `new` expression's pointer (-Wmismatched-new-delete).
[[gnu::noinline]] void release(void* memory) noexcept { std::free(memory); }

}  // namespace

void* operator new(std::size_t size) {
  if (void* memory = counted_malloc(size)) return memory;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return operator new(size); }
void* operator new(std::size_t size, const std::nothrow_t& /*tag*/) noexcept {
  return counted_malloc(size);
}
void* operator new[](std::size_t size, const std::nothrow_t& /*tag*/) noexcept {
  return counted_malloc(size);
}
void operator delete(void* memory) noexcept { release(memory); }
void operator delete[](void* memory) noexcept { release(memory); }
void operator delete(void* memory, std::size_t /*size*/) noexcept { release(memory); }
void operator delete[](void* memory, std::size_t /*size*/) noexcept { release(memory); }
void operator delete(void* memory, const std::nothrow_t& /*tag*/) noexcept { release(memory); }
void operator delete[](void* memory, const std::nothrow_t& /*tag*/) noexcept { release(memory); }

namespace cloudwf {
namespace {

/// Heap allocations made while running \p body.
template <class Body>
std::size_t allocations_during(Body&& body) {
  const std::size_t before = allocations.load(std::memory_order_relaxed);
  body();
  return allocations.load(std::memory_order_relaxed) - before;
}

TEST(AllocFree, CounterSeesAllocations) {
  std::vector<int>* leak_check = nullptr;
  EXPECT_GE(allocations_during([&] { leak_check = new std::vector<int>(8); }), 2u);
  delete leak_check;
}

TEST(AllocFree, PassingChecksAllocateNothing) {
  const std::size_t count = allocations_during([] {
    require(true, "a check message well beyond the small-string buffer");
    validate(true, "another check message well beyond the small-string buffer");
  });
  EXPECT_EQ(count, 0u);
}

TEST(AllocFree, WorkflowQueriesAllocateNothing) {
  const dag::Workflow wf = pegasus::generate(pegasus::WorkflowType::cybershake, {24, 1, 0.5});
  std::size_t edges = 0;
  const std::size_t count = allocations_during([&] {
    for (dag::TaskId t = 0; t < wf.task_count(); ++t) {
      edges += wf.in_edges(t).size() + wf.out_edges(t).size();
      edges += wf.task(t).name.empty() ? 1 : 0;
    }
  });
  EXPECT_EQ(count, 0u);
  EXPECT_EQ(edges, 2 * wf.edge_count());
}

TEST(AllocFree, ScheduleValidationAllocatesNothingOnceWarm) {
  const dag::Workflow wf = pegasus::generate(pegasus::WorkflowType::cybershake, {24, 1, 0.5});
  const platform::Platform platform = platform::paper_platform();
  std::vector<dag::TaskId> order;
  const sim::Schedule schedule = sched::HeftScheduler::run_list_pass(
      sched::make_input(wf, platform, 1e9), /*budget_aware=*/false, order);
  schedule.validate(wf, platform);  // sizes the thread's scratch table
  EXPECT_EQ(allocations_during([&] { schedule.validate(wf, platform); }), 0u);
}

TEST(AllocFree, PredictorProbesAllocateNothingAfterTheFirst) {
  const bool was_checking = check::auto_check_installed();
  check::uninstall_auto_check();  // the checked path builds full results on purpose
  const dag::Workflow wf = pegasus::generate(pegasus::WorkflowType::cybershake, {24, 1, 0.5});
  const platform::Platform platform = platform::paper_platform();
  const exp::BudgetLevels levels = exp::compute_budget_levels(wf, platform);
  const sched::SchedulerInput input = sched::make_input(wf, platform, levels.medium);
  std::vector<dag::TaskId> order;
  const sim::Schedule schedule = sched::HeftScheduler::run_list_pass(input, true, order);

  std::vector<sim::Move> moves;
  for (const dag::TaskId task : order)
    sched::for_each_move(schedule, platform.category_count(), task,
                         [&](const sim::Move& move) { moves.push_back(move); });
  ASSERT_GT(moves.size(), wf.task_count());

  sim::Predictor predictor(wf, platform, schedule);
  const Seconds base = predictor.predict().makespan;  // the first probe
  Seconds sink = base;
  for (const sim::Move& move : moves) {
    // A full probe, then one the makespan lower bound may skip.
    const std::size_t count = allocations_during([&] {
      sink += predictor.predict(move, std::numeric_limits<Seconds>::infinity())->cost;
      if (const auto result = predictor.predict(move, base)) sink += result->cost;
    });
    EXPECT_EQ(count, 0u) << "task " << move.task << " -> vm " << move.vm
                         << (move.fresh ? " (fresh)" : "");
  }
  EXPECT_GT(sink, 0.0);
  if (was_checking) check::install_auto_check();
}

TEST(AllocFree, WarmSimulatorRunAllocatesOnlyItsResult) {
  const bool was_checking = check::auto_check_installed();
  check::uninstall_auto_check();
  const dag::Workflow wf = pegasus::generate(pegasus::WorkflowType::cybershake, {1000, 1, 0.5});
  const platform::Platform platform = platform::paper_platform();
  const exp::BudgetLevels levels = exp::compute_budget_levels(wf, platform);
  std::vector<dag::TaskId> order;
  const sim::Schedule schedule = sched::HeftScheduler::run_list_pass(
      sched::make_input(wf, platform, levels.medium), /*budget_aware=*/true, order);
  const sim::Simulator simulator(wf, platform);
  Rng rng(7);
  const dag::WeightRealization first = dag::sample_weights(wf, rng);
  const dag::WeightRealization second = dag::sample_weights(wf, rng);
  Seconds sink = simulator.run(schedule, first).makespan;  // builds the arena
  // A different realization of the same plan: only the returned result's
  // task and VM records may touch the heap.
  const std::size_t count =
      allocations_during([&] { sink += simulator.run(schedule, second).makespan; });
  EXPECT_LE(count, 4u);
  EXPECT_GT(sink, 0.0);
  if (was_checking) check::install_auto_check();
}

}  // namespace
}  // namespace cloudwf
