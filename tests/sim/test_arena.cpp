/// \file test_arena.cpp
/// \brief A Simulator reuses one engine arena across runs: every run must
/// equal the same run on a fresh Simulator, field for field and bit for bit.

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "dag/stochastic.hpp"
#include "obs/event_bus.hpp"
#include "pegasus/generator.hpp"
#include "platform/platform.hpp"
#include "sched/heft.hpp"
#include "sim/simulator.hpp"

namespace cloudwf::sim {
namespace {

std::uint64_t bits(double value) { return std::bit_cast<std::uint64_t>(value); }

#define EXPECT_SAME_BITS(a, b) EXPECT_EQ(bits(a), bits(b)) << #a

void expect_same(const SimResult& got, const SimResult& want) {
  EXPECT_SAME_BITS(got.start_first, want.start_first);
  EXPECT_SAME_BITS(got.end_last, want.end_last);
  EXPECT_SAME_BITS(got.makespan, want.makespan);
  EXPECT_SAME_BITS(got.cost.vm_time, want.cost.vm_time);
  EXPECT_SAME_BITS(got.cost.vm_setup, want.cost.vm_setup);
  EXPECT_SAME_BITS(got.cost.dc_time, want.cost.dc_time);
  EXPECT_SAME_BITS(got.cost.dc_transfer, want.cost.dc_transfer);
  EXPECT_EQ(got.used_vms, want.used_vms);
  ASSERT_EQ(got.tasks.size(), want.tasks.size());
  for (std::size_t t = 0; t < got.tasks.size(); ++t) {
    SCOPED_TRACE("task " + std::to_string(t));
    const TaskRecord& a = got.tasks[t];
    const TaskRecord& b = want.tasks[t];
    EXPECT_EQ(a.vm, b.vm);
    EXPECT_SAME_BITS(a.inputs_at_dc, b.inputs_at_dc);
    EXPECT_SAME_BITS(a.start, b.start);
    EXPECT_SAME_BITS(a.finish, b.finish);
    EXPECT_EQ(a.restarts, b.restarts);
    EXPECT_EQ(a.failed, b.failed);
    EXPECT_EQ(a.bound_by, b.bound_by);
  }
  ASSERT_EQ(got.vms.size(), want.vms.size());
  for (std::size_t v = 0; v < got.vms.size(); ++v) {
    SCOPED_TRACE("vm " + std::to_string(v));
    const VmRecord& a = got.vms[v];
    const VmRecord& b = want.vms[v];
    EXPECT_EQ(a.category, b.category);
    EXPECT_SAME_BITS(a.boot_request, b.boot_request);
    EXPECT_SAME_BITS(a.boot_done, b.boot_done);
    EXPECT_SAME_BITS(a.end, b.end);
    EXPECT_SAME_BITS(a.busy, b.busy);
    EXPECT_EQ(a.task_count, b.task_count);
    EXPECT_EQ(a.boot_attempts, b.boot_attempts);
    EXPECT_EQ(a.crashed, b.crashed);
    EXPECT_EQ(a.recovery, b.recovery);
    EXPECT_EQ(a.billed, b.billed);
  }
  EXPECT_EQ(got.transfers.count, want.transfers.count);
  EXPECT_SAME_BITS(got.transfers.bytes, want.transfers.bytes);
  EXPECT_EQ(got.transfers.peak_concurrent, want.transfers.peak_concurrent);
  EXPECT_EQ(got.migrations, want.migrations);
  EXPECT_EQ(got.faults.boot_failures, want.faults.boot_failures);
  EXPECT_EQ(got.faults.crashes, want.faults.crashes);
  EXPECT_EQ(got.faults.transfer_failures, want.faults.transfer_failures);
  EXPECT_EQ(got.faults.transfer_aborts, want.faults.transfer_aborts);
  EXPECT_EQ(got.faults.task_reexecutions, want.faults.task_reexecutions);
  EXPECT_EQ(got.faults.failed_tasks, want.faults.failed_tasks);
  EXPECT_SAME_BITS(got.faults.wasted_compute, want.faults.wasted_compute);
  EXPECT_SAME_BITS(got.faults.recovery_cost, want.faults.recovery_cost);
  EXPECT_EQ(got.faults.degraded, want.faults.degraded);
  EXPECT_EQ(got.events_processed, want.events_processed);
}

void expect_same(const std::vector<obs::Event>& got, const std::vector<obs::Event>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    SCOPED_TRACE("event " + std::to_string(i));
    EXPECT_EQ(got[i].kind, want[i].kind);
    EXPECT_SAME_BITS(got[i].time, want[i].time);
    EXPECT_EQ(got[i].vm, want[i].vm);
    EXPECT_EQ(got[i].task, want[i].task);
    EXPECT_EQ(got[i].name, want[i].name);
    EXPECT_EQ(got[i].detail, want[i].detail);
    EXPECT_SAME_BITS(got[i].value, want[i].value);
    EXPECT_SAME_BITS(got[i].duration, want[i].duration);
  }
}

/// A 60-task CYBERSHAKE on the paper platform with two plans of different
/// VM counts: the HEFT list pass and every task on one slowest-category VM.
struct Fixture {
  dag::Workflow wf = pegasus::generate(pegasus::WorkflowType::cybershake, {60, 3, 0.5});
  platform::Platform platform = platform::paper_platform();
  Schedule spread = heft(wf, platform);
  Schedule single = one_vm(wf);

  static Schedule heft(const dag::Workflow& wf, const platform::Platform& platform) {
    std::vector<dag::TaskId> order;
    return sched::HeftScheduler::run_list_pass(sched::make_input(wf, platform, 1e9),
                                               /*budget_aware=*/false, order);
  }
  static Schedule one_vm(const dag::Workflow& wf) {
    Schedule schedule(wf.task_count());
    const VmId vm = schedule.add_vm(0);
    for (const dag::TaskId t : wf.topological_order()) schedule.assign(t, vm);
    return schedule;
  }
  [[nodiscard]] dag::WeightRealization draw(std::uint64_t seed) const {
    Rng rng(seed);
    return dag::sample_weights(wf, rng);
  }
};

/// Two edges a->b and c->d over four distinct tasks placed as vm0 [b, c],
/// vm1 [d, a]: b waits for a behind d, which waits for c behind b.  The
/// other tasks share a third VM in topological order, so part of the run
/// happens before the engine reports the deadlock.
Schedule deadlocking(const dag::Workflow& wf) {
  const auto edges = wf.edges();
  for (const dag::Edge& first : edges) {
    for (const dag::Edge& second : edges) {
      const dag::TaskId a = first.src, b = first.dst, c = second.src, d = second.dst;
      if (a == c || a == d || b == c || b == d) continue;
      Schedule schedule(wf.task_count());
      const VmId vm0 = schedule.add_vm(0);
      const VmId vm1 = schedule.add_vm(0);
      const VmId rest = schedule.add_vm(0);
      const double top = static_cast<double>(wf.task_count());
      schedule.set_priority(b, top + 4);
      schedule.set_priority(c, top + 3);
      schedule.set_priority(d, top + 2);
      schedule.set_priority(a, top + 1);
      schedule.assign(b, vm0);
      schedule.assign(c, vm0);
      schedule.assign(d, vm1);
      schedule.assign(a, vm1);
      double priority = top;
      for (const dag::TaskId t : wf.topological_order()) {
        if (t == a || t == b || t == c || t == d) continue;
        schedule.set_priority(t, priority--);
        schedule.assign(t, rest);
      }
      try {
        schedule.validate(wf, platform::paper_platform());
        return schedule;
      } catch (const ValidationError&) {  // a same-VM edge runs backwards
      }
    }
  }
  throw InternalError("test_arena: no deadlocking placement found");
}

TEST(SimulatorArena, MixedSequenceMatchesFreshSimulators) {
  const Fixture f;
  ASSERT_GT(f.spread.vm_count(), 3u);
  const dag::WeightRealization w1 = f.draw(1);
  const dag::WeightRealization w2 = f.draw(2);
  FaultModel faults;
  faults.lambda_crash = 4.0;
  faults.p_boot_fail = 0.2;
  faults.p_transfer_fail = 0.05;
  OnlinePolicy online;
  online.timeout_sigmas = 0.25;
  const Schedule stuck = deadlocking(f.wf);

  const Simulator shared(f.wf, f.platform);
  const auto fresh = [&] { return Simulator(f.wf, f.platform); };
  std::size_t migrations = 0;
  std::size_t recovered = 0;
  for (int round = 0; round < 2; ++round) {
    SCOPED_TRACE("round " + std::to_string(round));
    expect_same(shared.run(f.spread, w1), fresh().run(f.spread, w1));
    expect_same(shared.run(f.single, w2), fresh().run(f.single, w2));
    for (std::uint64_t rep = 0; rep < 3; ++rep) {
      const FaultModel model = faults.for_repetition(rep);
      const SimResult got = shared.run(f.spread, w2, {.faults = model});
      expect_same(got, fresh().run(f.spread, w2, {.faults = model}));
      recovered += got.vms.size() - f.spread.vm_count();
    }
    // A run that throws half-way leaves nothing behind for the next one.
    EXPECT_THROW((void)shared.run(stuck, w1), ValidationError);
    const SimResult moved = shared.run(f.single, w1, {.online = online});
    expect_same(moved, fresh().run(f.single, w1, {.online = online}));
    migrations += moved.migrations;
    const dag::WeightRealization conservative = dag::conservative_weights(f.wf);
    const dag::WeightRealization mean = dag::mean_weights(f.wf);
    expect_same(shared.run(f.single, conservative), fresh().run(f.single, conservative));
    expect_same(shared.run(f.spread, conservative), fresh().run(f.spread, conservative));
    expect_same(shared.run(f.spread, mean), fresh().run(f.spread, mean));
  }
  // The sequence did exercise the plan-growing paths.
  EXPECT_GT(migrations, 0u);
  EXPECT_GT(recovered, 0u);
}

TEST(SimulatorArena, BusAttachedRunsMatchFreshSimulators) {
  const Fixture f;
  const dag::WeightRealization w1 = f.draw(5);
  const dag::WeightRealization w2 = f.draw(6);
  obs::EventBus bus;
  obs::RecordingSink sink;
  const Simulator shared(f.wf, f.platform, &bus);
  obs::EventBus fresh_bus;
  obs::RecordingSink fresh_sink;
  fresh_bus.add_sink(&fresh_sink);

  // The bus has no sink yet: the first run emits nothing.
  const SimResult quiet = shared.run(f.spread, w1);
  EXPECT_EQ(bus.emitted(), 0u);
  bus.add_sink(&sink);

  const auto check = [&](const Schedule& schedule, const dag::WeightRealization& weights) {
    sink.clear();
    fresh_sink.clear();
    const SimResult got = shared.run(schedule, weights);
    const SimResult want = Simulator(f.wf, f.platform, &fresh_bus).run(schedule, weights);
    expect_same(got, want);
    expect_same(sink.events(), fresh_sink.events());
    EXPECT_FALSE(sink.events().empty());
  };
  check(f.spread, w1);
  check(f.single, w2);
  check(f.spread, w2);
  expect_same(quiet, Simulator(f.wf, f.platform).run(f.spread, w1));
}

TEST(RunOptions, DisabledFaultModelIsBitIdenticalToDefaultRun) {
  const Fixture f;
  const dag::WeightRealization weights = f.draw(3);
  // A disabled model's seed and delay, and the recovery bounds, go unread.
  RunOptions options;
  options.faults.seed = 99;
  options.faults.acquisition_delay = 5.0;
  options.recovery.max_boot_attempts = 1;
  options.recovery.budget_cap = 0.0;
  ASSERT_FALSE(options.faults.enabled());
  const Simulator simulator(f.wf, f.platform);
  expect_same(simulator.run(f.spread, weights, options), simulator.run(f.spread, weights));
  expect_same(Simulator(f.wf, f.platform).run(f.spread, weights, options),
              Simulator(f.wf, f.platform).run(f.spread, weights));
}

TEST(RunOptions, OnlineWithEnabledFaultsThrows) {
  const Fixture f;
  RunOptions options;
  options.online.emplace();
  options.faults.lambda_crash = 1.0;
  EXPECT_THROW(options.validate(), InvalidArgument);
  EXPECT_THROW((void)Simulator(f.wf, f.platform).run(f.spread, f.draw(1), options),
               InvalidArgument);
  options.faults.lambda_crash = 0.0;  // a disabled model adds no fault layer
  EXPECT_NO_THROW(options.validate());
}

}  // namespace
}  // namespace cloudwf::sim
