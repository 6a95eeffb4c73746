/// \file test_simulator.cpp
/// \brief Hand-computed scenarios for the discrete-event engine (sim/simulator).
///
/// All scenarios use the toy platform: boot 10 s, bandwidth 1e6 B/s,
/// category 0 "slow" (speed 1, $1/s, setup $0.5), category 1 "fast"
/// (speed 2, $2/s, setup $0.5), free datacenter.

#include "sim/simulator.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <optional>
#include <sstream>
#include <string>

#include "common/error.hpp"
#include "dag/stochastic.hpp"
#include "sim/trace.hpp"
#include "testing/helpers.hpp"

namespace cloudwf::sim {
namespace {

using dag::TaskId;

TEST(Simulator, ChainOnSingleVmTimesExactly) {
  const auto wf = testing::chain3();
  const auto platform = testing::toy_platform();
  Schedule s(3);
  const VmId vm = s.add_vm(0);
  for (TaskId t : wf.topological_order()) s.assign(t, vm);

  const Simulator sim(wf, platform);
  const SimResult r = sim.run(s, dag::mean_weights(wf));

  // boot 0..10, A 10..110, B 110..310, C 310..710; no transfers.
  EXPECT_DOUBLE_EQ(r.tasks[0].start, 10.0);
  EXPECT_DOUBLE_EQ(r.tasks[0].finish, 110.0);
  EXPECT_DOUBLE_EQ(r.tasks[1].start, 110.0);
  EXPECT_DOUBLE_EQ(r.tasks[2].finish, 710.0);
  EXPECT_DOUBLE_EQ(r.start_first, 0.0);
  EXPECT_DOUBLE_EQ(r.end_last, 710.0);
  EXPECT_DOUBLE_EQ(r.makespan, 710.0);
  EXPECT_EQ(r.used_vms, 1u);
  EXPECT_EQ(r.transfers.count, 0u);
  // Billing starts at boot completion (boot is uncharged): 700 s * $1 + $0.5.
  EXPECT_DOUBLE_EQ(r.cost.vm_time, 700.0);
  EXPECT_DOUBLE_EQ(r.cost.vm_setup, 0.5);
  EXPECT_DOUBLE_EQ(r.total_cost(), 700.5);
}

TEST(Simulator, DiamondAcrossTwoVmsTimesExactly) {
  const auto wf = testing::diamond();
  const auto platform = testing::toy_platform();
  const TaskId a = wf.find_task("A");
  const TaskId b = wf.find_task("B");
  const TaskId c = wf.find_task("C");
  const TaskId d = wf.find_task("D");

  Schedule s(4);
  const VmId vm0 = s.add_vm(0);  // slow: A, B, D
  const VmId vm1 = s.add_vm(1);  // fast: C
  s.set_priority(a, 4);
  s.set_priority(b, 3);
  s.set_priority(c, 3.5);
  s.set_priority(d, 1);
  s.assign(a, vm0);
  s.assign(b, vm0);
  s.assign(d, vm0);
  s.assign(c, vm1);

  const Simulator sim(wf, platform);
  const SimResult r = sim.run(s, dag::mean_weights(wf));

  // vm0: boot 0..10; ext-input download 10..14; A 14..114.
  EXPECT_DOUBLE_EQ(r.tasks[a].start, 14.0);
  EXPECT_DOUBLE_EQ(r.tasks[a].finish, 114.0);
  // A->C upload 114..116; vm1 boots 116..126, download 126..128, C 128..278.
  EXPECT_DOUBLE_EQ(r.tasks[c].start, 128.0);
  EXPECT_DOUBLE_EQ(r.tasks[c].finish, 278.0);
  // B local after A: 114..314.
  EXPECT_DOUBLE_EQ(r.tasks[b].start, 114.0);
  EXPECT_DOUBLE_EQ(r.tasks[b].finish, 314.0);
  // C->D upload 278..279, prefetched download on vm0 279..280;
  // D waits for B: 314..414; external output upload 414..416.
  EXPECT_DOUBLE_EQ(r.tasks[d].start, 314.0);
  EXPECT_DOUBLE_EQ(r.tasks[d].finish, 414.0);
  EXPECT_DOUBLE_EQ(r.end_last, 416.0);
  EXPECT_DOUBLE_EQ(r.makespan, 416.0);

  // vm0 billed [10, 416] at $1/s; vm1 billed [126, 279] at $2/s.
  EXPECT_DOUBLE_EQ(r.vms[vm0].boot_done, 10.0);
  EXPECT_DOUBLE_EQ(r.vms[vm0].end, 416.0);
  EXPECT_DOUBLE_EQ(r.vms[vm1].boot_request, 116.0);
  EXPECT_DOUBLE_EQ(r.vms[vm1].boot_done, 126.0);
  EXPECT_DOUBLE_EQ(r.vms[vm1].end, 279.0);
  EXPECT_DOUBLE_EQ(r.cost.vm_time, 406.0 + 153.0 * 2.0);
  EXPECT_DOUBLE_EQ(r.cost.vm_setup, 1.0);

  // 3 uploads (A->C, C->D, D ext) + 3 downloads (A ext, C in, D in).
  EXPECT_EQ(r.transfers.count, 6u);
  EXPECT_DOUBLE_EQ(r.transfers.bytes, 12e6);
  EXPECT_EQ(r.used_vms, 2u);

  // D was bound by its same-VM predecessor B, C by A's upload.
  EXPECT_EQ(r.tasks[d].bound_by, b);
  EXPECT_EQ(r.tasks[c].bound_by, a);
}

TEST(Simulator, SameVmDataIsFree) {
  const auto wf = testing::diamond();
  const auto platform = testing::toy_platform();
  Schedule s(4);
  const VmId vm = s.add_vm(1);  // everything on one fast VM
  for (TaskId t : wf.topological_order()) s.assign(t, vm);
  const Simulator sim(wf, platform);
  const SimResult r = sim.run(s, dag::mean_weights(wf));
  // Only the external input (4 s) and output (2 s) are transferred.
  EXPECT_EQ(r.transfers.count, 2u);
  EXPECT_DOUBLE_EQ(r.transfers.bytes, 6e6);
  // boot 10 + download 4 + (100+200+300+100)/2 = 364 compute -> finish 364+14.
  EXPECT_DOUBLE_EQ(r.tasks[wf.find_task("D")].finish, 364.0);
  EXPECT_DOUBLE_EQ(r.end_last, 366.0);  // + ext output upload
}

TEST(Simulator, StochasticWeightsChangeMakespanDeterministically) {
  const auto wf = testing::diamond(0.5);
  const auto platform = testing::toy_platform();
  Schedule s(4);
  const VmId vm = s.add_vm(0);
  for (TaskId t : wf.topological_order()) s.assign(t, vm);
  const Simulator sim(wf, platform);

  Rng rng1(99);
  Rng rng2(99);
  const SimResult a = sim.run(s, dag::sample_weights(wf, rng1));
  const SimResult b = sim.run(s, dag::sample_weights(wf, rng2));
  EXPECT_DOUBLE_EQ(a.makespan, b.makespan);

  Rng rng3(100);
  const SimResult c = sim.run(s, dag::sample_weights(wf, rng3));
  EXPECT_NE(a.makespan, c.makespan);
}

TEST(Simulator, ConservativeRunUsesMuPlusSigma) {
  const auto wf = testing::diamond(1.0);  // sigma = mu
  const auto platform = testing::toy_platform();
  Schedule s(4);
  const VmId vm = s.add_vm(0);
  for (TaskId t : wf.topological_order()) s.assign(t, vm);
  const Simulator sim(wf, platform);
  const SimResult mean = sim.run(s, dag::mean_weights(wf));
  const SimResult conservative = sim.run(s, dag::conservative_weights(wf));
  // Compute doubles (700 -> 1400); transfers unchanged.
  EXPECT_DOUBLE_EQ(conservative.makespan - mean.makespan, 700.0);
}

TEST(Simulator, ListOrderGatesExecution) {
  const auto wf = testing::bag2();
  const auto platform = testing::toy_platform();
  Schedule s(2);
  const VmId vm = s.add_vm(0);
  s.set_priority(0, 1.0);
  s.set_priority(1, 2.0);  // B runs first
  s.assign(0, vm);
  s.assign(1, vm);
  const Simulator sim(wf, platform);
  const SimResult r = sim.run(s, dag::mean_weights(wf));
  EXPECT_DOUBLE_EQ(r.tasks[1].start, 10.0);
  EXPECT_DOUBLE_EQ(r.tasks[0].start, 110.0);
}

TEST(Simulator, CrossVmDeadlockDetected) {
  dag::Workflow wf("deadlock");
  const auto t1 = wf.add_task("T1", 10, 0);
  const auto t2 = wf.add_task("T2", 10, 0);
  const auto t3 = wf.add_task("T3", 10, 0);
  const auto t4 = wf.add_task("T4", 10, 0);
  wf.add_edge(t4, t1, 1);  // T1 needs T4
  wf.add_edge(t2, t3, 1);  // T3 needs T2
  wf.freeze();

  const auto platform = testing::toy_platform();
  Schedule s(4);
  const VmId vm0 = s.add_vm(0);
  const VmId vm1 = s.add_vm(0);
  s.set_priority(t1, 2);
  s.set_priority(t2, 1);
  s.set_priority(t3, 2);
  s.set_priority(t4, 1);
  s.assign(t1, vm0);  // vm0: [T1, T2]
  s.assign(t2, vm0);
  s.assign(t3, vm1);  // vm1: [T3, T4]
  s.assign(t4, vm1);

  const Simulator sim(wf, platform);
  EXPECT_THROW((void)sim.run(s, dag::mean_weights(wf)), ValidationError);
}

TEST(Simulator, DcContentionSlowsConcurrentUploads) {
  dag::Workflow wf("fanin");
  const auto a = wf.add_task("A", 100, 0);
  const auto b = wf.add_task("B", 100, 0);
  const auto c = wf.add_task("C", 100, 0);
  wf.add_edge(a, c, 1e6);
  wf.add_edge(b, c, 1e6);
  wf.freeze();

  const auto make_schedule = [&] {
    Schedule s(3);
    s.assign(a, s.add_vm(0));
    s.assign(b, s.add_vm(0));
    s.assign(c, s.add_vm(0));
    return s;
  };

  const auto uncontended = testing::toy_platform();
  const SimResult free_run = Simulator(wf, uncontended).run(make_schedule(), dag::mean_weights(wf));

  const auto contended = platform::PlatformBuilder("tight")
                             .add_category({"slow", 1.0, 1.0, 0.5, 1})
                             .boot_delay(10.0)
                             .bandwidth(1e6)
                             .dc_aggregate_bandwidth(1e6)  // one link's worth
                             .build();
  const SimResult tight_run = Simulator(wf, contended).run(make_schedule(), dag::mean_weights(wf));

  // Uploads A->C and B->C overlap: at half rate each they take 2 s instead
  // of 1 s, delaying C by exactly one second.
  EXPECT_DOUBLE_EQ(tight_run.makespan - free_run.makespan, 1.0);
  EXPECT_GE(tight_run.transfers.peak_concurrent, 2u);
}

TEST(Simulator, EmptyVmsAreIgnoredAndFree) {
  const auto wf = testing::bag2();
  const auto platform = testing::toy_platform();
  Schedule s(2);
  const VmId used = s.add_vm(0);
  (void)s.add_vm(1);  // never used
  s.assign(0, used);
  s.assign(1, used);
  const SimResult r = Simulator(wf, platform).run(s, dag::mean_weights(wf));
  EXPECT_EQ(r.used_vms, 1u);
  EXPECT_DOUBLE_EQ(r.cost.vm_setup, 0.5);  // only the used VM's setup
}

TEST(Simulator, WeightSizeMismatchRejected) {
  const auto wf = testing::bag2();
  const auto platform = testing::toy_platform();
  Schedule s(2);
  const VmId vm = s.add_vm(0);
  s.assign(0, vm);
  s.assign(1, vm);
  const Simulator sim(wf, platform);
  EXPECT_THROW((void)sim.run(s, dag::WeightRealization({1.0})), InvalidArgument);
}

TEST(Simulator, MakespanAtLeastCriticalPathWork) {
  // Property: no schedule can beat the fastest-category critical path.
  const auto wf = testing::diamond();
  const auto platform = testing::toy_platform();
  for (int layout = 0; layout < 3; ++layout) {
    Schedule s(4);
    for (TaskId t : wf.topological_order())
      s.assign(t, layout == 0 ? (s.vm_count() ? 0 : s.add_vm(1))
                              : s.add_vm(static_cast<platform::CategoryId>(layout - 1)));
    const SimResult r = Simulator(wf, platform).run(s, dag::mean_weights(wf));
    // CP work: A + C + D = 500 instructions at speed 2 minimum.
    EXPECT_GE(r.makespan, 500.0 / 2.0);
  }
}

TEST(Simulator, CriticalPathEndsAtLastTask) {
  const auto wf = testing::diamond();
  const auto platform = testing::toy_platform();
  Schedule s(4);
  const VmId vm = s.add_vm(0);
  for (TaskId t : wf.topological_order()) s.assign(t, vm);
  const SimResult r = Simulator(wf, platform).run(s, dag::mean_weights(wf));
  const auto path = schedule_critical_path(r);
  ASSERT_FALSE(path.empty());
  EXPECT_EQ(path.back(), wf.find_task("D"));
  // The chain must be ordered by finish time.
  for (std::size_t i = 1; i < path.size(); ++i)
    EXPECT_LE(r.tasks[path[i - 1]].finish, r.tasks[path[i]].start + 1e-9);
}

TEST(Simulator, TraceExportsAreWellFormed) {
  const auto wf = testing::diamond();
  const auto platform = testing::toy_platform();
  Schedule s(4);
  const VmId vm = s.add_vm(0);
  for (TaskId t : wf.topological_order()) s.assign(t, vm);
  const SimResult r = Simulator(wf, platform).run(s, dag::mean_weights(wf));

  std::ostringstream tasks_csv;
  write_task_trace_csv(wf, r, tasks_csv);
  const std::string tasks_text = tasks_csv.str();
  EXPECT_EQ(std::count(tasks_text.begin(), tasks_text.end(), '\n'), 5);  // header + 4

  std::ostringstream vms_csv;
  write_vm_trace_csv(r, vms_csv);
  const std::string vms_text = vms_csv.str();
  EXPECT_EQ(std::count(vms_text.begin(), vms_text.end(), '\n'), 2);  // header + 1

  const std::string json = result_summary_json(r);
  EXPECT_NE(json.find("\"makespan\""), std::string::npos);
  const std::string text = result_summary_text(r);
  EXPECT_NE(text.find("makespan"), std::string::npos);
}

/// Regression: recovery VMs with an empty billed window (end == boot_done)
/// used to export "nan" in the utilization column.
TEST(Simulator, VmTraceHandlesDegenerateBilledWindow) {
  SimResult r;
  VmRecord degenerate;
  degenerate.boot_done = 15;
  degenerate.end = 15;
  degenerate.recovery = true;
  r.vms.push_back(degenerate);

  std::ostringstream vms_csv;
  write_vm_trace_csv(r, vms_csv);
  const std::string text = vms_csv.str();
  EXPECT_EQ(std::count(text.begin(), text.end(), '\n'), 2);  // header + 1
  EXPECT_EQ(text.find("nan"), std::string::npos);
  EXPECT_EQ(text.find("inf"), std::string::npos);
}

// ---- Predictor: makespan lower bound -----------------------------------------

TEST(PredictorBound, TightWhenNothingQueues) {
  const auto wf = testing::chain3();
  const auto platform = testing::toy_platform();
  Schedule s(3);
  const VmId vm = s.add_vm(0);
  for (dag::TaskId t = 0; t < 3; ++t) s.assign(t, vm);
  // C moves to a fresh VM: B ends at 310, its 2 MB reach the DC at 312, the
  // fresh VM is up at 322, downloads until 324 and runs C until 724.
  const Move move{2, 1, true, 0};
  Predictor predictor(wf, platform, s);
  const std::optional<Seconds> bound = predictor.lower_bound(move);
  ASSERT_TRUE(bound.has_value());
  Schedule moved = s;
  moved.apply(move);
  const Seconds makespan =
      Simulator(wf, platform).run(moved, dag::conservative_weights(wf)).makespan;
  EXPECT_DOUBLE_EQ(makespan, 724.0);
  EXPECT_LE(*bound, makespan);
  EXPECT_NEAR(*bound, makespan, 1e-7);  // only the early-completion slack
  // A cutoff the bound reaches skips the simulation; a higher one does not.
  EXPECT_FALSE(predictor.predict(move, 700.0).has_value());
  EXPECT_EQ(predictor.predict(move, 800.0)->makespan, makespan);
}

TEST(PredictorBound, MisorderedMoveThrowsBeforeTheBound) {
  const auto wf = testing::chain3();
  const auto platform = testing::toy_platform();
  Schedule s(3);
  s.set_priority(0, 1.0);  // A ranks below its consumer B
  s.set_priority(1, 2.0);
  s.set_priority(2, 0.0);
  for (dag::TaskId t = 0; t < 3; ++t) s.assign(t, s.add_vm(0));
  // A lands behind B on B's VM.  Even a cutoff every bound reaches must not
  // skip the move: the same-VM order check runs first.
  const Move move{0, 1};
  Predictor predictor(wf, platform, s);
  const auto skip_all = [&] {
    (void)predictor.predict(move, -std::numeric_limits<Seconds>::infinity());
  };
  const auto bound = [&] { (void)predictor.lower_bound(move); };
  const std::string expected =
      "Schedule::validate: task B ordered before its same-VM predecessor A";
  EXPECT_EQ(testing::exact_error<ValidationError>(skip_all), expected);
  EXPECT_EQ(testing::exact_error<ValidationError>(bound), expected);
}

TEST(PredictorBound, DeadlockingMoveHasNoBoundAndIsSimulated) {
  // T4 -> T1 and T2 -> T3 (the CrossVmDeadlockDetected workflow).
  dag::Workflow wf("deadlock");
  const auto t1 = wf.add_task("T1", 10, 0);
  const auto t2 = wf.add_task("T2", 10, 0);
  const auto t3 = wf.add_task("T3", 10, 0);
  const auto t4 = wf.add_task("T4", 10, 0);
  wf.add_edge(t4, t1, 1);
  wf.add_edge(t2, t3, 1);
  wf.freeze();
  const auto platform = testing::toy_platform();
  Schedule s(4);
  const VmId vm0 = s.add_vm(0);
  const VmId vm1 = s.add_vm(0);
  const VmId vm2 = s.add_vm(0);
  s.set_priority(t1, 2);
  s.set_priority(t2, 1);
  s.set_priority(t3, 2);
  s.set_priority(t4, 1);
  s.assign(t1, vm0);  // vm0: [T1]
  s.assign(t3, vm1);  // vm1: [T3, T4]
  s.assign(t4, vm1);
  s.assign(t2, vm2);  // vm2: [T2]
  // T2 joins vm0 behind T1, which waits for T4 behind T3, which waits for T2.
  const Move move{t2, vm0};
  Predictor predictor(wf, platform, s);
  EXPECT_FALSE(predictor.lower_bound(move).has_value());
  const auto skip_all = [&] {
    (void)predictor.predict(move, -std::numeric_limits<Seconds>::infinity());
  };
  const std::string error = testing::exact_error<ValidationError>(skip_all);
  EXPECT_EQ(error.rfind("Simulator: schedule deadlocked", 0), 0u) << error;
}

TEST(Simulator, UnfrozenWorkflowRejected) {
  dag::Workflow wf("raw");
  wf.add_task("A", 1, 0);
  const auto platform = testing::toy_platform();
  EXPECT_THROW(Simulator(wf, platform), InvalidArgument);
}

}  // namespace
}  // namespace cloudwf::sim
