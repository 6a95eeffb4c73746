/// \file test_eft.cpp
/// \brief Unit tests for EFT estimation, Algorithm 2 (sched/eft, best_host).
///
/// Toy platform: boot 10, bw 1e6; slow (speed 1, $1/s), fast (speed 2, $2/s).

#include "sched/eft.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "pegasus/generator.hpp"
#include "sched/best_host.hpp"
#include "testing/helpers.hpp"

namespace cloudwf::sched {
namespace {

TEST(Eft, CandidatesAreUsedVmsPlusOneFreshPerCategory) {
  const auto wf = testing::diamond();
  const auto platform = testing::toy_platform();
  EftState state(wf, platform);
  sim::Schedule schedule(wf.task_count());

  auto hosts = state.candidates();
  ASSERT_EQ(hosts.size(), 2u);  // no used VMs yet
  EXPECT_TRUE(hosts[0].fresh);
  EXPECT_TRUE(hosts[1].fresh);

  const dag::TaskId a = wf.find_task("A");
  const PlacementEstimate est = state.estimate(a, hosts[0]);
  state.commit(a, hosts[0], est, schedule);

  hosts = state.candidates();
  ASSERT_EQ(hosts.size(), 3u);  // 1 used + 2 fresh
  EXPECT_FALSE(hosts[0].fresh);
}

TEST(Eft, EstimateOnFreshSlowHostMatchesEquation7) {
  const auto wf = testing::diamond();
  const auto platform = testing::toy_platform();
  EftState state(wf, platform);
  sim::Schedule schedule(wf.task_count());

  const dag::TaskId a = wf.find_task("A");
  const HostCandidate fresh_slow{sim::invalid_vm, 0, true};
  const PlacementEstimate est = state.estimate(a, fresh_slow);
  // t_Exec = boot 10 + 100/1 compute + 4e6/1e6 external input.
  EXPECT_DOUBLE_EQ(est.begin, 0.0);
  EXPECT_DOUBLE_EQ(est.exec, 114.0);
  EXPECT_DOUBLE_EQ(est.eft, 114.0);
  // Upload of A's outputs: (1e6 + 2e6)/1e6 = 3 s; billed time excludes the
  // uncharged boot: (114 - 10 + 3) * $1.
  EXPECT_DOUBLE_EQ(est.upload, 3.0);
  EXPECT_DOUBLE_EQ(est.cost, 107.0);
}

TEST(Eft, FastHostHalvesComputeDoublesRate) {
  const auto wf = testing::diamond();
  const auto platform = testing::toy_platform();
  EftState state(wf, platform);
  sim::Schedule schedule(wf.task_count());

  const dag::TaskId a = wf.find_task("A");
  const PlacementEstimate est = state.estimate(a, {sim::invalid_vm, 1, true});
  EXPECT_DOUBLE_EQ(est.exec, 10.0 + 50.0 + 4.0);
  EXPECT_DOUBLE_EQ(est.cost, (50.0 + 4.0 + 3.0) * 2.0);
}

TEST(Eft, ReuseSkipsBootAndLocalData) {
  const auto wf = testing::diamond();
  const auto platform = testing::toy_platform();
  EftState state(wf, platform);
  sim::Schedule schedule(wf.task_count());

  const dag::TaskId a = wf.find_task("A");
  const dag::TaskId b = wf.find_task("B");
  const HostCandidate fresh_slow{sim::invalid_vm, 0, true};
  const sim::VmId vm = state.commit(a, fresh_slow, state.estimate(a, fresh_slow),
                                    schedule);

  const PlacementEstimate reuse = state.estimate(b, {vm, 0, false});
  // Same host: no boot, A->B data local; begin at A's finish (avail).
  EXPECT_DOUBLE_EQ(reuse.begin, 114.0);
  EXPECT_DOUBLE_EQ(reuse.exec, 200.0);
  EXPECT_DOUBLE_EQ(reuse.eft, 314.0);

  const PlacementEstimate fresh = state.estimate(b, fresh_slow);
  // Fresh host: waits for A->B at DC (114 + 1), then boot + download + compute.
  EXPECT_DOUBLE_EQ(fresh.begin, 115.0);
  EXPECT_DOUBLE_EQ(fresh.exec, 10.0 + 200.0 + 1.0);
  EXPECT_DOUBLE_EQ(fresh.eft, 326.0);
}

TEST(Eft, CommitUpdatesAvailabilityAndAtDc) {
  const auto wf = testing::diamond();
  const auto platform = testing::toy_platform();
  EftState state(wf, platform);
  sim::Schedule schedule(wf.task_count());

  const dag::TaskId a = wf.find_task("A");
  const HostCandidate fresh{sim::invalid_vm, 0, true};
  const sim::VmId vm = state.commit(a, fresh, state.estimate(a, fresh), schedule);
  EXPECT_DOUBLE_EQ(state.finish_time(a), 114.0);
  EXPECT_DOUBLE_EQ(state.vm_available(vm), 114.0);
  // Edge A->C (2e6): at DC at 114 + 2.
  const dag::EdgeId ac = wf.in_edges(wf.find_task("C"))[0];
  EXPECT_DOUBLE_EQ(state.at_dc_time(ac), 116.0);
  EXPECT_DOUBLE_EQ(state.planned_makespan(), 114.0);
}

TEST(Eft, UncommittedQueriesThrow) {
  const auto wf = testing::diamond();
  const auto platform = testing::toy_platform();
  const EftState state(wf, platform);
  EXPECT_THROW((void)state.finish_time(0), InvalidArgument);
  EXPECT_THROW((void)state.at_dc_time(0), InvalidArgument);
  EXPECT_THROW((void)state.vm_available(0), InvalidArgument);
}

TEST(Eft, BetterPlacementOrdering) {
  const HostCandidate used{0, 0, false};
  const HostCandidate fresh{sim::invalid_vm, 0, true};
  PlacementEstimate fast{};
  fast.eft = 10;
  fast.cost = 5;
  PlacementEstimate slow{};
  slow.eft = 20;
  slow.cost = 1;
  EXPECT_TRUE(better_placement(fast, used, slow, used));    // EFT first
  PlacementEstimate cheap = fast;
  cheap.cost = 2;
  EXPECT_TRUE(better_placement(cheap, used, fast, used));   // then cost
  EXPECT_TRUE(better_placement(fast, used, fast, fresh));   // then reuse
}

/// Each category's availability index must list exactly its used VMs,
/// sorted by (planned availability, id).
void expect_index_sorted(const EftState& state, const platform::Platform& platform) {
  const auto hosts = state.candidates().first(state.used_host_count());
  for (platform::CategoryId c = 0; c < platform.category_count(); ++c) {
    std::vector<std::pair<Seconds, sim::VmId>> want;
    for (const HostCandidate& host : hosts)
      if (host.category == c) want.emplace_back(state.vm_available(host.vm), host.vm);
    std::sort(want.begin(), want.end());
    std::vector<std::pair<Seconds, sim::VmId>> got;
    for (const AvailableVm& entry : state.used_by_availability(c))
      got.emplace_back(entry.avail, entry.vm);
    ASSERT_EQ(got, want) << "category " << c;
  }
}

TEST(Eft, AvailabilityIndexFollowsEveryCommit) {
  const dag::Workflow wf = pegasus::generate(pegasus::WorkflowType::montage, {60, 3, 0.5});
  const platform::Platform platform = platform::paper_platform();
  // Built before the first commit, and built lazily half-way through.
  for (const bool early : {true, false}) {
    EftState state(wf, platform);
    sim::Schedule schedule(wf.task_count());
    Rng rng(early ? 1 : 2);
    if (early) (void)state.used_by_availability(0);
    std::size_t step = 0;
    for (const dag::TaskId task : wf.topological_order()) {
      const auto hosts = state.candidates();
      const HostCandidate host = hosts[rng.below(hosts.size())];
      PlacementEstimate estimate = state.estimate(task, host);
      // Planners only raise availability; also cover lowering it, and ties
      // with another VM's availability.
      if (!host.fresh && rng.below(4) == 0) estimate.eft = 0.5 * state.vm_available(host.vm);
      if (state.used_host_count() > 0 && rng.below(4) == 0)
        estimate.eft = state.vm_available(hosts[rng.below(state.used_host_count())].vm);
      state.commit(task, host, estimate, schedule);
      if (early || ++step > wf.task_count() / 2) {
        expect_index_sorted(state, platform);
        if (HasFatalFailure()) return;
      }
    }
  }
}

TEST(Eft, ReuseCostLowerBoundHoldsAcrossMagnitudes) {
  Rng rng(7);
  const auto magnitude = [&](double lo, double hi) { return std::pow(10.0, rng.uniform(lo, hi)); };
  for (int i = 0; i < 200000; ++i) {
    ReuseTerms terms;
    terms.exec = i % 7 == 0 ? 0.0 : magnitude(-6, 7);
    terms.upload = i % 5 == 0 ? 0.0 : magnitude(-6, 5);
    terms.price = magnitude(-8, 0);
    // Availability from far below exec to far above it (1e15 leaves no
    // fraction of a second in its ulp).
    const Seconds max_avail = i % 11 == 0 ? 1e15 : magnitude(-3, 12);
    const Seconds avail = i % 3 == 0 ? max_avail : max_avail * rng.uniform();
    // estimate()'s operations on a VM that begins at its own availability.
    const Seconds eft = avail + terms.exec;
    const Dollars cost = (eft - avail + terms.upload) * terms.price;
    const Dollars bound = reuse_cost_lower_bound(terms, max_avail);
    ASSERT_LE(bound, cost) << "exec " << terms.exec << " upload " << terms.upload << " price "
                           << terms.price << " avail " << avail << " of " << max_avail;
    // Tight enough to rule a category out: off the nominal cost by rounding
    // slack only.
    ASSERT_GE(bound, (terms.exec + terms.upload) * terms.price * (1 - 1e-13) -
                         1e-15 * (max_avail + terms.exec) * terms.price);
  }
}

TEST(BestHost, PicksSmallestEftWithoutCap) {
  const auto wf = testing::diamond();
  const auto platform = testing::toy_platform();
  EftState state(wf, platform);
  sim::Schedule schedule(wf.task_count());
  const BestHost best = get_best_host(state, wf.find_task("A"), std::nullopt);
  EXPECT_TRUE(best.affordable);
  EXPECT_TRUE(best.host.fresh);
  EXPECT_EQ(best.host.category, 1u);  // fast: EFT 64 < 114
}

TEST(BestHost, BudgetCapForcesSlowerHost) {
  const auto wf = testing::diamond();
  const auto platform = testing::toy_platform();
  EftState state(wf, platform);
  sim::Schedule schedule(wf.task_count());
  // Fast costs 114, slow costs 107: a cap at 110 excludes the fast host.
  const BestHost best = get_best_host(state, wf.find_task("A"), 110.0);
  EXPECT_TRUE(best.affordable);
  EXPECT_EQ(best.host.category, 0u);
}

TEST(BestHost, NoAffordableFallsBackToCheapest) {
  const auto wf = testing::diamond();
  const auto platform = testing::toy_platform();
  EftState state(wf, platform);
  sim::Schedule schedule(wf.task_count());
  const BestHost best = get_best_host(state, wf.find_task("A"), 1.0);
  EXPECT_FALSE(best.affordable);
  EXPECT_EQ(best.host.category, 0u);  // cheapest
}

}  // namespace
}  // namespace cloudwf::sched
