/// \file test_best_host_oracle.cpp
/// \brief Differential tests of the availability-indexed getBestHost against
/// the full scan of every candidate (best_host_reference.hpp).
///
/// Every decision of HEFT and HEFTBUDG list passes is made by both searches
/// from the same EftState; they must agree on the host, the estimate's bits
/// and affordability.  Seeded workflows of all five families at 13-1000
/// tasks; HEFT, and HEFTBUDG at 0.5·low, low, sqrt(low·medium), medium, high
/// and an unbounded budget; on the paper platform, one with a
/// multi-processor category, one with datacenter contention and one billed
/// by the hour.  Each decision also checks the ReuseTerms identity and the
/// group-B cost lower bound on every used VM the search relies on.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "check/auto_check.hpp"
#include "common/rng.hpp"
#include "dag/analysis.hpp"
#include "exp/budget_levels.hpp"
#include "pegasus/generator.hpp"
#include "platform/platform.hpp"
#include "reference/best_host_reference.hpp"
#include "sched/best_host.hpp"
#include "sched/budget.hpp"
#include "sched/eft.hpp"
#include "sched/heft.hpp"
#include "sim/schedule_io.hpp"
#include "testing/helpers.hpp"

namespace cloudwf {
namespace {

enum class PlatformKind { paper, multiproc, contention, quantum };

struct Case {
  pegasus::WorkflowType type;
  std::size_t tasks;
  std::uint64_t seed;
  PlatformKind kind;
};

void PrintTo(const Case& c, std::ostream* os) {
  Case zeroed;
  std::memset(&zeroed, 0, sizeof zeroed);  // the padding too
  zeroed.type = c.type;
  zeroed.tasks = c.tasks;
  zeroed.seed = c.seed;
  zeroed.kind = c.kind;
  testing::print_bytes(zeroed, os);
}

platform::Platform make_platform(PlatformKind kind) {
  switch (kind) {
    case PlatformKind::paper: return platform::paper_platform();
    case PlatformKind::contention: return platform::paper_platform_with_contention(2.0);
    case PlatformKind::multiproc:
    case PlatformKind::quantum: {
      const bool dual = kind == PlatformKind::multiproc;
      return platform::PlatformBuilder(dual ? "paper-dual-medium" : "paper-hourly")
          .add_category({"small", 1.0, units::per_hour(0.05), 0.005, 1})
          .add_category(dual ? platform::VmCategory{"medium-dual", 2.0, units::per_hour(0.20),
                                                    0.005, 2}
                             : platform::VmCategory{"medium", 2.0, units::per_hour(0.10),
                                                    0.005, 1})
          .add_category({"large", 4.0, units::per_hour(0.20), 0.005, 1})
          .boot_delay(100.0)
          .bandwidth(125.0 * units::MB)
          .dc_storage_price_per_gb_month(0.022)
          .dc_transfer_price_per_gb(0.055)
          .billing_quantum(dual ? 0.0 : 3600.0)
          .build();
    }
  }
  return platform::paper_platform();
}

std::uint64_t bits(double x) { return std::bit_cast<std::uint64_t>(x); }

::testing::AssertionResult same_pick(const sched::BestHost& got, const sched::BestHost& want) {
  if (got.host.fresh == want.host.fresh && got.host.vm == want.host.vm &&
      got.host.category == want.host.category && got.affordable == want.affordable &&
      bits(got.estimate.begin) == bits(want.estimate.begin) &&
      bits(got.estimate.exec) == bits(want.estimate.exec) &&
      bits(got.estimate.eft) == bits(want.estimate.eft) &&
      bits(got.estimate.upload) == bits(want.estimate.upload) &&
      bits(got.estimate.cost) == bits(want.estimate.cost))
    return ::testing::AssertionSuccess();
  const auto describe = [](const sched::BestHost& b) {
    return (b.host.fresh ? "fresh" : "vm " + std::to_string(b.host.vm)) + " cat " +
           std::to_string(b.host.category) + " eft " + std::to_string(b.estimate.eft) +
           " cost " + std::to_string(b.estimate.cost) + (b.affordable ? "" : " over-cap");
  };
  return ::testing::AssertionFailure() << "indexed " << describe(got) << ", full scan "
                                       << describe(want);
}

/// estimate() on every used VM that holds none of the task's producers must
/// follow ReuseTerms bit for bit, and its cost must respect the group-B lower
/// bound when the VM is free after the task's inputs.
::testing::AssertionResult reuse_terms_hold(const sched::EftState& state, dag::TaskId task) {
  const std::span<const sim::VmId> producers = state.producer_vms(task);
  const std::span<const sched::HostCandidate> hosts = state.candidates();
  for (const sched::HostCandidate& host : hosts.first(state.used_host_count())) {
    if (std::find(producers.begin(), producers.end(), host.vm) != producers.end()) continue;
    const sched::ReuseTerms terms = state.reuse_terms(task, host.category);
    const Seconds avail = state.vm_available(host.vm);
    const sched::PlacementEstimate estimate = state.estimate(task, host);
    const Seconds eft = std::max(avail, terms.ready) + terms.exec;
    const Dollars cost = (eft - avail + terms.upload) * terms.price;
    if (bits(estimate.eft) != bits(eft) || bits(estimate.cost) != bits(cost))
      return ::testing::AssertionFailure() << "ReuseTerms disagree with estimate() on vm "
                                           << host.vm;
    const Seconds max_avail = state.used_by_availability(host.category).back().avail;
    if (avail > terms.ready && estimate.cost < sched::reuse_cost_lower_bound(terms, max_avail))
      return ::testing::AssertionFailure() << "cost " << estimate.cost << " on vm " << host.vm
                                           << " is below its lower bound";
  }
  return ::testing::AssertionSuccess();
}

struct PassProbes {
  std::size_t indexed = 0;
  std::size_t full = 0;
};

/// HeftScheduler::run_list_pass with default options, every decision made by
/// both searches; commits the full scan's pick.
sim::Schedule replay_heft(const dag::Workflow& wf, const platform::Platform& platform,
                          std::optional<Dollars> budget, PassProbes& probes) {
  const dag::RankParams rank_params{platform.mean_speed(), platform.bandwidth(),
                                    /*conservative=*/true};
  const std::vector<Seconds> ranks = dag::bottom_levels(wf, rank_params);
  const std::vector<dag::TaskId> list = dag::heft_order(wf, rank_params);
  sched::BudgetShares shares;
  if (budget) shares = sched::divide_budget(sched::BudgetModel::build(wf, platform), *budget);
  Dollars pot = 0;

  sim::Schedule schedule(wf.task_count());
  for (dag::TaskId t = 0; t < wf.task_count(); ++t) schedule.set_priority(t, ranks[t]);
  sched::EftState state(wf, platform);
  for (const dag::TaskId task : list) {
    const std::optional<Dollars> cap =
        budget ? std::optional<Dollars>(shares.share(task) + pot) : std::nullopt;
    std::size_t before = sched::probe_count();
    const sched::BestHost indexed = sched::get_best_host(state, task, cap);
    probes.indexed += sched::probe_count() - before;
    before = sched::probe_count();
    const sched::BestHost full = reference::get_best_host(state, task, cap);
    probes.full += sched::probe_count() - before;
    EXPECT_TRUE(same_pick(indexed, full)) << "task " << task;
    EXPECT_TRUE(reuse_terms_hold(state, task)) << "task " << task;
    if (::testing::Test::HasFailure()) return schedule;
    state.commit(task, full.host, full.estimate, schedule);
    if (budget) pot += shares.share(task) - full.estimate.cost;
  }
  return schedule;
}

class BestHostOracle : public ::testing::TestWithParam<Case> {};

TEST_P(BestHostOracle, EveryDecisionMatchesFullScan) {
  const dag::Workflow wf =
      pegasus::generate(GetParam().type, {GetParam().tasks, GetParam().seed, 0.5});
  const platform::Platform platform = make_platform(GetParam().kind);
  const exp::BudgetLevels levels = exp::compute_budget_levels(wf, platform);

  std::vector<std::optional<Dollars>> budgets = {
      std::nullopt,  // HEFT: no cap at all
      0.5 * levels.low,
      levels.low,
      std::sqrt(levels.low * levels.medium),
      levels.medium,
      levels.high,
      std::numeric_limits<Dollars>::infinity()};
  for (const std::optional<Dollars> budget : budgets) {
    const std::string label = budget ? "heft-budg at $" + std::to_string(*budget) : "heft";
    PassProbes probes;
    const sim::Schedule replayed = replay_heft(wf, platform, budget, probes);
    ASSERT_FALSE(HasFailure()) << label;

    // The replay is the production pass, decision for decision.
    const sched::SchedulerInput input = sched::make_input(wf, platform, budget.value_or(0.0));
    std::vector<dag::TaskId> list;
    const sim::Schedule produced =
        sched::HeftScheduler::run_list_pass(input, budget.has_value(), list);
    EXPECT_EQ(sim::schedule_to_json(replayed, wf).dump(),
              sim::schedule_to_json(produced, wf).dump())
        << label;

    // Without a cap nothing falls back to the full scan, so on a large
    // workflow the index must probe far fewer hosts.
    if (!budget && GetParam().tasks >= 500) {
      EXPECT_LT(probes.indexed * 4, probes.full) << label;
    }
  }
}

/// Hand-placed availabilities that tie, which generated workflows almost
/// never produce: VMs of one category sharing an availability (equal costs
/// before the task's inputs arrive, equal EFTs after), and VMs a few ulps
/// apart, where a + exec rounds to one EFT.  Each search runs uncapped and
/// capped at every candidate's own cost, so affordability flips exactly at
/// a tie or at a cost a few ulps apart.
TEST(BestHostTies, ClusteredAvailabilitiesMatchFullScan) {
  const platform::Platform platform = platform::paper_platform();
  constexpr Seconds bases[] = {500.0, 1001.0, 1050.0, 3000.0, 7000.0};
  constexpr Instructions weights[] = {4000.0, 8000.0, 12000.0};
  for (std::uint64_t seed = 1; seed <= 300; ++seed) {
    Rng rng(seed);
    dag::Workflow wf("ties");
    const dag::TaskId source = wf.add_task("S", 100, 0);
    std::vector<dag::TaskId> fillers;
    std::vector<dag::TaskId> probes;
    for (int i = 0; i < 24; ++i) fillers.push_back(wf.add_task(std::to_string(i) + "F", 100, 0));
    for (int i = 0; i < 8; ++i) {
      const dag::TaskId t = wf.add_task(std::to_string(i) + "T", weights[rng.below(3)], 0);
      wf.add_edge(source, t, 125.0 * units::MB);  // at the DC 1 s after S ends
      probes.push_back(t);
    }
    wf.freeze();

    sched::EftState state(wf, platform);
    sim::Schedule schedule(wf.task_count());
    const auto place = [&](dag::TaskId task, const sched::HostCandidate& host, Seconds eft) {
      sched::PlacementEstimate estimate = state.estimate(task, host);
      estimate.eft = eft;
      state.commit(task, host, estimate, schedule);
    };
    place(source, {sim::invalid_vm, 0, true}, 1000.0);  // the probes' inputs are ready at 1001
    for (const dag::TaskId filler : fillers) {
      Seconds eft = bases[rng.below(5)];
      for (std::uint64_t k = rng.below(4); k > 0; --k)
        eft = std::nextafter(eft, std::numeric_limits<Seconds>::infinity());
      place(filler, {sim::invalid_vm, static_cast<platform::CategoryId>(rng.below(3)), true},
            eft);
    }

    for (const dag::TaskId task : probes) {
      std::vector<std::optional<Dollars>> caps = {std::nullopt};
      for (const sched::HostCandidate& host : state.candidates())
        caps.emplace_back(state.estimate(task, host).cost);
      for (const std::optional<Dollars> cap : caps)
        ASSERT_TRUE(same_pick(sched::get_best_host(state, task, cap),
                              reference::get_best_host(state, task, cap)))
            << "seed " << seed << " task " << task;
      const std::optional<Dollars> cap = caps[1 + rng.below(caps.size() - 1)];
      const sched::BestHost best = reference::get_best_host(state, task, cap);
      state.commit(task, best.host, best.estimate, schedule);
    }
  }
}

/// Group B costs wobble by ulps around (exec + upload) * price, so the first
/// VM after the task's inputs can be over a cap that a later, slower VM
/// meets.  Two small VMs a few ulps apart inside the boot delay, where they
/// beat a fresh small VM on EFT: the later one must win, not the fresh slot.
TEST(BestHostTies, FirstAffordableVmOfGroupBMayComeLater) {
  const platform::Platform platform = platform::paper_platform();
  dag::Workflow wf("wobble");
  const dag::TaskId source = wf.add_task("S", 100, 0);
  const dag::TaskId early = wf.add_task("F0", 100, 0);
  const dag::TaskId late = wf.add_task("F1", 100, 0);
  const dag::TaskId busy = wf.add_task("B", 100, 0);
  std::vector<dag::TaskId> padding;
  for (int i = 0; i < 9; ++i) padding.push_back(wf.add_task(std::to_string(i) + "P", 100, 0));
  const dag::TaskId task = wf.add_task("T", 4000, 0);
  wf.add_edge(source, task, 125.0 * units::MB);
  wf.freeze();

  sched::EftState state(wf, platform);
  sim::Schedule schedule(wf.task_count());
  const sched::HostCandidate fresh_small{sim::invalid_vm, 0, true};
  const auto place = [&](dag::TaskId t, const sched::HostCandidate& host, Seconds eft) {
    sched::PlacementEstimate estimate = state.estimate(t, host);
    estimate.eft = eft;
    return state.commit(t, host, estimate, schedule);
  };
  // Inputs at the DC at 1001, so a fresh VM is ready at 1101; the producer's
  // VM is busy until much later.
  const sim::VmId producer = place(source, fresh_small, 1000.0);
  place(busy, state.used_host(producer), 1e6);
  // Enough used VMs that get_best_host searches the index instead of
  // scanning; medium and large ones cost more than the cap below.
  for (const dag::TaskId t : padding)
    place(t, {sim::invalid_vm, static_cast<platform::CategoryId>(1 + t % 2), true}, 1e6);
  const sched::ReuseTerms terms = state.reuse_terms(task, 0);
  const Dollars fresh_cost = state.estimate(task, fresh_small).cost;
  const auto eft_cost = [&](Seconds avail) {
    const Seconds eft = std::max(avail, terms.ready) + terms.exec;
    return std::pair{eft, (eft - avail + terms.upload) * terms.price};
  };

  std::vector<Seconds> avails = {1050.0};
  while (avails.size() < 64)
    avails.push_back(std::nextafter(avails.back(), std::numeric_limits<Seconds>::infinity()));
  for (std::size_t i = 0; i < avails.size(); ++i)
    for (std::size_t j = i + 1; j < avails.size(); ++j) {
      const auto [eft_i, cost_i] = eft_cost(avails[i]);
      const auto [eft_j, cost_j] = eft_cost(avails[j]);
      if (eft_i == eft_j || cost_i <= cost_j || cost_j < fresh_cost) continue;
      // A cap whose tolerance admits cost_j exactly, and so not cost_i.
      Dollars cap = cost_j - money_epsilon;
      while (cap + money_epsilon < cost_j) cap = std::nextafter(cap, cost_j);
      while (cap + money_epsilon > cost_j) cap = std::nextafter(cap, 0.0);
      if (cap + money_epsilon != cost_j) continue;
      place(early, fresh_small, avails[i]);
      const sim::VmId winner = place(late, fresh_small, avails[j]);
      const sched::BestHost best = sched::get_best_host(state, task, cap);
      EXPECT_TRUE(same_pick(best, reference::get_best_host(state, task, cap)));
      EXPECT_EQ(best.host.vm, winner);
      return;
    }
  FAIL() << "no pair of availabilities with the wobble this test needs";
}

/// With the post-run check installed, get_best_host audits every call against
/// the full scan; a correct index never trips it.
TEST(BestHostChecked, AuditPassesOnHeftBudgPasses) {
  const bool was_checking = check::auto_check_installed();
  check::install_auto_check();
  const dag::Workflow wf = pegasus::generate(pegasus::WorkflowType::cybershake, {300, 5, 0.5});
  const platform::Platform platform = platform::paper_platform();
  const exp::BudgetLevels levels = exp::compute_budget_levels(wf, platform);
  for (const Dollars budget : {levels.low, levels.medium}) {
    std::vector<dag::TaskId> list;
    EXPECT_NO_THROW((void)sched::HeftScheduler::run_list_pass(
        sched::make_input(wf, platform, budget), /*budget_aware=*/true, list));
  }
  if (!was_checking) check::uninstall_auto_check();
}

/// Five families x four platforms; sizes rotate so each family sees four.
std::vector<Case> cases(const std::array<std::size_t, 5>& sizes) {
  std::vector<Case> out;
  std::size_t i = 0;
  for (const pegasus::WorkflowType type : pegasus::extended_types())
    for (const PlatformKind kind : {PlatformKind::paper, PlatformKind::multiproc,
                                    PlatformKind::contention, PlatformKind::quantum}) {
      out.push_back({type, sizes[i % sizes.size()], 31 + i, kind});
      ++i;
    }
  return out;
}

std::string case_name(const ::testing::TestParamInfo<Case>& info) {
  static const char* const kinds[] = {"paper", "multiproc", "contention", "quantum"};
  return std::string(pegasus::to_string(info.param.type)) + "_" +
         std::to_string(info.param.tasks) + "_" + kinds[static_cast<int>(info.param.kind)];
}

INSTANTIATE_TEST_SUITE_P(Families, BestHostOracle,
                         ::testing::ValuesIn(cases({13, 60, 200, 500, 1000})), case_name);

}  // namespace
}  // namespace cloudwf
