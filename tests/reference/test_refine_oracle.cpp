/// \file test_refine_oracle.cpp
/// \brief Differential tests of the refinement fast path against the
/// full-re-simulation reference loops (refine_reference.hpp).
///
/// Seeded random workflows of all five families at 10-100 tasks, at the
/// low, medium and high budget levels, on the paper platform, a platform
/// with datacenter contention and one with a multi-processor category.
/// Schedules must match bit for bit and sim::Predictor must equal
/// a conservative Simulator::run() exactly.  The invariant checker audits
/// every simulation, as with CLOUDWF_CHECK=1; checked mode simulates every
/// probe, so the loops run a second time with the checker off, where the
/// makespan lower bound skips the probes it proves rejected.  A property
/// test holds the bound below the simulated makespan at 10-300 tasks.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstring>
#include <limits>
#include <optional>
#include <string>
#include <variant>
#include <vector>

#include "check/auto_check.hpp"
#include "common/rng.hpp"
#include "exp/budget_levels.hpp"
#include "pegasus/generator.hpp"
#include "platform/platform.hpp"
#include "reference/refine_reference.hpp"
#include "sched/cg.hpp"
#include "sched/heft.hpp"
#include "sched/minmin.hpp"
#include "sched/refine.hpp"
#include "sim/schedule_io.hpp"
#include "testing/helpers.hpp"

namespace cloudwf {
namespace {

/// A cutoff no makespan reaches: the probe is always simulated.
constexpr Seconds never = std::numeric_limits<Seconds>::infinity();

enum class PlatformKind { paper, contention, multiproc };

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
      return platform::PlatformBuilder("paper-dual-medium")
          .add_category({"small", 1.0, units::per_hour(0.05), 0.005, 1})
          .add_category({"medium-dual", 2.0, units::per_hour(0.20), 0.005, 2})
          .add_category({"large", 4.0, units::per_hour(0.20), 0.005, 1})
          .boot_delay(100.0)
          .bandwidth(125.0 * units::MB)
          .dc_storage_price_per_gb_month(0.022)
          .dc_transfer_price_per_gb(0.055)
          .build();
  }
  return platform::paper_platform();
}

std::string dump(const sim::Schedule& schedule, const dag::Workflow& wf) {
  return sim::schedule_to_json(schedule, wf).dump();
}

/// A prediction, or the text of the exception it threw.
using Outcome = std::variant<sim::Prediction, std::string>;

template <class Predict>
Outcome outcome_of(Predict&& predict) {
  try {
    return predict();
  } catch (const Error& error) {
    return std::string(error.what());
  }
}

void expect_same(const Outcome& got, const Outcome& want) {
  ASSERT_EQ(got.index(), want.index());
  if (const auto* message = std::get_if<std::string>(&want)) {
    EXPECT_EQ(std::get<std::string>(got), *message);
    return;
  }
  // Exact equality: the predictor must be bit-identical, not merely close.
  EXPECT_EQ(std::get<sim::Prediction>(got).makespan, std::get<sim::Prediction>(want).makespan);
  EXPECT_EQ(std::get<sim::Prediction>(got).cost, std::get<sim::Prediction>(want).cost);
}

class RefineOracle : public ::testing::TestWithParam<Case> {
 protected:
  void SetUp() override {
    was_checking_ = check::auto_check_installed();
    check::install_auto_check();
    wf_ = pegasus::generate(GetParam().type, {GetParam().tasks, GetParam().seed, 0.5});
    platform_ = make_platform(GetParam().kind);
    levels_ = exp::compute_budget_levels(wf_, platform_);
  }

  void TearDown() override {
    if (was_checking_)
      check::install_auto_check();
    else
      check::uninstall_auto_check();
  }

  [[nodiscard]] std::vector<Dollars> budgets() const {
    return {levels_.low, levels_.medium, levels_.high};
  }

  void expect_algorithm5_matches();
  void expect_cg_plus_matches();

  bool was_checking_ = false;
  dag::Workflow wf_{"placeholder"};
  platform::Platform platform_ = platform::paper_platform();
  exp::BudgetLevels levels_{};
};

void RefineOracle::expect_algorithm5_matches() {
  for (const Dollars budget : budgets()) {
    const sched::SchedulerInput input = sched::make_input(wf_, platform_, budget);
    // HEFTBUDG+, HEFTBUDG+INV and MINMINBUDG+ starting points.
    for (const int variant : {0, 1, 2}) {
      std::vector<dag::TaskId> order;
      const sim::Schedule start =
          variant == 2 ? sched::MinMinScheduler::run_list_pass(input, true, order)
                       : sched::HeftScheduler::run_list_pass(input, true, order);
      if (variant == 1) std::reverse(order.begin(), order.end());

      sim::Schedule fast = start;
      sim::Schedule slow = start;
      const std::size_t fast_applied = sched::refine_by_resimulation(input, fast, order);
      const std::size_t slow_applied = reference::refine_by_resimulation(input, slow, order);
      EXPECT_EQ(fast_applied, slow_applied) << "budget " << budget << " variant " << variant;
      EXPECT_EQ(dump(fast, wf_), dump(slow, wf_)) << "budget " << budget << " variant " << variant;
    }
  }
}

TEST_P(RefineOracle, Algorithm5MatchesFullResimulation) { expect_algorithm5_matches(); }

TEST_P(RefineOracle, Algorithm5PrunedMatchesFullResimulation) {
  check::uninstall_auto_check();
  expect_algorithm5_matches();
}

void RefineOracle::expect_cg_plus_matches() {
  const sim::Simulator simulator(wf_, platform_);
  for (const Dollars budget : budgets()) {
    const sched::SchedulerInput input = sched::make_input(wf_, platform_, budget);
    sim::Schedule slow = sched::CgScheduler(false).schedule(input).schedule;
    reference::cg_plus_refine(input, slow);
    const sim::Schedule expected = slow.compacted();
    const sim::SimResult prediction = simulator.run(expected, dag::conservative_weights(wf_));

    const sched::SchedulerOutput plus = sched::CgScheduler(true).schedule(input);
    EXPECT_EQ(dump(plus.schedule, wf_), dump(expected, wf_)) << "budget " << budget;
    EXPECT_EQ(plus.predicted_makespan, prediction.makespan) << "budget " << budget;
    EXPECT_EQ(plus.predicted_cost, prediction.total_cost()) << "budget " << budget;
  }
}

/// CG+ re-simulates every move of every critical-path task for up to 3n
/// iterations, so its reference runs on smaller instances (10-60 tasks).
class CgPlusOracle : public RefineOracle {};

TEST_P(CgPlusOracle, MatchesFullResimulation) { expect_cg_plus_matches(); }

TEST_P(CgPlusOracle, PrunedMatchesFullResimulation) {
  check::uninstall_auto_check();
  expect_cg_plus_matches();
}

TEST_P(RefineOracle, PredictorEqualsRunConservativeOverRandomMoves) {
  const sim::Simulator simulator(wf_, platform_);
  const sched::SchedulerInput input = sched::make_input(wf_, platform_, levels_.medium);
  std::vector<dag::TaskId> order;
  const sim::Schedule start = sched::HeftScheduler::run_list_pass(input, true, order);

  const auto conservative = [&](const sim::Schedule& schedule) {
    const sim::SimResult r = simulator.run(schedule, dag::conservative_weights(wf_));
    return sim::Prediction{r.makespan, r.total_cost()};
  };
  // The checked path (full SimResult handed to the hook) and the fast path
  // (makespan and cost only) must both match.
  for (const bool checked : {true, false}) {
    if (checked)
      check::install_auto_check();
    else
      check::uninstall_auto_check();
    sim::Schedule schedule = start;
    sim::Predictor predictor(wf_, platform_, schedule);
    expect_same(outcome_of([&] { return predictor.predict(); }),
                outcome_of([&] { return conservative(schedule); }));

    Rng rng(GetParam().seed * 7919 + (checked ? 1 : 0));
    std::vector<sim::Move> moves;
    for (int step = 0; step < 120; ++step) {
      const auto task = static_cast<dag::TaskId>(rng.below(wf_.task_count()));
      moves.clear();
      sched::for_each_move(schedule, platform_.category_count(), task,
                           [&](const sim::Move& move) { moves.push_back(move); });
      const sim::Move move = moves[rng.below(moves.size())];
      sim::Schedule tentative = schedule;
      tentative.apply(move);
      expect_same(outcome_of([&] { return *predictor.predict(move, never); }),
                  outcome_of([&] { return conservative(tentative); }));
      if (HasFailure()) return;
      if (rng.below(3) == 0) {
        schedule.apply(move);
        predictor.rebase(schedule);
      }
    }
  }
}

/// The bound must hold on every plan the loops can probe, so this suite
/// reaches 300 tasks; it compares against a conservative Simulator::run().
class BoundProperty : public RefineOracle {};

TEST_P(BoundProperty, LowerBoundNeverExceedsConservativeMakespan) {
  check::uninstall_auto_check();  // 300-task audits are slow and beside the point
  const sim::Simulator simulator(wf_, platform_);
  for (const Dollars budget : budgets()) {
    const sched::SchedulerInput input = sched::make_input(wf_, platform_, budget);
    std::vector<dag::TaskId> order;
    sim::Schedule schedule = sched::HeftScheduler::run_list_pass(input, true, order);
    sim::Predictor predictor(wf_, platform_, schedule);
    Rng rng(GetParam().seed * 104729 + static_cast<std::uint64_t>(budget * 1e6));
    std::vector<sim::Move> moves;
    for (int step = 0; step < 40; ++step) {
      const auto task = static_cast<dag::TaskId>(rng.below(wf_.task_count()));
      moves.clear();
      sched::for_each_move(schedule, platform_.category_count(), task,
                           [&](const sim::Move& move) { moves.push_back(move); });
      const sim::Move move = moves[rng.below(moves.size())];
      sim::Schedule tentative = schedule;
      tentative.apply(move);
      const Seconds makespan = simulator.run(tentative, dag::conservative_weights(wf_)).makespan;
      const std::optional<Seconds> bound = predictor.lower_bound(move);
      // Priority-ordered lists never deadlock, so a bound always exists.
      ASSERT_TRUE(bound.has_value()) << "budget " << budget << " step " << step;
      EXPECT_LE(*bound, makespan) << "budget " << budget << " step " << step;
      EXPECT_GT(*bound, 0.0) << "budget " << budget << " step " << step;
      if (HasFailure()) return;
      if (rng.below(3) == 0) {
        schedule.apply(move);
        predictor.rebase(schedule);
      }
    }
  }
}

/// Five families x three platforms, each size of \p sizes used three times.
std::vector<Case> cases(const std::array<std::size_t, 5>& sizes) {
  std::vector<Case> out;
  std::size_t i = 0;
  for (const pegasus::WorkflowType type : pegasus::extended_types())
    for (const PlatformKind kind :
         {PlatformKind::paper, PlatformKind::contention, PlatformKind::multiproc}) {
      out.push_back({type, sizes[i % sizes.size()], 11 + i, kind});
      ++i;
    }
  return out;
}

std::string case_name(const ::testing::TestParamInfo<Case>& info) {
  static const char* const kinds[] = {"paper", "contention", "multiproc"};
  return std::string(pegasus::to_string(info.param.type)) + "_" +
         std::to_string(info.param.tasks) + "_" + kinds[static_cast<int>(info.param.kind)];
}

INSTANTIATE_TEST_SUITE_P(Families, RefineOracle, ::testing::ValuesIn(cases({10, 24, 45, 70, 100})),
                         case_name);
INSTANTIATE_TEST_SUITE_P(Families, CgPlusOracle, ::testing::ValuesIn(cases({10, 20, 30, 45, 60})),
                         case_name);
INSTANTIATE_TEST_SUITE_P(Families, BoundProperty,
                         ::testing::ValuesIn(cases({10, 40, 100, 200, 300})), case_name);

}  // namespace
}  // namespace cloudwf
