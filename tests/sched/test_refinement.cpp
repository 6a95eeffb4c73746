/// \file test_refinement.cpp
/// \brief Tests of the refinement algorithms: HEFTBUDG+/+INV and CG+.

#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <utility>

#include "check/auto_check.hpp"
#include "common/json.hpp"
#include "exp/budget_levels.hpp"
#include "obs/profile.hpp"
#include "pegasus/generator.hpp"
#include "platform/platform.hpp"
#include "sched/registry.hpp"
#include "testing/helpers.hpp"

namespace cloudwf::sched {
namespace {

struct Case {
  pegasus::WorkflowType type;
  std::size_t tasks;
  std::uint64_t seed;
};

void PrintTo(const Case& c, std::ostream* os) {
  Case zeroed;
  std::memset(&zeroed, 0, sizeof zeroed);  // the padding too
  zeroed.type = c.type;
  zeroed.tasks = c.tasks;
  zeroed.seed = c.seed;
  testing::print_bytes(zeroed, os);
}

class RefinementTest : public ::testing::TestWithParam<Case> {
 protected:
  void SetUp() override {
    wf_ = pegasus::generate(GetParam().type, {GetParam().tasks, GetParam().seed, 0.5});
    levels_ = exp::compute_budget_levels(wf_, platform_);
  }

  [[nodiscard]] SchedulerOutput run(const std::string& name, Dollars budget) const {
    return make_scheduler(name)->schedule(make_input(wf_, platform_, budget));
  }

  platform::Platform platform_ = platform::paper_platform();
  dag::Workflow wf_{"placeholder"};
  exp::BudgetLevels levels_{};
};

TEST_P(RefinementTest, HeftBudgPlusNeverWorseThanHeftBudg) {
  // Algorithm 5 only accepts strictly improving, budget-respecting moves.
  for (const double frac : {1.2, 2.0, 4.0}) {
    const Dollars budget = frac * levels_.min_cost;
    const SchedulerOutput base = run("heft-budg", budget);
    const SchedulerOutput plus = run("heft-budg-plus", budget);
    EXPECT_LE(plus.predicted_makespan, base.predicted_makespan + 1e-6)
        << "budget " << budget;
    if (base.budget_feasible) {
      EXPECT_TRUE(plus.budget_feasible) << "budget " << budget;
    }
  }
}

TEST_P(RefinementTest, HeftBudgPlusInvNeverWorseThanHeftBudg) {
  const Dollars budget = 2.0 * levels_.min_cost;
  const SchedulerOutput base = run("heft-budg", budget);
  const SchedulerOutput inv = run("heft-budg-plus-inv", budget);
  EXPECT_LE(inv.predicted_makespan, base.predicted_makespan + 1e-6);
}

TEST_P(RefinementTest, RefinedVariantsStayWithinBudget) {
  for (const std::string name : {"heft-budg-plus", "heft-budg-plus-inv"}) {
    const Dollars budget = 1.5 * levels_.min_cost;
    const SchedulerOutput out = run(name, budget);
    // The starting HEFTBUDG point is feasible at this budget, so refinement
    // must keep it feasible.
    EXPECT_LE(out.predicted_cost, budget + 1e-9) << name;
  }
}


TEST_P(RefinementTest, MinMinBudgPlusNeverWorseThanMinMinBudg) {
  // The extension the paper suggests for MIN-MINBUDG behaves like HEFTBUDG+:
  // strictly improving, budget-respecting moves only.
  for (const double frac : {1.2, 2.0}) {
    const Dollars budget = frac * levels_.min_cost;
    const SchedulerOutput base = run("minmin-budg", budget);
    const SchedulerOutput plus = run("minmin-budg-plus", budget);
    EXPECT_LE(plus.predicted_makespan, base.predicted_makespan + 1e-6) << "budget " << budget;
    if (base.budget_feasible) {
      EXPECT_TRUE(plus.budget_feasible) << "budget " << budget;
    }
  }
}

TEST_P(RefinementTest, CgPlusNeverWorseThanCg) {
  for (const double frac : {1.5, 3.0}) {
    const Dollars budget = frac * levels_.min_cost;
    const SchedulerOutput cg = run("cg", budget);
    const SchedulerOutput cg_plus = run("cg-plus", budget);
    EXPECT_LE(cg_plus.predicted_makespan, cg.predicted_makespan + 1e-6) << "budget " << budget;
  }
}

TEST_P(RefinementTest, CgPlusRespectsBudgetWhenCgDoes) {
  const Dollars budget = 2.0 * levels_.min_cost;
  const SchedulerOutput cg = run("cg", budget);
  if (cg.budget_feasible) {
    const SchedulerOutput cg_plus = run("cg-plus", budget);
    EXPECT_TRUE(cg_plus.budget_feasible);
  }
}

INSTANTIATE_TEST_SUITE_P(Workflows, RefinementTest,
                         ::testing::Values(Case{pegasus::WorkflowType::montage, 21, 3},
                                           Case{pegasus::WorkflowType::cybershake, 20, 4},
                                           Case{pegasus::WorkflowType::ligo, 22, 5}),
                         [](const ::testing::TestParamInfo<Case>& info) {
                           return std::string(pegasus::to_string(info.param.type));
                         });

TEST(Refinement, PlusImprovesSomewhere) {
  // The headline claim of Section V-C: the refined variant finds strictly
  // better makespans for at least one mid-range budget on MONTAGE.
  const auto platform = platform::paper_platform();
  const auto wf = pegasus::generate(pegasus::WorkflowType::montage, {24, 7, 0.5});
  const auto levels = exp::compute_budget_levels(wf, platform);
  bool improved = false;
  for (const double frac : {1.1, 1.3, 1.6, 2.0, 3.0}) {
    const Dollars budget = frac * levels.min_cost;
    const auto base = make_scheduler("heft-budg")->schedule(make_input(wf, platform, budget));
    const auto plus = make_scheduler("heft-budg-plus")->schedule(make_input(wf, platform, budget));
    if (plus.predicted_makespan < base.predicted_makespan - 1e-6) improved = true;
  }
  EXPECT_TRUE(improved);
}

/// Calls recorded under profile scope \p name so far (0 when absent).
double scope_calls(const std::string& name) {
  const Json profile = obs::profile_json();
  const Json* scope = profile.at("scopes").as_object().find(name);
  return scope == nullptr ? 0.0 : scope->at("calls").as_number();
}

TEST(Refinement, BoundSkipsResimulationsOnlyWhenUnchecked) {
  // Every probe evaluates the makespan lower bound ("sim.bound"); the
  // difference to the "sim.event_loop" count is the skipped re-simulations.
  const auto platform = platform::paper_platform();
  const auto wf = pegasus::generate(pegasus::WorkflowType::cybershake, {24, 1, 0.5});
  const auto levels = exp::compute_budget_levels(wf, platform);
  const bool was_checking = check::auto_check_installed();
  const bool was_profiling = obs::profiling_enabled();
  obs::set_profiling(true);
  const auto calls = [&](const std::string& algorithm, bool checked) {
    if (checked)
      check::install_auto_check();
    else
      check::uninstall_auto_check();
    obs::profile_reset();
    (void)make_scheduler(algorithm)->schedule(make_input(wf, platform, levels.medium));
    return std::pair{scope_calls("sim.bound"), scope_calls("sim.event_loop")};
  };
  for (const std::string algorithm : {"heft-budg-plus", "minmin-budg-plus", "cg-plus"}) {
    const auto [bounds, loops] = calls(algorithm, false);
    EXPECT_GT(bounds, 0.0) << algorithm;
    EXPECT_LT(loops, bounds) << algorithm;  // some probes were skipped
    // Checked mode simulates (and audits) every probe.
    const auto [checked_bounds, checked_loops] = calls(algorithm, true);
    EXPECT_EQ(checked_bounds, bounds) << algorithm;
    EXPECT_GT(checked_loops, checked_bounds) << algorithm;
  }
  obs::profile_reset();
  obs::set_profiling(was_profiling);
  if (was_checking)
    check::install_auto_check();
  else
    check::uninstall_auto_check();
}

TEST(Refinement, ProfileScopesSplitListPassFromRefinement) {
  // "sched.plan" times the list pass alone and "sched.refine" the refinement
  // on top of it: one schedule() records one of each, and only refining
  // algorithms record "sched.refine".
  const auto platform = platform::paper_platform();
  const auto wf = pegasus::generate(pegasus::WorkflowType::montage, {24, 7, 0.5});
  const auto levels = exp::compute_budget_levels(wf, platform);
  const bool was_profiling = obs::profiling_enabled();
  obs::set_profiling(true);
  for (const SchedulerInfo& info : scheduler_registry()) {
    obs::profile_reset();
    (void)make_scheduler(info.name)->schedule(make_input(wf, platform, levels.medium));
    EXPECT_EQ(scope_calls("sched.plan"), 1.0) << info.name;
    EXPECT_EQ(scope_calls("sched.refine"), info.refining ? 1.0 : 0.0) << info.name;
  }
  obs::profile_reset();
  obs::set_profiling(was_profiling);
}

}  // namespace
}  // namespace cloudwf::sched
