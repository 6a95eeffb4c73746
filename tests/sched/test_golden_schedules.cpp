/// \file test_golden_schedules.cpp
/// \brief Golden schedule-equivalence tests for the scheduler fast path.
///
/// The incremental EftState / memoized MIN-MIN kernels must take *exactly*
/// the decisions of the straightforward seed kernels: every golden file in
/// tests/golden/schedules was generated with the pre-optimization code and
/// each test asserts the current kernel reproduces it bit-identically
/// (schedule_io JSON, assignment + per-VM order + priorities).
///
/// Regenerate (only when an intentional semantic change is made) with:
///   CLOUDWF_GOLDEN_REGEN=1 ./test_golden_schedules

#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <tuple>

#include "exp/budget_levels.hpp"
#include "pegasus/generator.hpp"
#include "platform/platform.hpp"
#include "sched/registry.hpp"
#include "sim/schedule_io.hpp"

#ifndef CLOUDWF_GOLDEN_DIR
#error "CLOUDWF_GOLDEN_DIR must point at tests/golden"
#endif

namespace cloudwf::sched {
namespace {

using Param = std::tuple<std::string, pegasus::WorkflowType>;

std::string golden_path(const Param& param) {
  std::string name = std::get<0>(param) + "_" +
                     std::string(pegasus::to_string(std::get<1>(param))) + ".json";
  return std::string(CLOUDWF_GOLDEN_DIR) + "/schedules/" + name;
}

/// The exact schedule JSON the kernel produces for the pinned scenario:
/// 24-task instance (seed 11, sigma 0.5), paper platform, medium budget.
std::string schedule_json(const Param& param) {
  const dag::Workflow wf = pegasus::generate(std::get<1>(param), {24, 11, 0.5});
  const platform::Platform platform = platform::paper_platform();
  const Dollars budget = exp::compute_budget_levels(wf, platform).medium;
  const SchedulerOutput out =
      make_scheduler(std::get<0>(param))->schedule(make_input(wf, platform, budget));
  return sim::schedule_to_json(out.schedule, wf).dump(2) + "\n";
}

class GoldenScheduleTest : public ::testing::TestWithParam<Param> {};

TEST_P(GoldenScheduleTest, BitIdenticalToSeedKernel) {
  const std::string path = golden_path(GetParam());
  const std::string current = schedule_json(GetParam());

  const char* regen = std::getenv("CLOUDWF_GOLDEN_REGEN");
  if (regen != nullptr && *regen != '\0') {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    ASSERT_TRUE(out.good()) << "cannot write " << path;
    out << current;
    GTEST_SKIP() << "regenerated " << path;
  }

  std::ifstream in(path, std::ios::binary);
  ASSERT_TRUE(in.good()) << "missing golden file " << path
                         << " (run with CLOUDWF_GOLDEN_REGEN=1 to create it)";
  std::ostringstream expected;
  expected << in.rdbuf();
  EXPECT_EQ(current, expected.str())
      << "schedule diverged from the seed kernel for " << std::get<0>(GetParam());
}

std::vector<Param> all_params() {
  std::vector<Param> params;
  for (const std::string& algorithm : algorithm_names())
    for (const pegasus::WorkflowType type : pegasus::extended_types())
      params.emplace_back(algorithm, type);
  return params;
}

INSTANTIATE_TEST_SUITE_P(AllKernels, GoldenScheduleTest, ::testing::ValuesIn(all_params()),
                         [](const ::testing::TestParamInfo<Param>& info) {
                           std::string name =
                               std::get<0>(info.param) + "_" +
                               std::string(pegasus::to_string(std::get<1>(info.param)));
                           for (char& c : name)
                             if (c == '-') c = '_';
                           return name;
                         });

}  // namespace
}  // namespace cloudwf::sched
