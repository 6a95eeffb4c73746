/// \file test_analysis.cpp
/// \brief Unit tests for DAG analyses (dag/analysis).
///
/// The diamond fixture at mean_speed 1, bandwidth 1e6 has exact values:
///   compute times: A=100, B=200, C=300, D=100; transfer times: 1 or 2 s.
///   bottom levels: D=100, B=200+1+100=301, C=300+1+100=401,
///                  A=100+max(1+301, 2+401)=503.

#include "dag/analysis.hpp"

#include <gtest/gtest.h>

#include "common/error.hpp"
#include "testing/helpers.hpp"

namespace cloudwf::dag {
namespace {

const RankParams params{1.0, 1e6, /*conservative=*/true};

TEST(Analysis, BottomLevelsOnDiamond) {
  const Workflow wf = testing::diamond();
  const auto rank = bottom_levels(wf, params);
  EXPECT_DOUBLE_EQ(rank[wf.find_task("D")], 100.0);
  EXPECT_DOUBLE_EQ(rank[wf.find_task("B")], 301.0);
  EXPECT_DOUBLE_EQ(rank[wf.find_task("C")], 401.0);
  EXPECT_DOUBLE_EQ(rank[wf.find_task("A")], 503.0);
}

TEST(Analysis, ConservativeFlagShiftsRanks) {
  const Workflow wf = testing::diamond(1.0);  // sigma = mu
  const RankParams conservative{1.0, 1e6, true};
  const RankParams mean_only{1.0, 1e6, false};
  EXPECT_DOUBLE_EQ(bottom_levels(wf, conservative)[wf.find_task("D")], 200.0);
  EXPECT_DOUBLE_EQ(bottom_levels(wf, mean_only)[wf.find_task("D")], 100.0);
}

TEST(Analysis, MeanSpeedScalesComputeOnly) {
  const Workflow wf = testing::diamond();
  const RankParams fast{2.0, 1e6, true};
  // D: 100/2 = 50; B: 100 + 1 + 50 = 151.
  const auto rank = bottom_levels(wf, fast);
  EXPECT_DOUBLE_EQ(rank[wf.find_task("D")], 50.0);
  EXPECT_DOUBLE_EQ(rank[wf.find_task("B")], 151.0);
}

TEST(Analysis, PrecedenceLevels) {
  const Workflow wf = testing::diamond();
  const auto level = precedence_levels(wf);
  EXPECT_EQ(level[wf.find_task("A")], 0u);
  EXPECT_EQ(level[wf.find_task("B")], 1u);
  EXPECT_EQ(level[wf.find_task("C")], 1u);
  EXPECT_EQ(level[wf.find_task("D")], 2u);
}

TEST(Analysis, TasksByLevelGroups) {
  const Workflow wf = testing::diamond();
  const auto groups = tasks_by_level(wf);
  ASSERT_EQ(groups.size(), 3u);
  EXPECT_EQ(groups[0].size(), 1u);
  EXPECT_EQ(groups[1].size(), 2u);
  EXPECT_EQ(groups[2].size(), 1u);
}

TEST(Analysis, CriticalPathLengthMatchesEntryRank) {
  const Workflow wf = testing::diamond();
  EXPECT_DOUBLE_EQ(critical_path_length(wf, params), 503.0);
}

TEST(Analysis, HeftOrderIsByDescendingRank) {
  const Workflow wf = testing::diamond();
  const auto order = heft_order(bottom_levels(wf, params));
  ASSERT_EQ(order.size(), 4u);
  EXPECT_EQ(wf.task(order[0]).name, "A");
  EXPECT_EQ(wf.task(order[1]).name, "C");
  EXPECT_EQ(wf.task(order[2]).name, "B");
  EXPECT_EQ(wf.task(order[3]).name, "D");
}

TEST(Analysis, HeftOrderIsTopologicallyConsistent) {
  const Workflow wf = testing::diamond();
  const auto order = heft_order(bottom_levels(wf, params));
  std::vector<std::size_t> position(wf.task_count());
  for (std::size_t i = 0; i < order.size(); ++i) position[order[i]] = i;
  for (const Edge& e : wf.edges()) EXPECT_LT(position[e.src], position[e.dst]);
}

TEST(Analysis, GraphMetricsOnDiamond) {
  const Workflow wf = testing::diamond();
  const GraphMetrics m = graph_metrics(wf, params);
  EXPECT_EQ(m.depth, 3u);
  EXPECT_EQ(m.width, 2u);
  EXPECT_DOUBLE_EQ(m.mean_out_degree, 1.0);
  // transfer = 5e6/1e6 = 5 s, compute = 700 s.
  EXPECT_DOUBLE_EQ(m.ccr, 5.0 / 700.0);
  EXPECT_DOUBLE_EQ(m.parallelism, 700.0 / 503.0);
}

TEST(Analysis, InvalidParamsRejected) {
  const Workflow wf = testing::diamond();
  EXPECT_THROW((void)bottom_levels(wf, RankParams{0.0, 1.0, true}), InvalidArgument);
  EXPECT_THROW((void)bottom_levels(wf, RankParams{1.0, 0.0, true}), InvalidArgument);
}

TEST(Analysis, ChainCriticalPathIsWholeChain) {
  const Workflow wf = testing::chain3();
  // 100 + 1 + 200 + 2 + 400 = 703.
  EXPECT_DOUBLE_EQ(critical_path_length(wf, params), 703.0);
}

TEST(Analysis, BagHasDepthOne) {
  const Workflow wf = testing::bag2();
  EXPECT_EQ(graph_metrics(wf, params).depth, 1u);
  EXPECT_EQ(graph_metrics(wf, params).width, 2u);
}

}  // namespace
}  // namespace cloudwf::dag
