/// \file test_workflow.cpp
/// \brief Unit tests for the workflow DAG container (dag/workflow).

#include "dag/workflow.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "common/error.hpp"
#include "testing/helpers.hpp"

namespace cloudwf::dag {
namespace {

TEST(Workflow, BuildAndFreeze) {
  const Workflow wf = testing::diamond();
  EXPECT_TRUE(wf.frozen());
  EXPECT_EQ(wf.task_count(), 4u);
  EXPECT_EQ(wf.edge_count(), 4u);
  EXPECT_EQ(wf.name(), "diamond");
}

TEST(Workflow, EntryAndExitTasks) {
  const Workflow wf = testing::diamond();
  ASSERT_EQ(wf.entry_tasks().size(), 1u);
  ASSERT_EQ(testing::exit_tasks(wf).size(), 1u);
  EXPECT_EQ(wf.task(wf.entry_tasks()[0]).name, "A");
  EXPECT_EQ(wf.task(testing::exit_tasks(wf)[0]).name, "D");
}

TEST(Workflow, TopologicalOrderRespectsEdges) {
  const Workflow wf = testing::diamond();
  const auto order = wf.topological_order();
  ASSERT_EQ(order.size(), 4u);
  std::vector<std::size_t> position(4);
  for (std::size_t i = 0; i < order.size(); ++i) position[order[i]] = i;
  for (const Edge& e : wf.edges()) EXPECT_LT(position[e.src], position[e.dst]);
}

TEST(Workflow, CycleDetected) {
  Workflow wf("cyclic");
  const auto a = wf.add_task("A", 1, 0);
  const auto b = wf.add_task("B", 1, 0);
  const auto c = wf.add_task("C", 1, 0);
  wf.add_edge(a, b, 0);
  wf.add_edge(b, c, 0);
  wf.add_edge(c, a, 0);
  EXPECT_THROW(wf.freeze(), ValidationError);
}

TEST(Workflow, SelfLoopRejected) {
  Workflow wf("loop");
  const auto a = wf.add_task("A", 1, 0);
  EXPECT_THROW(wf.add_edge(a, a, 0), InvalidArgument);
}

TEST(Workflow, DuplicateEdgeRejected) {
  Workflow wf("dup");
  const auto a = wf.add_task("A", 1, 0);
  const auto b = wf.add_task("B", 1, 0);
  wf.add_edge(a, b, 1);
  EXPECT_THROW(wf.add_edge(a, b, 2), InvalidArgument);
}

TEST(Workflow, DuplicateTaskNameRejected) {
  Workflow wf("dup");
  wf.add_task("A", 1, 0);
  EXPECT_THROW(wf.add_task("A", 1, 0), InvalidArgument);
}

TEST(Workflow, NonPositiveWeightRejected) {
  Workflow wf("w");
  EXPECT_THROW(wf.add_task("A", 0, 0), InvalidArgument);
  EXPECT_THROW(wf.add_task("B", -1, 0), InvalidArgument);
  EXPECT_THROW(wf.add_task("C", 1, -1), InvalidArgument);
}

TEST(Workflow, EmptyFreezeRejected) {
  Workflow wf("empty");
  EXPECT_THROW(wf.freeze(), ValidationError);
}

TEST(Workflow, MutationAfterFreezeRejected) {
  Workflow wf = testing::diamond();
  EXPECT_THROW(wf.add_task("E", 1, 0), InvalidArgument);
  EXPECT_THROW(wf.add_edge(0, 1, 0), InvalidArgument);
  EXPECT_THROW(wf.add_external_input(0, 1), InvalidArgument);
  EXPECT_THROW(wf.freeze(), InvalidArgument);
}

TEST(Workflow, AdjacencyLists) {
  const Workflow wf = testing::diamond();
  const TaskId a = wf.find_task("A");
  const TaskId d = wf.find_task("D");
  EXPECT_EQ(wf.out_edges(a).size(), 2u);
  EXPECT_EQ(wf.in_edges(a).size(), 0u);
  EXPECT_EQ(wf.in_edges(d).size(), 2u);
  EXPECT_EQ(wf.out_edges(d).size(), 0u);
}

TEST(Workflow, FindTask) {
  const Workflow wf = testing::diamond();
  EXPECT_NE(wf.find_task("C"), invalid_task);
  EXPECT_EQ(wf.find_task("nope"), invalid_task);
}

TEST(Workflow, AggregateTotals) {
  const Workflow wf = testing::diamond();
  EXPECT_DOUBLE_EQ(wf.total_mean_weight(), 700.0);
  EXPECT_DOUBLE_EQ(wf.total_conservative_weight(), 700.0);  // stddev 0
  EXPECT_DOUBLE_EQ(wf.total_edge_bytes(), 5e6);
  EXPECT_DOUBLE_EQ(wf.external_input_bytes(), 4e6);
  EXPECT_DOUBLE_EQ(wf.external_output_bytes(), 2e6);
}

TEST(Workflow, ConservativeWeightAddsStddev) {
  const Workflow wf = testing::diamond(0.5);
  EXPECT_DOUBLE_EQ(wf.total_conservative_weight(), 1050.0);
  EXPECT_DOUBLE_EQ(wf.task(0).conservative_weight(), 150.0);
}

TEST(Workflow, PredecessorBytes) {
  const Workflow wf = testing::diamond();
  EXPECT_DOUBLE_EQ(wf.predecessor_bytes(wf.find_task("D")), 2e6);
  EXPECT_DOUBLE_EQ(wf.predecessor_bytes(wf.find_task("A")), 0.0);
  EXPECT_DOUBLE_EQ(wf.predecessor_bytes(wf.find_task("C")), 2e6);
}

TEST(Workflow, ExternalIoAccumulates) {
  Workflow wf("acc");
  const auto a = wf.add_task("A", 1, 0);
  wf.add_external_input(a, 10);
  wf.add_external_input(a, 5);
  wf.add_external_output(a, 3);
  wf.freeze();
  EXPECT_DOUBLE_EQ(wf.external_input_of(a), 15.0);
  EXPECT_DOUBLE_EQ(wf.external_output_of(a), 3.0);
  EXPECT_DOUBLE_EQ(wf.external_input_bytes(), 15.0);
}

TEST(Workflow, FrozenOnlyAccessorsThrowBeforeFreeze) {
  Workflow wf("raw");
  wf.add_task("A", 1, 0);
  EXPECT_THROW((void)wf.topological_order(), InvalidArgument);
  EXPECT_THROW((void)wf.entry_tasks(), InvalidArgument);
  EXPECT_THROW((void)wf.in_edges(0), InvalidArgument);
  EXPECT_THROW((void)wf.predecessor_bytes(0), InvalidArgument);
}

TEST(Workflow, OutOfRangeAccessThrows) {
  const Workflow wf = testing::diamond();
  EXPECT_THROW((void)wf.task(99), InvalidArgument);
  EXPECT_THROW((void)wf.edge(99), InvalidArgument);
  EXPECT_THROW((void)wf.in_edges(99), InvalidArgument);
}

TEST(Workflow, CheckMessagesSurviveLazyFormatting) {
  // Check messages are built only on failure; type and text stay as before.
  Workflow wf("w");
  wf.add_task("A", 1, 0);
  EXPECT_EQ(testing::exact_error<InvalidArgument>([&] { (void)wf.in_edges(0); }),
            "Workflow::in_edges: workflow not frozen");
  wf.freeze();
  EXPECT_EQ(testing::exact_error<InvalidArgument>([&] { (void)wf.task(7); }),
            "Workflow::task: id out of range");
  EXPECT_EQ(testing::exact_error<InvalidArgument>([&] { wf.add_task("B", 1, 0); }),
            "Workflow::add_task: workflow already frozen");
}

}  // namespace
}  // namespace cloudwf::dag
