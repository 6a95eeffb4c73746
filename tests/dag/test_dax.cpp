/// \file test_dax.cpp
/// \brief Unit tests for Pegasus DAX import/export (dag/dax).

#include "dag/dax.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>

#include "common/error.hpp"
#include "pegasus/generator.hpp"
#include "testing/helpers.hpp"

namespace cloudwf::dag {
namespace {

/// A miniature Montage-style DAX: two projections feeding a difference job;
/// raw inputs come from the archive, the fit leaves the cloud.
constexpr const char* sample_dax = R"(<?xml version="1.0" encoding="UTF-8"?>
<!-- generated: 2009-01-01 -->
<adag xmlns="http://pegasus.isi.edu/schema/DAX" version="3.3" name="mini-montage" jobCount="3">
  <job id="ID00000" namespace="montage" name="mProjectPP" runtime="13.59">
    <uses file="raw_1.fits" link="input" size="4000000"/>
    <uses file="proj_1.fits" link="output" size="8000000"/>
  </job>
  <job id="ID00001" namespace="montage" name="mProjectPP" runtime="11.2">
    <uses file="raw_2.fits" link="input" size="4100000"/>
    <uses file="proj_2.fits" link="output" size="8100000"/>
  </job>
  <job id="ID00002" namespace="montage" name="mDiffFit" runtime="0.66">
    <uses file="proj_1.fits" link="input" size="8000000"/>
    <uses file="proj_2.fits" link="input" size="8100000"/>
    <uses file="fit.txt" link="output" size="400000"/>
  </job>
  <child ref="ID00002">
    <parent ref="ID00000"/>
    <parent ref="ID00001"/>
  </child>
</adag>)";

TEST(Dax, ImportsJobsAndRuntimes) {
  const Workflow wf = from_dax(sample_dax, {.reference_speed = 100.0, .stddev_ratio = 0.25});
  EXPECT_EQ(wf.name(), "mini-montage");
  ASSERT_EQ(wf.task_count(), 3u);
  const TaskId proj = wf.find_task("ID00000");
  ASSERT_NE(proj, invalid_task);
  EXPECT_DOUBLE_EQ(wf.task(proj).mean_weight, 1359.0);  // 13.59 s * 100 instr/s
  EXPECT_DOUBLE_EQ(wf.task(proj).weight_stddev, 0.25 * 1359.0);
  EXPECT_EQ(wf.task(proj).type, "mProjectPP");
}

TEST(Dax, BuildsEdgesFromSharedFiles) {
  const Workflow wf = from_dax(sample_dax);
  ASSERT_EQ(wf.edge_count(), 2u);
  const TaskId diff = wf.find_task("ID00002");
  EXPECT_EQ(wf.in_edges(diff).size(), 2u);
  // proj_1.fits carries 8 MB from ID00000.
  Bytes from_first = 0;
  for (EdgeId e : wf.in_edges(diff))
    if (wf.edge(e).src == wf.find_task("ID00000")) from_first = wf.edge(e).bytes;
  EXPECT_DOUBLE_EQ(from_first, 8000000.0);
}

TEST(Dax, DetectsExternalIo) {
  const Workflow wf = from_dax(sample_dax);
  // raw_*.fits have no producer; fit.txt has no consumer.
  EXPECT_DOUBLE_EQ(wf.external_input_of(wf.find_task("ID00000")), 4000000.0);
  EXPECT_DOUBLE_EQ(wf.external_input_of(wf.find_task("ID00001")), 4100000.0);
  EXPECT_DOUBLE_EQ(wf.external_output_of(wf.find_task("ID00002")), 400000.0);
  EXPECT_DOUBLE_EQ(wf.external_output_of(wf.find_task("ID00000")), 0.0);
}

TEST(Dax, ImportedWorkflowIsFrozenAndSchedulable) {
  const Workflow wf = from_dax(sample_dax);
  EXPECT_TRUE(wf.frozen());
  EXPECT_EQ(wf.topological_order().size(), 3u);
  EXPECT_EQ(wf.entry_tasks().size(), 2u);
  EXPECT_EQ(testing::exit_tasks(wf).size(), 1u);
}

TEST(Dax, ZeroRuntimeClampsToMinWeight) {
  const std::string text = R"(<adag name="z"><job id="j" runtime="0"/></adag>)";
  const Workflow wf = from_dax(text, {.min_weight = 7.0});
  EXPECT_DOUBLE_EQ(wf.task(0).mean_weight, 7.0);
}

TEST(Dax, DuplicateDependencyDeclarationsIgnored) {
  const std::string text = R"(<adag name="d">
    <job id="a" runtime="1"/><job id="b" runtime="1"/>
    <child ref="b"><parent ref="a"/><parent ref="a"/></child>
  </adag>)";
  const Workflow wf = from_dax(text);
  EXPECT_EQ(wf.edge_count(), 1u);
}

TEST(Dax, UnknownRefsRejected) {
  const std::string text = R"(<adag name="d">
    <job id="a" runtime="1"/>
    <child ref="ghost"><parent ref="a"/></child>
  </adag>)";
  EXPECT_THROW((void)from_dax(text), InvalidArgument);
}

TEST(Dax, RejectsNonAdagRoot) {
  EXPECT_THROW((void)from_dax("<workflow/>"), InvalidArgument);
}

TEST(Dax, RejectsEmptyAdag) {
  EXPECT_THROW((void)from_dax("<adag name=\"x\"/>"), InvalidArgument);
}

TEST(Dax, ExportRoundTripsGeneratedWorkflow) {
  const Workflow original = pegasus::generate(pegasus::WorkflowType::montage, {24, 5, 0.5});
  const std::string dax = to_dax(original);
  const Workflow back = from_dax(dax, {.reference_speed = 1.0, .stddev_ratio = 0.5});

  ASSERT_EQ(back.task_count(), original.task_count());
  ASSERT_EQ(back.edge_count(), original.edge_count());
  EXPECT_NEAR(back.total_mean_weight(), original.total_mean_weight(),
              1e-6 * original.total_mean_weight());
  EXPECT_NEAR(back.total_edge_bytes(), original.total_edge_bytes(), 1.0);
  EXPECT_NEAR(back.external_input_bytes(), original.external_input_bytes(), 1.0);
  EXPECT_NEAR(back.external_output_bytes(), original.external_output_bytes(), 1.0);
  // Same precedence structure.
  for (EdgeId e = 0; e < original.edge_count(); ++e) {
    const Edge& edge = original.edge(e);
    const TaskId src = back.find_task(original.task(edge.src).name);
    const TaskId dst = back.find_task(original.task(edge.dst).name);
    bool found = false;
    for (EdgeId be : back.in_edges(dst))
      if (back.edge(be).src == src) found = true;
    EXPECT_TRUE(found) << original.task(edge.src).name << " -> "
                       << original.task(edge.dst).name;
  }
}

TEST(Dax, SaveAndLoadFile) {
  const Workflow wf = testing::diamond(0.5);
  const std::string path =
      (std::filesystem::temp_directory_path() / "cloudwf_test.dax").string();
  save_dax(wf, path);
  const Workflow back = load_dax(path, {.reference_speed = 1.0, .stddev_ratio = 0.5});
  EXPECT_EQ(back.task_count(), 4u);
  EXPECT_EQ(back.edge_count(), 4u);
  std::remove(path.c_str());
}

TEST(Dax, LoadMissingFileThrows) {
  EXPECT_THROW((void)load_dax("/no/such/file.dax"), InvalidArgument);
}

TEST(Dax, UnterminatedElementKeepsTypeTextAndOffset) {
  EXPECT_EQ(testing::exact_error<InvalidArgument>([] { (void)from_dax("<adag><job id=\"a\">"); }),
            "parse_xml: unterminated element <job> at offset 18");
  EXPECT_EQ(
      testing::exact_error<InvalidArgument>([] { (void)from_dax("<adag><job id=\"a\"></job>"); }),
      "parse_xml: unterminated element <adag> at offset 24");
}

}  // namespace
}  // namespace cloudwf::dag
