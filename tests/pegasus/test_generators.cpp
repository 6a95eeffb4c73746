/// \file test_generators.cpp
/// \brief Tests of the synthetic Pegasus workflow generators (pegasus/*).

#include "pegasus/generator.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <tuple>

#include "common/error.hpp"
#include "dag/analysis.hpp"
#include "testing/helpers.hpp"

namespace cloudwf::pegasus {
namespace {

// ---- Generic properties, parameterized over (type, size) -------------------

using Param = std::tuple<WorkflowType, std::size_t>;

class GeneratorTest : public ::testing::TestWithParam<Param> {
 protected:
  [[nodiscard]] WorkflowType type() const { return std::get<0>(GetParam()); }
  [[nodiscard]] std::size_t size() const { return std::get<1>(GetParam()); }
};

TEST_P(GeneratorTest, ExactTaskCount) {
  const dag::Workflow wf = generate(type(), {size(), 1, 0.5});
  EXPECT_EQ(wf.task_count(), size());
  EXPECT_TRUE(wf.frozen());
}

TEST_P(GeneratorTest, DeterministicPerSeed) {
  const dag::Workflow a = generate(type(), {size(), 9, 0.5});
  const dag::Workflow b = generate(type(), {size(), 9, 0.5});
  ASSERT_EQ(a.task_count(), b.task_count());
  ASSERT_EQ(a.edge_count(), b.edge_count());
  for (dag::TaskId t = 0; t < a.task_count(); ++t) {
    EXPECT_EQ(a.task(t).name, b.task(t).name);
    EXPECT_DOUBLE_EQ(a.task(t).mean_weight, b.task(t).mean_weight);
  }
  for (dag::EdgeId e = 0; e < a.edge_count(); ++e)
    EXPECT_DOUBLE_EQ(a.edge(e).bytes, b.edge(e).bytes);
}

TEST_P(GeneratorTest, SeedsProduceDistinctInstances) {
  const dag::Workflow a = generate(type(), {size(), 1, 0.5});
  const dag::Workflow b = generate(type(), {size(), 2, 0.5});
  bool any_different = false;
  for (dag::TaskId t = 0; t < a.task_count(); ++t)
    if (a.task(t).mean_weight != b.task(t).mean_weight) any_different = true;
  EXPECT_TRUE(any_different);
}

TEST_P(GeneratorTest, StddevRatioApplied) {
  const dag::Workflow wf = generate(type(), {size(), 1, 0.75});
  for (const dag::Task& t : wf.tasks())
    EXPECT_NEAR(t.weight_stddev, 0.75 * t.mean_weight, 1e-9);
}

TEST_P(GeneratorTest, HasExternalInputAndOutput) {
  const dag::Workflow wf = generate(type(), {size(), 1, 0.5});
  EXPECT_GT(wf.external_input_bytes(), 0.0);
  EXPECT_GT(wf.external_output_bytes(), 0.0);
}

TEST_P(GeneratorTest, SingleWeaklyConnectedComponentOrLigoGroups) {
  const dag::Workflow wf = generate(type(), {size(), 1, 0.5});
  // Union-find over edges.
  std::vector<dag::TaskId> parent(wf.task_count());
  for (dag::TaskId t = 0; t < wf.task_count(); ++t) parent[t] = t;
  const auto find = [&](dag::TaskId t) {
    while (parent[t] != t) t = parent[t] = parent[parent[t]];
    return t;
  };
  for (const dag::Edge& e : wf.edges()) parent[find(e.src)] = find(e.dst);
  std::size_t components = 0;
  for (dag::TaskId t = 0; t < wf.task_count(); ++t)
    if (find(t) == t) ++components;
  if (type() == WorkflowType::ligo) {
    EXPECT_GE(components, 1u);  // independent groups by design
    EXPECT_LE(components, size() / 8);
  } else {
    EXPECT_EQ(components, 1u);
  }
}

TEST_P(GeneratorTest, NameEncodesFamilySizeSeed) {
  const dag::Workflow wf = generate(type(), {size(), 3, 0.5});
  const std::string name = wf.name();
  EXPECT_NE(name.find(std::string(to_string(type()))), std::string::npos);
  EXPECT_NE(name.find("n" + std::to_string(size())), std::string::npos);
  EXPECT_NE(name.find("s3"), std::string::npos);
}

INSTANTIATE_TEST_SUITE_P(
    TypesAndSizes, GeneratorTest,
    ::testing::Combine(::testing::Values(WorkflowType::cybershake, WorkflowType::ligo,
                                         WorkflowType::montage),
                       ::testing::Values(std::size_t{30}, std::size_t{60}, std::size_t{90})),
    [](const ::testing::TestParamInfo<Param>& info) {
      return std::string(to_string(std::get<0>(info.param))) + "_n" +
             std::to_string(std::get<1>(info.param));
    });

// ---- Family-specific structural traits -------------------------------------

TEST(Cybershake, TwoAgglomerativeSinks) {
  const dag::Workflow wf = generate_cybershake({30, 1, 0.5});
  EXPECT_EQ(testing::exit_tasks(wf).size(), 2u);  // ZipSeis + ZipPSA
  for (const dag::TaskId t : testing::exit_tasks(wf)) {
    EXPECT_GT(wf.in_edges(t).size(), 1u);
    EXPECT_GT(wf.external_output_of(t), 0.0);
  }
}

TEST(Cybershake, GeneratorConsumerPairsCarryHugeData) {
  const dag::Workflow wf = generate_cybershake({30, 1, 0.5});
  // Every SeismogramSynthesis input edge from ExtractSGT is ~150 MB —
  // two orders of magnitude above the seismogram outputs.
  Bytes max_small = 0;
  Bytes min_huge = 1e18;
  for (const dag::Edge& e : wf.edges()) {
    const std::string& src_type = wf.task(e.src).type;
    if (src_type == "ExtractSGT")
      min_huge = std::min(min_huge, e.bytes);
    else
      max_small = std::max(max_small, e.bytes);
  }
  EXPECT_GT(min_huge, 50 * max_small);
}

TEST(Cybershake, DepthIsFour) {
  const dag::Workflow wf = generate_cybershake({60, 2, 0.5});
  const auto groups = dag::tasks_by_level(wf);
  EXPECT_EQ(groups.size(), 4u);  // extract, synthesis, peak/zipseis, zippsa
}

TEST(Ligo, ExactlyOneOversizedInput) {
  const dag::Workflow wf = generate_ligo({90, 6, 0.5});
  std::vector<Bytes> inputs;
  for (dag::TaskId t = 0; t < wf.task_count(); ++t)
    if (wf.external_input_of(t) > 0) inputs.push_back(wf.external_input_of(t));
  ASSERT_GT(inputs.size(), 1u);
  std::sort(inputs.begin(), inputs.end());
  const Bytes largest = inputs.back();
  const Bytes second = inputs[inputs.size() - 2];
  EXPECT_GT(largest, 100 * second);  // "oversized by a ratio over 100"
  // All other inputs share the same magnitude (within generator jitter).
  EXPECT_LT(inputs[inputs.size() - 2] / inputs.front(), 2.0);
}

TEST(Ligo, GroupCountGrowsWithSize) {
  const auto count_components = [](const dag::Workflow& wf) {
    std::vector<dag::TaskId> parent(wf.task_count());
    for (dag::TaskId t = 0; t < wf.task_count(); ++t) parent[t] = t;
    const auto find = [&](dag::TaskId t) {
      while (parent[t] != t) t = parent[t] = parent[parent[t]];
      return t;
    };
    for (const dag::Edge& e : wf.edges()) parent[find(e.src)] = find(e.dst);
    std::size_t n = 0;
    for (dag::TaskId t = 0; t < wf.task_count(); ++t)
      if (find(t) == t) ++n;
    return n;
  };
  // The paper: more tasks -> more independent short workflows.
  EXPECT_LT(count_components(generate_ligo({30, 1, 0.5})),
            count_components(generate_ligo({90, 1, 0.5})));
}

TEST(Ligo, TwoStageAgglomerationScheme) {
  const dag::Workflow wf = generate_ligo({28, 2, 0.5});
  std::map<std::string, std::size_t> type_counts;
  for (const dag::Task& t : wf.tasks()) ++type_counts[t.type];
  EXPECT_GT(type_counts["TmpltBank"], 0u);
  EXPECT_GT(type_counts["Inspiral"], 0u);
  EXPECT_GT(type_counts["Thinca"], 0u);
  EXPECT_GT(type_counts["TrigBank"], 0u);
  EXPECT_EQ(type_counts["TmpltBank"] + type_counts["Inspiral"] + type_counts["Thinca"] +
                type_counts["TrigBank"],
            wf.task_count());
}

TEST(Montage, DenseInterconnection) {
  const dag::Workflow montage = generate_montage({90, 1, 0.5});
  const dag::Workflow cyber = generate_cybershake({90, 1, 0.5});
  const double montage_degree =
      static_cast<double>(montage.edge_count()) / static_cast<double>(montage.task_count());
  const double cyber_degree =
      static_cast<double>(cyber.edge_count()) / static_cast<double>(cyber.task_count());
  EXPECT_GT(montage_degree, 1.5);        // "plenty highly inter-connected tasks"
  EXPECT_GT(montage_degree, cyber_degree);
}

TEST(Montage, AssemblyTailIsSequential) {
  const dag::Workflow wf = generate_montage({60, 4, 0.5});
  ASSERT_EQ(testing::exit_tasks(wf).size(), 1u);
  EXPECT_EQ(wf.task(testing::exit_tasks(wf)[0]).type, "mJPEG");
  // mJPEG <- mShrink <- mAdd chain.
  const dag::TaskId jpeg = testing::exit_tasks(wf)[0];
  ASSERT_EQ(wf.in_edges(jpeg).size(), 1u);
  EXPECT_EQ(wf.task(wf.edge(wf.in_edges(jpeg)[0]).src).type, "mShrink");
}

TEST(Montage, BalancedWeights) {
  // The paper: the number of instructions of MONTAGE tasks is balanced —
  // spread within about one order of magnitude.
  const dag::Workflow wf = generate_montage({90, 3, 0.5});
  Instructions lo = 1e18;
  Instructions hi = 0;
  for (const dag::Task& t : wf.tasks()) {
    lo = std::min(lo, t.mean_weight);
    hi = std::max(hi, t.mean_weight);
  }
  EXPECT_LT(hi / lo, 25.0);
}

TEST(Montage, DiffFitReadsTwoProjections) {
  const dag::Workflow wf = generate_montage({60, 2, 0.5});
  for (dag::TaskId t = 0; t < wf.task_count(); ++t) {
    if (wf.task(t).type != "mDiffFit") continue;
    EXPECT_EQ(wf.in_edges(t).size(), 2u);
    for (dag::EdgeId e : wf.in_edges(t))
      EXPECT_EQ(wf.task(wf.edge(e).src).type, "mProjectPP");
  }
}


// ---- EPIGENOMICS / SIPHT (beyond the paper's evaluated families) -----------

class ExtendedGeneratorTest : public ::testing::TestWithParam<Param> {};

TEST_P(ExtendedGeneratorTest, ExactCountDeterministicFrozen) {
  const auto [type, size] = GetParam();
  const dag::Workflow a = generate(type, {size, 5, 0.5});
  const dag::Workflow b = generate(type, {size, 5, 0.5});
  EXPECT_EQ(a.task_count(), size);
  EXPECT_TRUE(a.frozen());
  ASSERT_EQ(a.edge_count(), b.edge_count());
  for (dag::TaskId t = 0; t < a.task_count(); ++t)
    EXPECT_DOUBLE_EQ(a.task(t).mean_weight, b.task(t).mean_weight);
  EXPECT_GT(a.external_input_bytes(), 0.0);
  EXPECT_GT(a.external_output_bytes(), 0.0);
}

INSTANTIATE_TEST_SUITE_P(
    ExtendedFamilies, ExtendedGeneratorTest,
    ::testing::Combine(::testing::Values(WorkflowType::epigenomics, WorkflowType::sipht),
                       ::testing::Values(std::size_t{30}, std::size_t{60}, std::size_t{90})),
    [](const ::testing::TestParamInfo<Param>& info) {
      return std::string(to_string(std::get<0>(info.param))) + "_n" +
             std::to_string(std::get<1>(info.param));
    });

TEST(Epigenomics, PipelineDominatedShape) {
  const dag::Workflow wf = generate_epigenomics({60, 2, 0.5});
  const auto groups = dag::tasks_by_level(wf);
  // split -> 4 pipeline stages -> merge -> maqindex -> pileup = 8 levels.
  EXPECT_EQ(groups.size(), 8u);
  ASSERT_EQ(testing::exit_tasks(wf).size(), 1u);
  EXPECT_EQ(wf.task(testing::exit_tasks(wf)[0]).type, "pileup");
}

TEST(Epigenomics, LanesAreIndependentUntilIndex) {
  const dag::Workflow wf = generate_epigenomics({90, 3, 0.5});
  // Every fastqSplit is an entry; every lane funnels through its own merge.
  std::size_t splits = 0;
  std::size_t merges = 0;
  for (const dag::Task& t : wf.tasks()) {
    if (t.type == "fastqSplit") ++splits;
    if (t.type == "mapMerge") ++merges;
  }
  EXPECT_EQ(splits, merges);
  EXPECT_GT(splits, 1u);
  const dag::TaskId maqindex = wf.find_task("maqIndex");
  ASSERT_NE(maqindex, dag::invalid_task);
  EXPECT_EQ(wf.in_edges(maqindex).size(), merges);
}

TEST(Sipht, FanInHubAndImbalancedWeights) {
  const dag::Workflow wf = generate_sipht({40, 2, 0.5});
  const dag::TaskId srna = wf.find_task("SRNA");
  ASSERT_NE(srna, dag::invalid_task);
  EXPECT_EQ(wf.in_edges(srna).size(), 5u);  // concat + 4 analyses
  EXPECT_EQ(wf.out_edges(srna).size(), 5u);
  // Findterm dwarfs Patser by ~two orders of magnitude.
  const dag::TaskId findterm = wf.find_task("Findterm");
  const dag::TaskId patser = wf.find_task("Patser_0");
  EXPECT_GT(wf.task(findterm).mean_weight, 30 * wf.task(patser).mean_weight);
}

TEST(Sipht, RejectsTooFewTasks) {
  EXPECT_THROW((void)generate_sipht({12, 1, 0.5}), InvalidArgument);
}

TEST(ExtendedFamilies, ParseAndDispatch) {
  EXPECT_EQ(parse_type("epigenomics"), WorkflowType::epigenomics);
  EXPECT_EQ(parse_type("sipht"), WorkflowType::sipht);
  EXPECT_EQ(extended_types().size(), 5u);
  EXPECT_EQ(all_types().size(), 3u);  // the paper's three stay the default
}

// ---- Config handling --------------------------------------------------------

TEST(Generator, ParseAndToString) {
  EXPECT_EQ(parse_type("montage"), WorkflowType::montage);
  EXPECT_EQ(parse_type("ligo"), WorkflowType::ligo);
  EXPECT_EQ(parse_type("cybershake"), WorkflowType::cybershake);
  EXPECT_THROW((void)parse_type("unknown"), InvalidArgument);
  EXPECT_EQ(to_string(WorkflowType::montage), "montage");
}

TEST(Generator, RejectsTinyTaskCounts) {
  EXPECT_THROW((void)generate_cybershake({4, 1, 0.5}), InvalidArgument);
  EXPECT_THROW((void)generate_ligo({7, 1, 0.5}), InvalidArgument);
  EXPECT_THROW((void)generate_montage({8, 1, 0.5}), InvalidArgument);
}

TEST(Generator, RejectsNegativeStddevRatio) {
  EXPECT_THROW((void)generate_montage({30, 1, -0.5}), InvalidArgument);
}

TEST(Generator, LargeInstancesGenerateQuickly) {
  const dag::Workflow wf = generate(WorkflowType::montage, {400, 1, 0.5});
  EXPECT_EQ(wf.task_count(), 400u);
}

}  // namespace
}  // namespace cloudwf::pegasus
