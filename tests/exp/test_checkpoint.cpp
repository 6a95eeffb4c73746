/// \file test_checkpoint.cpp
/// \brief Tests of journaled checkpoint/resume (exp/checkpoint).

#include "exp/checkpoint.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>

#include "common/error.hpp"
#include "exp/campaign.hpp"
#include "pegasus/generator.hpp"
#include "platform/platform.hpp"

namespace cloudwf::exp {
namespace {

namespace fs = std::filesystem;

/// Field-by-field exact equality (operator== on double is deliberate: the
/// journal must replay results *bit-identically*, not approximately).
void expect_results_identical(const EvalResult& a, const EvalResult& b) {
  EXPECT_EQ(a.algorithm, b.algorithm);
  EXPECT_EQ(a.budget, b.budget);
  EXPECT_EQ(a.status, b.status);
  EXPECT_EQ(a.error_kind, b.error_kind);
  EXPECT_EQ(a.error_message, b.error_message);
  EXPECT_EQ(a.predicted_makespan, b.predicted_makespan);
  EXPECT_EQ(a.predicted_cost, b.predicted_cost);
  EXPECT_EQ(a.predicted_feasible, b.predicted_feasible);
  EXPECT_EQ(a.used_vms, b.used_vms);
  EXPECT_EQ(a.makespan.values(), b.makespan.values());
  EXPECT_EQ(a.cost.values(), b.cost.values());
  EXPECT_EQ(a.valid_fraction, b.valid_fraction);
  EXPECT_EQ(a.deadline_fraction, b.deadline_fraction);
  EXPECT_EQ(a.objective_fraction, b.objective_fraction);
  EXPECT_EQ(a.success_fraction, b.success_fraction);
  EXPECT_EQ(a.crashes_mean, b.crashes_mean);
  EXPECT_EQ(a.failed_tasks_mean, b.failed_tasks_mean);
  EXPECT_EQ(a.recovery_cost_mean, b.recovery_cost_mean);
  EXPECT_EQ(a.wasted_compute_mean, b.wasted_compute_mean);
  EXPECT_EQ(a.schedule_seconds, b.schedule_seconds);
}

/// Campaign aggregate equality, excluding sched_time (wall-clock noise for
/// freshly computed cells).
void expect_campaigns_identical(const CampaignResult& a, const CampaignResult& b) {
  ASSERT_EQ(a.cells.size(), b.cells.size());
  ASSERT_EQ(a.mean_budgets.size(), b.mean_budgets.size());
  for (std::size_t i = 0; i < a.mean_budgets.size(); ++i)
    EXPECT_EQ(a.mean_budgets[i], b.mean_budgets[i]) << i;
  EXPECT_EQ(a.min_cost.mean(), b.min_cost.mean());
  EXPECT_EQ(a.timed_out_cells, b.timed_out_cells);
  EXPECT_EQ(a.errored_cells, b.errored_cells);
  for (std::size_t alg = 0; alg < a.cells.size(); ++alg) {
    ASSERT_EQ(a.cells[alg].size(), b.cells[alg].size());
    for (std::size_t bud = 0; bud < a.cells[alg].size(); ++bud) {
      const CampaignCell& ca = a.cells[alg][bud];
      const CampaignCell& cb = b.cells[alg][bud];
      EXPECT_EQ(ca.makespan.count(), cb.makespan.count()) << alg << "," << bud;
      EXPECT_EQ(ca.makespan.mean(), cb.makespan.mean()) << alg << "," << bud;
      EXPECT_EQ(ca.makespan.stddev(), cb.makespan.stddev()) << alg << "," << bud;
      EXPECT_EQ(ca.cost.mean(), cb.cost.mean()) << alg << "," << bud;
      EXPECT_EQ(ca.used_vms.mean(), cb.used_vms.mean()) << alg << "," << bud;
      EXPECT_EQ(ca.valid.mean(), cb.valid.mean()) << alg << "," << bud;
      EXPECT_EQ(ca.timed_out, cb.timed_out) << alg << "," << bud;
      EXPECT_EQ(ca.errored, cb.errored) << alg << "," << bud;
    }
  }
}

EvalResult sample_result() {
  const auto wf = pegasus::generate(pegasus::WorkflowType::montage, {15, 1, 0.5});
  const auto platform = platform::paper_platform();
  EvalConfig config;
  config.repetitions = 5;
  config.seed = 1234;
  config.measure_cpu_time = true;
  return evaluate(wf, platform, "heft-budg", 3.0, config);
}

CampaignConfig small_campaign() {
  CampaignConfig config;
  config.type = pegasus::WorkflowType::montage;
  config.tasks = 15;
  config.instances = 2;
  config.budget_points = 3;
  config.repetitions = 3;
  config.algorithms = {"heft", "heft-budg"};
  return config;
}

class CheckpointTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // Unique per test: ctest runs each TEST as its own process, possibly in
    // parallel, so a shared fixture directory would let one test's
    // SetUp/TearDown remove_all the journal another test is replaying.
    const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
    dir_ = fs::path(::testing::TempDir()) /
           (std::string("cloudwf_checkpoint_") + info->name());
    fs::remove_all(dir_);
    fs::create_directories(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  [[nodiscard]] std::string journal_path() const { return (dir_ / "journal.jsonl").string(); }

  fs::path dir_;
};

TEST_F(CheckpointTest, EvalResultJsonRoundTripIsExact) {
  const EvalResult original = sample_result();
  // Serialize -> text -> parse -> deserialize: exactly what a journal line
  // goes through, including shortest-round-trip double formatting.
  const Json reparsed = Json::parse(eval_result_to_json(original).dump());
  expect_results_identical(original, eval_result_from_json(reparsed));
}

TEST_F(CheckpointTest, DegradedResultRoundTrips) {
  EvalResult degraded;
  degraded.algorithm = "heft";
  degraded.budget = 2.5;
  degraded.status = RunStatus::timed_out;
  degraded.error_kind = ErrorKind::timeout;
  degraded.error_message = "watchdog deadline of 0.5 s expired, with \"quotes\"\nand newline";
  const Json reparsed = Json::parse(eval_result_to_json(degraded).dump());
  expect_results_identical(degraded, eval_result_from_json(reparsed));
}

TEST_F(CheckpointTest, FingerprintSeparatesRequests) {
  const auto wf = pegasus::generate(pegasus::WorkflowType::montage, {15, 1, 0.5});
  RunRequest base;
  base.wf = &wf;
  base.algorithm = "heft";
  base.budget = 2.0;
  base.tag = "inst=0;b=0";

  const std::string fp = fingerprint_request(base, 42);
  EXPECT_EQ(fp.size(), 16u);
  EXPECT_EQ(fp, fingerprint_request(base, 42));  // deterministic

  RunRequest other = base;
  other.algorithm = "heft-budg";
  EXPECT_NE(fingerprint_request(other, 42), fp);
  other = base;
  other.budget = 2.0000001;
  EXPECT_NE(fingerprint_request(other, 42), fp);
  other = base;
  other.tag = "inst=1;b=0";
  EXPECT_NE(fingerprint_request(other, 42), fp);
  other = base;
  other.config.seed += 1;
  EXPECT_NE(fingerprint_request(other, 42), fp);
  EXPECT_NE(fingerprint_request(base, 43), fp);  // different campaign salt
}

TEST_F(CheckpointTest, FaultRequestFingerprintIsPinned) {
  // Journals written by earlier builds must keep resuming: the fingerprint
  // of a fault-enabled request is pinned to the value it always had.
  const auto wf = pegasus::generate(pegasus::WorkflowType::montage, {15, 1, 0.5});
  RunRequest request;
  request.wf = &wf;
  request.algorithm = "heft-budg";
  request.budget = 2.5;
  request.tag = "inst=0;b=1";
  request.config.repetitions = 7;
  request.config.seed = 99;
  request.config.run.faults.lambda_crash = 1.5;
  request.config.run.faults.p_transfer_fail = 0.02;
  request.config.run.faults.seed = 77;
  request.config.run.recovery.budget_cap = 5.0;
  request.config.run.recovery.max_task_retries = 3;
  EXPECT_EQ(fingerprint_request(request, 42), "f07b23e900964b04");
}

TEST_F(CheckpointTest, FingerprintSeparatesOnlinePolicies) {
  const auto wf = pegasus::generate(pegasus::WorkflowType::montage, {15, 1, 0.5});
  RunRequest offline;
  offline.wf = &wf;
  offline.algorithm = "heft-budg";
  offline.budget = 2.0;
  RunRequest online = offline;
  online.config.run.online.emplace();
  EXPECT_NE(fingerprint_request(online), fingerprint_request(offline));
  RunRequest tighter = online;
  tighter.config.run.online->timeout_sigmas = 1.0;
  EXPECT_NE(fingerprint_request(tighter), fingerprint_request(online));
  RunRequest capped = online;
  capped.config.run.online->budget_cap = 3.0;
  EXPECT_NE(fingerprint_request(capped), fingerprint_request(online));
}

TEST_F(CheckpointTest, JournalRecordsAndReloads) {
  const EvalResult result = sample_result();
  {
    CheckpointJournal journal(journal_path(), /*resume=*/false);
    EXPECT_EQ(journal.cached(), 0u);
    journal.record("fp-1", result);
    EXPECT_EQ(journal.recorded(), 1u);
  }
  CheckpointJournal reloaded(journal_path(), /*resume=*/true);
  EXPECT_EQ(reloaded.cached(), 1u);
  EXPECT_EQ(reloaded.skipped_lines(), 0u);
  ASSERT_NE(reloaded.find("fp-1"), nullptr);
  expect_results_identical(result, *reloaded.find("fp-1"));
  EXPECT_EQ(reloaded.find("fp-2"), nullptr);
}

TEST_F(CheckpointTest, FreshJournalTruncatesExisting) {
  {
    CheckpointJournal journal(journal_path(), /*resume=*/false);
    journal.record("fp-1", sample_result());
  }
  CheckpointJournal fresh(journal_path(), /*resume=*/false);
  EXPECT_EQ(fresh.cached(), 0u);
  EXPECT_EQ(fs::file_size(journal_path()), 0u);
}

TEST_F(CheckpointTest, TornTrailingLineIsSkippedNotFatal) {
  const EvalResult result = sample_result();
  {
    CheckpointJournal journal(journal_path(), /*resume=*/false);
    journal.record("fp-1", result);
    journal.record("fp-2", result);
  }
  // Simulate a SIGKILL mid-append: chop the file mid-way through the last
  // line, leaving valid line 1 plus a torn prefix of line 2.
  std::string content;
  {
    std::ifstream in(journal_path(), std::ios::binary);
    std::ostringstream os;
    os << in.rdbuf();
    content = os.str();
  }
  const std::size_t first_end = content.find('\n');
  ASSERT_NE(first_end, std::string::npos);
  std::ofstream(journal_path(), std::ios::binary | std::ios::trunc)
      << content.substr(0, first_end + 1 + 20);

  CheckpointJournal recovered(journal_path(), /*resume=*/true);
  EXPECT_EQ(recovered.cached(), 1u);
  EXPECT_EQ(recovered.skipped_lines(), 1u);
  ASSERT_NE(recovered.find("fp-1"), nullptr);
  expect_results_identical(result, *recovered.find("fp-1"));
  EXPECT_EQ(recovered.find("fp-2"), nullptr);  // torn cell: recompute
}

TEST_F(CheckpointTest, GarbageLinesAreSkipped) {
  std::ofstream(journal_path()) << "not json at all\n{\"fp\": \"x\"}\n";
  CheckpointJournal journal(journal_path(), /*resume=*/true);
  EXPECT_EQ(journal.cached(), 0u);
  EXPECT_EQ(journal.skipped_lines(), 2u);
}

TEST_F(CheckpointTest, JournalLineWithRetiredThroughputKeyReplays) {
  // Journals written before the wall-clock obs.sim_events_per_sec field was
  // retired still carry it; the key is ignored, every other field replays.
  const EvalResult result = sample_result();
  Json stored = eval_result_to_json(result);
  stored.as_object()["obs"].as_object()["sim_events_per_sec"] = 123456.0;
  Json::Object line;
  line["fp"] = "fp-old";
  line["result"] = std::move(stored);
  std::ofstream(journal_path()) << Json(std::move(line)).dump() << "\n";

  CheckpointJournal journal(journal_path(), /*resume=*/true);
  EXPECT_EQ(journal.cached(), 1u);
  EXPECT_EQ(journal.skipped_lines(), 0u);
  ASSERT_NE(journal.find("fp-old"), nullptr);
  const EvalResult& replayed = *journal.find("fp-old");
  expect_results_identical(result, replayed);
  EXPECT_EQ(replayed.queue_wait_p95, result.queue_wait_p95);
  EXPECT_EQ(replayed.vm_util_mean, result.vm_util_mean);
  EXPECT_EQ(replayed.budget_headroom_mean, result.budget_headroom_mean);
}

TEST_F(CheckpointTest, CampaignWithCheckpointMatchesPlainRun) {
  CampaignConfig config = small_campaign();
  const CampaignResult plain = run_campaign(platform::paper_platform(), config);

  config.checkpoint_dir = (dir_ / "ckpt").string();
  const CampaignResult journaled = run_campaign(platform::paper_platform(), config);
  expect_campaigns_identical(plain, journaled);
  EXPECT_FALSE(journaled.journal_path.empty());
  EXPECT_TRUE(fs::exists(journaled.journal_path));
  EXPECT_EQ(journaled.replayed_cells, 0u);

  // Parallel execution against the same (already complete) journal.
  config.resume = true;
  config.threads = 4;
  const CampaignResult replayed = run_campaign(platform::paper_platform(), config);
  expect_campaigns_identical(plain, replayed);
  EXPECT_EQ(replayed.replayed_cells, 2u * 3u * 2u);  // every cell came from the journal
}

TEST_F(CheckpointTest, ResumeAfterTruncationIsBitIdentical) {
  CampaignConfig config = small_campaign();
  const CampaignResult reference = run_campaign(platform::paper_platform(), config);

  config.checkpoint_dir = (dir_ / "ckpt").string();
  const CampaignResult first = run_campaign(platform::paper_platform(), config);

  // Simulate a mid-campaign kill: keep only the first half of the journal
  // (a whole number of cells — the post-kill state fsync guarantees).
  std::vector<std::string> lines;
  {
    std::ifstream in(first.journal_path);
    std::string line;
    while (std::getline(in, line)) lines.push_back(line);
  }
  ASSERT_EQ(lines.size(), 12u);  // 2 instances x 3 budgets x 2 algorithms
  {
    std::ofstream out(first.journal_path, std::ios::trunc);
    for (std::size_t i = 0; i < lines.size() / 2; ++i) out << lines[i] << "\n";
  }

  config.resume = true;
  const CampaignResult resumed = run_campaign(platform::paper_platform(), config);
  EXPECT_EQ(resumed.replayed_cells, 6u);
  expect_campaigns_identical(reference, resumed);
}

TEST_F(CheckpointTest, ResumeIgnoresJournalOfDifferentConfig) {
  CampaignConfig config = small_campaign();
  config.checkpoint_dir = (dir_ / "ckpt").string();
  const CampaignResult first = run_campaign(platform::paper_platform(), config);

  // A different seed is a different campaign: the journal file name embeds
  // the config hash, so nothing gets replayed (and nothing explodes).
  config.seed += 1;
  config.resume = true;
  const CampaignResult other = run_campaign(platform::paper_platform(), config);
  EXPECT_NE(other.journal_path, first.journal_path);
  EXPECT_EQ(other.replayed_cells, 0u);
}

}  // namespace
}  // namespace cloudwf::exp
