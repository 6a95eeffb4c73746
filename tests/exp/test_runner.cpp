/// \file test_runner.cpp
/// \brief Tests of the parallel experiment runner (exp/runner).

#include "exp/runner.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <sstream>

#include "common/csv.hpp"
#include "common/error.hpp"
#include "exp/campaign.hpp"
#include "exp/checkpoint.hpp"
#include "obs/metrics.hpp"
#include "pegasus/generator.hpp"
#include "platform/platform.hpp"

namespace cloudwf::exp {
namespace {

std::vector<RunRequest> make_matrix(const dag::Workflow& wf) {
  std::vector<RunRequest> requests;
  for (const std::string algorithm : {"heft", "heft-budg", "cg"}) {
    for (const double budget : {1.0, 2.0, 4.0}) {
      RunRequest request;
      request.wf = &wf;
      request.algorithm = algorithm;
      request.budget = budget;
      request.config.repetitions = 4;
      request.config.seed = 11;
      request.tag = algorithm + "@" + std::to_string(budget);
      requests.push_back(std::move(request));
    }
  }
  return requests;
}

TEST(Runner, ParallelMatchesSerialBitForBit) {
  const auto wf = pegasus::generate(pegasus::WorkflowType::cybershake, {20, 4, 0.5});
  const auto platform = platform::paper_platform();
  const auto requests = make_matrix(wf);

  const auto serial = run_requests(platform, requests, 1);
  const auto parallel = run_requests(platform, requests, 4);

  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_DOUBLE_EQ(serial[i].makespan.mean(), parallel[i].makespan.mean()) << i;
    EXPECT_DOUBLE_EQ(serial[i].cost.mean(), parallel[i].cost.mean()) << i;
    EXPECT_EQ(serial[i].used_vms, parallel[i].used_vms) << i;
    EXPECT_DOUBLE_EQ(serial[i].valid_fraction, parallel[i].valid_fraction) << i;
  }
}

TEST(Runner, FaultInjectionParallelMatchesSerialBitForBit) {
  // Repetition r draws its faults from faults.for_repetition(r), so the
  // outcome must not depend on how repetitions are spread across threads.
  const auto wf = pegasus::generate(pegasus::WorkflowType::cybershake, {20, 4, 0.5});
  const auto platform = platform::paper_platform();
  auto requests = make_matrix(wf);
  for (RunRequest& request : requests) {
    request.config.run.faults.lambda_crash = 2.0;
    request.config.run.faults.p_transfer_fail = 0.05;
    request.config.run.recovery.budget_cap = 3.0 * request.budget;
  }

  const auto serial = run_requests(platform, requests, 1);
  const auto parallel = run_requests(platform, requests, 4);

  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_DOUBLE_EQ(serial[i].makespan.mean(), parallel[i].makespan.mean()) << i;
    EXPECT_DOUBLE_EQ(serial[i].cost.mean(), parallel[i].cost.mean()) << i;
    EXPECT_DOUBLE_EQ(serial[i].success_fraction, parallel[i].success_fraction) << i;
    EXPECT_DOUBLE_EQ(serial[i].crashes_mean, parallel[i].crashes_mean) << i;
    EXPECT_DOUBLE_EQ(serial[i].failed_tasks_mean, parallel[i].failed_tasks_mean) << i;
    EXPECT_DOUBLE_EQ(serial[i].recovery_cost_mean, parallel[i].recovery_cost_mean) << i;
    EXPECT_DOUBLE_EQ(serial[i].wasted_compute_mean, parallel[i].wasted_compute_mean) << i;
  }
}

TEST(Runner, ResultsAreIndexAligned) {
  const auto wf = pegasus::generate(pegasus::WorkflowType::ligo, {22, 4, 0.5});
  const auto platform = platform::paper_platform();
  const auto requests = make_matrix(wf);
  const auto results = run_requests(platform, requests, 3);
  for (std::size_t i = 0; i < requests.size(); ++i)
    EXPECT_EQ(results[i].algorithm, requests[i].algorithm) << i;
}

TEST(Runner, RejectsMalformedRequests) {
  const auto platform = platform::paper_platform();
  std::vector<RunRequest> requests(1);  // null workflow
  EXPECT_THROW((void)run_requests(platform, requests, 1), InvalidArgument);
}

TEST(Runner, CsvContainsOneRowPerRequest) {
  const auto wf = pegasus::generate(pegasus::WorkflowType::montage, {15, 4, 0.5});
  const auto platform = platform::paper_platform();
  const auto requests = make_matrix(wf);
  const auto results = run_requests(platform, requests, 1);

  std::ostringstream os;
  write_results_csv(os, requests, results);
  const std::string csv = os.str();
  EXPECT_EQ(static_cast<std::size_t>(std::count(csv.begin(), csv.end(), '\n')),
            requests.size() + 1);  // header + rows
  EXPECT_NE(csv.find("makespan_p95"), std::string::npos);
  EXPECT_NE(csv.find("heft-budg@"), std::string::npos);
}

TEST(Runner, CsvRoundTripsThroughParser) {
  const auto wf = pegasus::generate(pegasus::WorkflowType::montage, {15, 4, 0.5});
  const auto platform = platform::paper_platform();
  auto requests = make_matrix(wf);
  // Tags with separators, quotes and newlines must survive a write -> parse
  // round trip (plot scripts read these files back).
  requests[0].tag = "b=1.0, \"quick\" look";
  requests[1].tag = "multi\nline tag";
  const auto results = run_requests(platform, requests, 1);

  std::ostringstream os;
  write_results_csv(os, requests, results);
  const auto rows = parse_csv(os.str());

  ASSERT_EQ(rows.size(), requests.size() + 1);
  const std::vector<std::string>& header = rows[0];
  EXPECT_EQ(header.size(), 33u);  // 27 original + 6 appended obs columns
  for (const char* column : {"status", "error_kind", "error_message", "success_fraction",
                             "budget_violation_fraction", "crashes_mean", "failed_tasks_mean",
                             "recovery_cost_mean", "wasted_compute_mean", "queue_wait_p50",
                             "queue_wait_p95", "queue_wait_p99", "vm_util_mean",
                             "transfer_retries_mean", "budget_headroom_mean"})
    EXPECT_NE(std::find(header.begin(), header.end(), column), header.end()) << column;
  for (std::size_t i = 0; i < requests.size(); ++i) {
    ASSERT_EQ(rows[i + 1].size(), header.size()) << i;
    EXPECT_EQ(rows[i + 1][3], requests[i].tag) << i;  // tag column, unescaped
    EXPECT_EQ(rows[i + 1][4], "ok") << i;             // status column
    EXPECT_EQ(rows[i + 1][5], "none") << i;           // error_kind column
    EXPECT_EQ(rows[i + 1][6], "") << i;               // error_message column
  }
}

TEST(Runner, ThrowingAlgorithmBecomesErroredCellMidMatrix) {
  // The robustness regression: one bad algorithm name in the middle of a
  // parallel matrix must degrade exactly its own cell, not tear down the
  // whole campaign with an exception out of parallel_for.
  const auto wf = pegasus::generate(pegasus::WorkflowType::montage, {15, 4, 0.5});
  const auto platform = platform::paper_platform();
  auto requests = make_matrix(wf);
  const std::size_t bad = requests.size() / 2;
  requests[bad].algorithm = "no-such-algorithm";

  const auto results = run_requests(platform, requests, 4);

  ASSERT_EQ(results.size(), requests.size());
  for (std::size_t i = 0; i < results.size(); ++i) {
    if (i == bad) {
      EXPECT_EQ(results[i].status, RunStatus::errored);
      EXPECT_EQ(results[i].error_kind, ErrorKind::invalid_argument);
      EXPECT_FALSE(results[i].error_message.empty());
      EXPECT_TRUE(results[i].makespan.empty());
    } else {
      EXPECT_EQ(results[i].status, RunStatus::ok) << i;
      EXPECT_GT(results[i].makespan.count(), 0u) << i;
    }
  }

  // The degraded cell survives a CSV round trip with parseable columns.
  std::ostringstream os;
  write_results_csv(os, requests, results);
  const auto rows = parse_csv(os.str());
  EXPECT_EQ(rows[1 + bad][4], "errored");
  EXPECT_EQ(parse_error_kind(rows[1 + bad][5]), ErrorKind::invalid_argument);
  EXPECT_EQ(rows[1 + bad][12], "nan");  // makespan_mean column
}

TEST(Runner, WatchdogTimeoutBecomesTimedOutCell) {
  const auto wf = pegasus::generate(pegasus::WorkflowType::montage, {15, 4, 0.5});
  const auto platform = platform::paper_platform();
  std::vector<RunRequest> requests(1);
  requests[0].wf = &wf;
  requests[0].algorithm = "heft";
  requests[0].budget = 4.0;
  requests[0].config.repetitions = 4;
  requests[0].config.run_timeout = 1e-9;  // expires before the first deadline check
  const auto results = run_requests(platform, requests, 1);
  ASSERT_EQ(results.size(), 1u);
  EXPECT_EQ(results[0].status, RunStatus::timed_out);
  EXPECT_EQ(results[0].error_kind, ErrorKind::timeout);
  EXPECT_TRUE(results[0].makespan.empty());
}

TEST(Runner, InterruptStopsTheSweep) {
  const auto wf = pegasus::generate(pegasus::WorkflowType::montage, {15, 4, 0.5});
  const auto platform = platform::paper_platform();
  const auto requests = make_matrix(wf);
  request_interrupt();
  // Interrupted is a shutdown request, not a per-cell failure: it must
  // propagate instead of becoming a degraded cell.
  EXPECT_THROW((void)run_requests(platform, requests, 1), Interrupted);
  clear_interrupt();
  EXPECT_FALSE(interrupt_requested());
  EXPECT_EQ(run_requests(platform, requests, 1).size(), requests.size());
}

TEST(Runner, FailedJournalAppendStopsTheMatrix) {
  // A journal append that fails (the disk is full) escapes its cell; cells
  // not yet started are skipped instead of computed and lost, so each thread
  // evaluates at most the one cell it was on.
  namespace fs = std::filesystem;
  if (!fs::exists("/dev/full")) GTEST_SKIP() << "needs /dev/full";
  const auto wf = pegasus::generate(pegasus::WorkflowType::montage, {15, 4, 0.5});
  const auto platform = platform::paper_platform();
  const fs::path dir = fs::temp_directory_path() / "cloudwf_runner_full_disk";
  fs::remove_all(dir);
  fs::create_directories(dir);
  const fs::path path = dir / "journal.jsonl";
  fs::create_symlink("/dev/full", path);
  CheckpointJournal journal(path.string(), /*resume=*/false);
  RunPolicy policy;
  policy.journal = &journal;
  for (const std::size_t threads : {1u, 4u}) {
    auto requests = make_matrix(wf);
    std::vector<obs::MetricsRegistry> evaluated(requests.size());
    for (std::size_t i = 0; i < requests.size(); ++i) requests[i].config.metrics = &evaluated[i];
    EXPECT_THROW((void)run_requests(platform, requests, threads, policy), IoError);
    const auto started = std::count_if(evaluated.begin(), evaluated.end(),
                                       [](const obs::MetricsRegistry& m) { return !m.empty(); });
    EXPECT_GE(started, 1) << threads;
    EXPECT_LE(static_cast<std::size_t>(started), threads) << threads;
  }
  fs::remove_all(dir);
}

TEST(Runner, CsvRejectsMismatchedSpans) {
  const auto wf = pegasus::generate(pegasus::WorkflowType::montage, {15, 4, 0.5});
  const auto platform = platform::paper_platform();
  const auto requests = make_matrix(wf);
  auto results = run_requests(platform, requests, 1);
  results.pop_back();
  std::ostringstream os;
  EXPECT_THROW(write_results_csv(os, requests, results), InvalidArgument);
}

TEST(Runner, CampaignReportsDegradedCellsAndCompletes) {
  CampaignConfig config;
  config.type = pegasus::WorkflowType::montage;
  config.tasks = 15;
  config.instances = 2;
  config.budget_points = 3;
  config.repetitions = 3;
  config.algorithms = {"heft", "no-such-algorithm"};

  const CampaignResult result = run_campaign(platform::paper_platform(), config);
  EXPECT_EQ(result.errored_cells, 2u * 3u);  // every (instance, budget) of the bad algorithm
  EXPECT_EQ(result.timed_out_cells, 0u);
  ASSERT_EQ(result.cells.size(), 2u);
  for (std::size_t b = 0; b < result.cells[0].size(); ++b) {
    EXPECT_EQ(result.cells[0][b].degraded(), 0u) << b;
    EXPECT_EQ(result.cells[0][b].makespan.count(), 2u) << b;  // healthy algorithm intact
    EXPECT_EQ(result.cells[1][b].errored, 2u) << b;
    EXPECT_EQ(result.cells[1][b].makespan.count(), 0u) << b;

    // The table renderer must not choke on empty accumulators.
  }
  std::ostringstream os;
  print_campaign_table(os, result, "makespan", "degraded campaign");
  EXPECT_NE(os.str().find("n/a"), std::string::npos);
  EXPECT_NE(os.str().find("degraded cells excluded"), std::string::npos);
}

TEST(Runner, CampaignParallelMatchesSerial) {
  CampaignConfig config;
  config.type = pegasus::WorkflowType::montage;
  config.tasks = 15;
  config.instances = 2;
  config.budget_points = 3;
  config.repetitions = 3;
  config.algorithms = {"heft", "heft-budg"};

  config.threads = 1;
  const CampaignResult serial = run_campaign(platform::paper_platform(), config);
  config.threads = 4;
  const CampaignResult parallel = run_campaign(platform::paper_platform(), config);

  for (std::size_t a = 0; a < serial.cells.size(); ++a) {
    for (std::size_t b = 0; b < serial.cells[a].size(); ++b) {
      EXPECT_DOUBLE_EQ(serial.cells[a][b].makespan.mean(),
                       parallel.cells[a][b].makespan.mean());
      EXPECT_DOUBLE_EQ(serial.cells[a][b].cost.mean(), parallel.cells[a][b].cost.mean());
    }
  }
}

}  // namespace
}  // namespace cloudwf::exp
