#include "exp/runner.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <csignal>
#include <iomanip>
#include <limits>
#include <sstream>

#include "common/csv.hpp"
#include "common/error.hpp"
#include "common/log.hpp"
#include "common/thread_pool.hpp"
#include "exp/checkpoint.hpp"
#include "sched/plan.hpp"

namespace cloudwf::exp {

namespace {

std::atomic<bool> interrupt_flag{false};

extern "C" void cloudwf_on_signal(int) { interrupt_flag.store(true); }

void check_requests(std::span<const RunRequest> requests) {
  for (const RunRequest& request : requests) {
    require(request.wf != nullptr, "runner: RunRequest without a workflow");
    require(request.wf->frozen(), "runner: workflow must be frozen");
    require(!request.algorithm.empty(), "runner: RunRequest without an algorithm");
  }
}

/// Placeholder cell for a request whose evaluation failed: no sample data,
/// zero fractions, the error taxonomy filled in.
EvalResult degraded_result(const RunRequest& request, RunStatus status,
                           const std::exception& error) {
  EvalResult result;
  result.algorithm = request.algorithm;
  result.budget = request.budget;
  result.status = status;
  result.error_kind = classify_error(error);
  result.error_message = error.what();
  result.deadline_fraction = 0;
  result.success_fraction = 0;
  return result;
}

/// Evaluates one request under \p policy: journal replay, watchdog,
/// exception capture, journal record.  Interrupted propagates.
/// \p plans shares one WorkflowPlan per (workflow, platform) pair across the
/// matrix (see sched/plan.hpp).
EvalResult evaluate_request(const platform::Platform& platform, const RunRequest& request,
                            const RunPolicy& policy, sched::PlanCache& plans) {
  throw_if_interrupted();
  std::string fingerprint;
  if (policy.journal != nullptr) {
    fingerprint = fingerprint_request(request, policy.fingerprint_salt);
    if (const EvalResult* cached = policy.journal->find(fingerprint)) return *cached;
  }
  EvalConfig config = request.config;
  if (config.plan_cache == nullptr) config.plan_cache = &plans;
  EvalResult result;
  try {
    result = evaluate(*request.wf, platform, request.algorithm, request.budget, config);
  } catch (const Interrupted&) {
    throw;
  } catch (const TimeoutError& error) {
    result = degraded_result(request, RunStatus::timed_out, error);
  } catch (const std::exception& error) {
    result = degraded_result(request, RunStatus::errored, error);
  }
  // Only completed cells become durable; degraded ones are retried on
  // resume (a transient OOM or timeout should not poison future runs).
  if (policy.journal != nullptr && result.ok()) policy.journal->record(fingerprint, result);
  return result;
}

/// Per-cell progress reporting for long matrices: done/total, wall time so
/// far, a naive linear ETA, and the metrics of the cell that just landed.
/// Emitted at `info` (invisible by default; CLOUDWF_LOG=info shows it) on
/// stderr, so machine-readable stdout stays byte-identical.
class Heartbeat {
 public:
  explicit Heartbeat(std::size_t total) : total_(total) {}

  void cell_done(const RunRequest& request, const EvalResult& result) {
    if (LogLevel::info < log_threshold()) return;  // skip the formatting work
    const std::size_t done = 1 + done_.fetch_add(1, std::memory_order_relaxed);
    const double elapsed = std::chrono::duration<double>(Clock::now() - start_).count();
    const double eta =
        done > 0 ? elapsed / static_cast<double>(done) *
                       static_cast<double>(total_ - done)
                 : 0.0;
    std::ostringstream os;
    os << std::fixed << std::setprecision(1) << "cell " << done << "/" << total_ << " ("
       << elapsed << " s elapsed, ~" << eta << " s left): " << request.wf->name() << "/"
       << result.algorithm << " b=" << std::setprecision(4) << result.budget << " "
       << to_string(result.status);
    if (result.ok())
      os << std::setprecision(1) << " makespan=" << result.makespan.mean()
         << " cost=" << std::setprecision(4) << result.cost.mean()
         << " valid=" << std::setprecision(2) << result.valid_fraction
         << " util=" << result.vm_util_mean;
    log_info_c("runner", os.str());
  }

 private:
  using Clock = std::chrono::steady_clock;

  const std::size_t total_;
  std::atomic<std::size_t> done_{0};
  const Clock::time_point start_ = Clock::now();
};

}  // namespace

void install_interrupt_handlers() {
  std::signal(SIGINT, cloudwf_on_signal);
  std::signal(SIGTERM, cloudwf_on_signal);
}

void request_interrupt() noexcept { interrupt_flag.store(true); }

void clear_interrupt() noexcept { interrupt_flag.store(false); }

bool interrupt_requested() noexcept { return interrupt_flag.load(); }

void throw_if_interrupted() {
  if (interrupt_flag.load())
    throw Interrupted("runner: stop requested (SIGINT/SIGTERM); journaled cells are durable");
}

std::vector<EvalResult> run_requests(const platform::Platform& platform,
                                     std::span<const RunRequest> requests, std::size_t threads,
                                     const RunPolicy& policy) {
  check_requests(requests);
  if (threads == 0) threads = std::max(1u, std::thread::hardware_concurrency());
  std::vector<EvalResult> results(requests.size());
  Heartbeat heartbeat(requests.size());
  sched::PlanCache plans;  // shared across cells; PlanCache::get is thread-safe
  // An exception that escapes a cell (Interrupted, a failed journal append)
  // ends the matrix: cells not yet started are skipped, not computed and lost.
  std::atomic<bool> stop{false};
  ThreadPool pool(threads - 1);  // the caller is the remaining thread
  pool.parallel_for(requests.size(), [&](std::size_t i) {
    if (stop.load()) return;
    try {
      results[i] = evaluate_request(platform, requests[i], policy, plans);
    } catch (...) {
      stop.store(true);
      throw;
    }
    heartbeat.cell_done(requests[i], results[i]);
  });
  return results;
}

void write_results_csv(std::ostream& out, std::span<const RunRequest> requests,
                       std::span<const EvalResult> results) {
  require(requests.size() == results.size(), "write_results_csv: size mismatch");
  const double nan = std::numeric_limits<double>::quiet_NaN();
  CsvWriter csv(out);
  csv.header({"workflow", "algorithm", "budget", "tag", "status", "error_kind",
              "error_message", "repetitions", "predicted_makespan", "predicted_cost",
              "predicted_feasible", "used_vms", "makespan_mean", "makespan_stddev",
              "makespan_p95", "cost_mean", "cost_stddev", "valid_fraction",
              "deadline_fraction", "objective_fraction", "success_fraction",
              "budget_violation_fraction", "crashes_mean", "failed_tasks_mean",
              "recovery_cost_mean", "wasted_compute_mean", "schedule_seconds",
              // Observability aggregates — appended after the original 27
              // columns so positional consumers keep working.
              "queue_wait_p50", "queue_wait_p95", "queue_wait_p99", "vm_util_mean",
              "transfer_retries_mean", "budget_headroom_mean"});
  for (std::size_t i = 0; i < requests.size(); ++i) {
    const RunRequest& request = requests[i];
    const EvalResult& r = results[i];
    const bool ok = r.ok();
    csv.field(request.wf->name())
        .field(r.algorithm)
        .field(r.budget)
        .field(request.tag)
        .field(to_string(r.status))
        .field(to_string(r.error_kind))
        .field(r.error_message)
        .field(r.makespan.count())
        .field(ok ? r.predicted_makespan : nan)
        .field(ok ? r.predicted_cost : nan)
        .field(r.predicted_feasible ? 1 : 0)
        .field(r.used_vms)
        .field(ok ? r.makespan.mean() : nan)
        .field(ok ? r.makespan.stddev() : nan)
        .field(ok ? r.makespan.quantile(0.95) : nan)
        .field(ok ? r.cost.mean() : nan)
        .field(ok ? r.cost.stddev() : nan)
        .field(r.valid_fraction)
        .field(r.deadline_fraction)
        .field(r.objective_fraction)
        .field(r.success_fraction)
        .field(1.0 - r.valid_fraction)
        .field(r.crashes_mean)
        .field(r.failed_tasks_mean)
        .field(r.recovery_cost_mean)
        .field(r.wasted_compute_mean)
        .field(r.schedule_seconds)
        .field(ok ? r.queue_wait_p50 : nan)
        .field(ok ? r.queue_wait_p95 : nan)
        .field(ok ? r.queue_wait_p99 : nan)
        .field(ok ? r.vm_util_mean : nan)
        .field(ok ? r.transfer_retries_mean : nan)
        .field(ok ? r.budget_headroom_mean : nan);
    csv.end_row();
  }
}

}  // namespace cloudwf::exp
