#pragma once

/// \file runner.hpp
/// \brief Robust parallel execution of experiment matrices + raw-result CSV.
///
/// Every cloudwf component is a pure function of its inputs and seeds, so an
/// experiment matrix parallelizes trivially: requests are evaluated across a
/// ThreadPool and results land at their request's index regardless of
/// execution order — output is bit-identical at any thread count.
///
/// The runner is also the campaign's crash containment layer: a throwing or
/// watchdog-timed-out request becomes a degraded (`errored` / `timed_out`)
/// result cell instead of tearing down the whole sweep, completed cells can
/// be journaled for resume, and a SIGINT/SIGTERM (via request_interrupt())
/// stops the matrix at the next cell boundary with everything already
/// journaled.
///
/// run_requests owns a sched::PlanCache for the duration of the matrix:
/// cells evaluating the same (workflow, platform) pair share one
/// WorkflowPlan (ranks, levels, Algorithm 1's time model) instead of each
/// building its own.  A shared plan changes no result; a request whose
/// EvalConfig already carries a plan_cache keeps it.

#include <ostream>
#include <span>
#include <string>
#include <vector>

#include "exp/evaluate.hpp"

namespace cloudwf::exp {

class CheckpointJournal;

/// One experimental point to evaluate.
struct RunRequest {
  const dag::Workflow* wf = nullptr;  ///< must outlive the run
  std::string algorithm;
  Dollars budget = 0;
  EvalConfig config;
  std::string tag;  ///< free-form label carried into the CSV ("inst=3;b=2")
};

/// Robustness knobs of one matrix run.
struct RunPolicy {
  /// When set, completed cells are replayed from / recorded to this
  /// journal (see checkpoint.hpp).  The journal must outlive the run.
  CheckpointJournal* journal = nullptr;
  /// Salt mixed into request fingerprints (campaign config hash).
  std::uint64_t fingerprint_salt = 0;
};

/// Evaluates all \p requests on \p threads threads, the caller's included
/// (0 = hardware concurrency; 1 runs inline and spawns no thread); results
/// are index-aligned with the requests.  A request that throws becomes a
/// degraded cell.  An exception that escapes a cell (Interrupted, a failed
/// journal append) skips the cells not yet started and is rethrown once
/// every thread has stopped.
[[nodiscard]] std::vector<EvalResult> run_requests(const platform::Platform& platform,
                                                   std::span<const RunRequest> requests,
                                                   std::size_t threads,
                                                   const RunPolicy& policy = {});

/// Writes one CSV row per (request, result): workflow, algorithm, budget,
/// tag, prediction, per-repetition aggregates, validity fractions and the
/// run status/error columns — the raw material external plotting scripts
/// consume.  Degraded cells render nan for sample statistics.
void write_results_csv(std::ostream& out, std::span<const RunRequest> requests,
                       std::span<const EvalResult> results);

/// \name Cooperative interruption
/// Signal handlers may only set a flag; install_interrupt_handlers() wires
/// SIGINT/SIGTERM to request_interrupt(), and the runner checks the flag
/// at every cell boundary, throwing Interrupted so campaigns stop with
/// their journal flushed instead of dying mid-write.
///@{
void install_interrupt_handlers();
void request_interrupt() noexcept;        ///< async-signal-safe
void clear_interrupt() noexcept;          ///< for tests / REPL reuse
[[nodiscard]] bool interrupt_requested() noexcept;
/// Throws Interrupted when the flag is set.
void throw_if_interrupted();
///@}

}  // namespace cloudwf::exp
