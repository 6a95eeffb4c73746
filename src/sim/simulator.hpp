#pragma once

/// \file simulator.hpp
/// \brief Discrete-event execution of a static schedule (Section III-C).
///
/// The simulator plays the role SimGrid/SimDag played for the paper: given a
/// frozen workflow, a platform and a Schedule, it executes tasks with a
/// concrete WeightRealization and produces makespan, itemized cost and
/// per-task/per-VM records.
///
/// Execution semantics (DESIGN.md Section 1, "Discrete-event cloud
/// simulator"):
///  * A VM is booked when the first task of its list has all cross-VM inputs
///    uploaded to the datacenter; it boots for t_boot (uncharged), then bills
///    per second until its last computation/transfer ends.
///  * Tasks start in list order; a task starts when its VM is up, a processor
///    is free, its same-VM predecessors finished, and its cross-VM inputs
///    have been downloaded from the datacenter.
///  * Data moves VM -> DC -> VM.  Each VM serializes its uploads and its
///    downloads (one flow per direction at a time, rate bw); transfers
///    overlap computation.  Entry inputs wait at the DC from time zero;
///    exit outputs are uploaded back to the DC.
///  * With Platform::dc_aggregate_bandwidth() > 0, all active flows share
///    that capacity max-min fairly (the contention mode).
///
/// The same engine doubles as the deterministic predictor of Algorithm 5,
/// driven through a Predictor with dag::conservative_weights(wf).

#include <limits>
#include <memory>
#include <optional>

#include "dag/stochastic.hpp"
#include "dag/workflow.hpp"
#include "platform/platform.hpp"
#include "sim/faults.hpp"
#include "sim/result.hpp"
#include "sim/schedule.hpp"

namespace cloudwf::obs {
class EventBus;
}  // namespace cloudwf::obs

namespace cloudwf::sim {

/// Online re-scheduling policy (the paper's Section VI future work).
///
/// The scheduler only knows weight *distributions*; at execution time a task
/// whose draw landed deep in the tail can dominate the makespan.  With a
/// policy attached, the engine watches every running task: when its elapsed
/// compute time exceeds the timeout (mu + timeout_sigmas * sigma) / s_vm, the
/// task is interrupted (work lost) and restarted from scratch on a freshly
/// provisioned VM of the fastest category — re-staging its inputs through
/// the datacenter, including uploads of data that had been local to the old
/// VM.  Migration is skipped when the fastest category is not at least
/// min_speedup times faster than the current host, when the task has
/// exhausted max_restarts, or when the projected spend would not stay
/// strictly below budget_cap (projections are estimates, so a migration that
/// would consume the cap exactly leaves no headroom and is vetoed).
struct OnlinePolicy {
  double timeout_sigmas = 2.0;    ///< interrupt beyond mu + k*sigma worth of compute
  std::size_t max_restarts = 1;   ///< per-task restart bound
  double min_speedup = 1.2;       ///< required speed ratio fastest/current
  Dollars budget_cap = std::numeric_limits<Dollars>::infinity();  ///< spend guard
};

/// How one Simulator::run executes.  The default is the paper's static,
/// fault-free execution; the online policy and the fault layer are
/// exclusive.
struct RunOptions {
  std::optional<OnlinePolicy> online{};  ///< online re-scheduling when set
  FaultModel faults{};                   ///< injects nothing unless enabled()
  RecoveryPolicy recovery{};             ///< read only when faults are enabled

  /// Throws InvalidArgument on an out-of-range knob, or when online
  /// re-scheduling is combined with enabled faults.
  void validate() const;
};

/// Executes schedules for one (workflow, platform) pair.
///
/// A Simulator owns one engine arena, built by its first run and reset by
/// every later one, so repeated runs (the realizations of an evaluation)
/// neither rebuild nor reallocate the engine: once warm, a run of a plan it
/// has run before allocates only the returned SimResult.  The arena lives
/// exactly as long as the Simulator.  Its run method is const but shares
/// that arena, so a Simulator is not thread-safe: give each thread its own.
class Simulator {
 public:
  /// Both references must outlive the simulator.  When \p bus is non-null
  /// and has sinks attached, every run emits the full observability event
  /// stream (obs/events.hpp) through it; a null or sink-less bus costs one
  /// cached bool test per run (the <2% contract of bench/bench_obs.cpp).
  Simulator(const dag::Workflow& wf, const platform::Platform& platform,
            obs::EventBus* bus = nullptr);
  ~Simulator();
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  /// Runs \p schedule with concrete \p weights, as \p options says: default
  /// options are the plain static, fault-free execution.  Throws
  /// InvalidArgument on invalid options (RunOptions::validate()) and
  /// ValidationError if the schedule is malformed or deadlocks.  Never throws
  /// on injected faults: exhausted recovery marks tasks failed in the result.
  [[nodiscard]] SimResult run(const Schedule& schedule, const dag::WeightRealization& weights,
                              const RunOptions& options = {}) const;

  [[nodiscard]] const dag::Workflow& workflow() const { return wf_; }
  [[nodiscard]] const platform::Platform& platform() const { return platform_; }

 private:
  class Arena;

  const dag::Workflow& wf_;
  const platform::Platform& platform_;
  obs::EventBus* bus_;
  mutable std::unique_ptr<Arena> arena_;  // built by the first run
};

/// Makespan and total cost of one conservative run: what the refinement
/// loops compare.
struct Prediction {
  Seconds makespan = 0;
  Dollars cost = 0;
};

/// The deterministic predictor of the schedulers (Algorithm 5's simulate()):
/// Simulator::run() of a base schedule with dag::conservative_weights(), in
/// full (run()) or with one Move applied (a probe: makespan and cost only,
/// without copying the schedule or building a SimResult).  Every scheduler's
/// final prediction, CG's minimum cost and the refinement loops use it.
///
/// One Predictor serves one scheduling call and is not thread-safe.  It
/// computes the conservative weights once and keeps one engine arena that
/// every run resets, so a probe allocates nothing once the first has run.
/// A probe applies its move as a delta to the predictor's own copy of the
/// plan and reverts it afterwards; it equals the run of the moved plan bit
/// for bit.  A probe with a cutoff first evaluates a static lower bound on
/// the makespan and skips the simulation when the bound already reaches the
/// cutoff.  While a post-run hook is installed (CLOUDWF_CHECK=1), run() and
/// every probe hand the run plan and its full SimResult to the hook.
class Predictor {
 public:
  /// Both references must outlive the predictor; \p wf must be frozen.
  /// Probes apply their move to a copy of \p base (see rebase()).
  Predictor(const dag::Workflow& wf, const platform::Platform& platform, const Schedule& base);
  ~Predictor();
  Predictor(const Predictor&) = delete;
  Predictor& operator=(const Predictor&) = delete;

  /// Makes a copy of \p schedule the base of later probes (after the caller
  /// applied a move); validates it (ValidationError) like a run would.
  void rebase(const Schedule& schedule);

  /// The full conservative run of the base schedule.
  [[nodiscard]] SimResult run();

  /// Prediction of the base schedule with \p move applied (the move must be
  /// valid for the base: see Move), or nullopt without simulating when
  /// lower_bound(move) proves the makespan is not below \p cutoff (pass
  /// +infinity to always simulate).  Throws ValidationError if the move puts
  /// a task before its same-VM predecessor, like Simulator::run() would.  The
  /// refinement loops pass the makespan a move must beat.  While a post-run
  /// hook is installed every probe is simulated anyway, and a makespan below
  /// the bound throws InternalError.
  [[nodiscard]] std::optional<Prediction> predict(const Move& move, Seconds cutoff);

  /// Static lower bound on the makespan of predict(move, cutoff) (DESIGN.md §12, "Makespan
  /// lower bound"); nullopt when the moved plan deadlocks.  Validates the
  /// move like predict().
  [[nodiscard]] std::optional<Seconds> lower_bound(const Move& move);

 private:
  class Engine;
  std::unique_ptr<Engine> engine_;
};

/// Extracts the schedule's critical path from a SimResult: the chain of
/// bound_by links ending at the task that finished last (earliest first).
[[nodiscard]] std::vector<dag::TaskId> schedule_critical_path(const SimResult& result);

/// \name Post-run invariant hook
/// A process-wide hook invoked after every Simulator::run() with the executed
/// schedule and its result.  check::install_auto_check() points it at the
/// invariant checker (the CLOUDWF_CHECK=1 path); sim itself never depends on
/// the checker.  The hook may throw (e.g. InternalError on a violation) —
/// the exception propagates out of the run call.  Null by default: a
/// disabled hook costs one relaxed atomic load per run.
///@{
using PostRunCheck = void (*)(const dag::Workflow&, const platform::Platform&,
                              const Schedule&, const SimResult&);
void set_post_run_check(PostRunCheck hook) noexcept;
[[nodiscard]] PostRunCheck post_run_check() noexcept;
///@}

}  // namespace cloudwf::sim
