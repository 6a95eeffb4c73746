#pragma once

/// \file invariants.hpp
/// \brief Domain invariant checker for simulated executions (DESIGN.md §11).
///
/// The paper's claims rest on exact accounting identities; the checker
/// re-derives each from first principles and compares against what the
/// engine reported:
///
///  * record_range — every task/VM record is structurally sane (finite
///    fields, category and VM ids in range, start <= finish).
///  * precedence — no task starts before every predecessor finished; on
///    clean runs cross-VM edges additionally pay the two-hop VM -> DC -> VM
///    transfer lower bound at Platform::bandwidth() (Section III-B).
///  * slot_overlap — at no instant does a VM run more tasks than its
///    category has processors (n_k of Table II).
///  * boot_order — tasks execute inside their VM's billed window
///    [boot_done, end]; a billed boot takes at least t_boot.
///  * makespan_identity — Eq. (3): makespan = H_end,last - H_start,first,
///    with the endpoints matching the billed VM records and used_vms
///    counting exactly the billed VMs.
///  * cost_conservation — Eq. (1): per-VM costs recomputed from the billed
///    intervals (rate * duration + setup, billing-quantum rounded) must
///    equal the accounted vm_time/vm_setup within an ulp-scaled tolerance;
///    Eq. (2): dc_transfer from the workflow's external bytes always, and
///    dc_time from the placement-derived footprint on clean runs.
///  * transfer_conservation — on clean runs the engine's transfer
///    statistics equal the bytes the placement forces through the
///    datacenter: 2x each cross-VM edge (upload + download) plus external
///    inputs and outputs; zero-byte edges move no data.
///  * budget_cap — with CheckOptions::budget > 0 the accounted total must
///    not exceed it (the BUDG schedulers' contract on the deterministic
///    conservative prediction).
///  * event_order — check_events(): engine event timestamps are globally
///    non-decreasing (the EventSink contract), except for a single rewind
///    into the finalize epilogue — a time-sorted trailing run of
///    billing_tick / vm_shutdown events capped by the run's last timestamp;
///    sched_decision events ride their own monotone decision-index timeline.
///
/// "Clean run" means no faults, no migrations, no failed tasks and no
/// multi-attempt boots: fault recovery and online migration legitimately
/// re-stage data and re-provision VMs, making footprint and byte counts
/// path-dependent, so those checks relax automatically.

#include <span>

#include "check/violation.hpp"
#include "common/units.hpp"
#include "dag/workflow.hpp"
#include "obs/events.hpp"
#include "platform/platform.hpp"
#include "sim/result.hpp"
#include "sim/schedule.hpp"

namespace cloudwf::check {

/// Tunables for one checker invocation.
struct CheckOptions {
  /// Budget cap to enforce on the accounted total cost; <= 0 disables the
  /// budget_cap check (stochastic realizations may legitimately overrun —
  /// the cap applies to the conservative prediction of the BUDG schedulers).
  Dollars budget = 0;
};

/// Validates SimResults (and optionally the Schedule they executed) for one
/// (workflow, platform) pair.  Both references must outlive the checker.
class InvariantChecker {
 public:
  InvariantChecker(const dag::Workflow& wf, const platform::Platform& platform);

  /// Checks \p result against every applicable invariant.
  [[nodiscard]] CheckReport check(const sim::SimResult& result,
                                  const CheckOptions& options = {}) const;

  /// Additionally validates \p schedule structurally and cross-checks the
  /// result against it: task placements match and, on clean runs, each VM
  /// starts its tasks in list order.
  [[nodiscard]] CheckReport check(const sim::Schedule& schedule, const sim::SimResult& result,
                                  const CheckOptions& options = {}) const;

 private:
  const dag::Workflow& wf_;
  const platform::Platform& platform_;
};

/// Validates the event stream contract (event_order): engine timestamps
/// globally non-decreasing, sched_decision on its own monotone index
/// timeline, durations non-negative, task finishes preceded by starts.
[[nodiscard]] CheckReport check_events(std::span<const obs::Event> events);

/// Ulp-scaled money equality used by the cost_conservation checks.
[[nodiscard]] bool money_close(Dollars a, Dollars b, double ulps = 256);

}  // namespace cloudwf::check
