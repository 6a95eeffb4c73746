#pragma once

/// \file eft.hpp
/// \brief Incremental Earliest-Finish-Time estimation (Algorithm 2).
///
/// EftState mirrors the paper's planning equations while a list scheduler
/// builds its schedule task by task:
///
///   t_Exec(T,h) = delta_new * t_boot + (mu_T + sigma_T)/s_h + d_in(T,h)/bw   (Eq. 7)
///   t_begin(T,h) = max(avail(h), max over cross-host inputs of their
///                      at-DC time)
///   EFT(T,h)    = t_begin + t_Exec
///
/// d_in counts only data not already on the host (outputs of tasks that ran
/// there), plus external inputs.  The cost conservatively charges uploading
/// every output of T to the datacenter — the paper's "pessimistic estimation
/// of the cost of data transfers".  For timing, per-edge uploads proceed in
/// parallel at bw (at-DC time of edge e is finish(producer) + bytes(e)/bw).
///
/// Cost refinement over the paper's ct = t_Exec * c_h: VMs bill by elapsed
/// time (Eq. 1), so a reused host is also billed for the idle gap while it
/// waits for T's inputs, and a fresh host's uncharged boot must NOT be
/// billed.  We therefore charge the true *marginal billed time*:
///
///   ct(T,h) = (EFT - avail(h) + upload(T)/bw) * c_h        (reused host)
///   ct(T,h) = (t_Exec - t_boot + upload(T)/bw) * c_h        (fresh host)
///
/// Without this, schedules systematically overrun the budget under Eq. (1)
/// billing, losing the paper's headline "budget respected" property.
///
/// ## Incremental fast path (DESIGN.md Section 12)
///
/// A 1000-task CyberShake provisions ~400 VMs, so a full scan of the
/// candidates costs ~280k placement probes per list pass (MIN-MIN, which
/// re-probes its ready set, several times more).  Three invariants of list
/// scheduling make each probe O(1) instead of O(in-degree):
///
///  * A task is only probed once all its predecessors are committed, and a
///    committed placement never changes during a pass.  The per-task input
///    aggregate (total input bytes, max at-DC time, the set of producer VMs)
///    is therefore computed once, lazily, and never invalidated.
///  * Summation order is preserved bit-exactly: the aggregate accumulates
///    external input + in-edge bytes in edge order — the exact sum the naive
///    per-edge walk produces when no input is local to the probed host (the
///    overwhelmingly common case).  Probing a host that *does* hold a
///    producer falls back to the per-edge walk, so every estimate is
///    bit-identical to the non-incremental implementation.
///  * VMs are only ever added (commit on a fresh host) and never emptied, so
///    the candidate set is maintained incrementally: used VMs in ascending
///    id order followed by one fresh slot per category.  candidates() is an
///    allocation-free span lookup.
///
/// ## Availability index (DESIGN.md Section 12)
///
/// The paper's getBestHost probes every used VM for every task.  EftState
/// therefore also keeps, per category, the used VMs ordered by (planned
/// availability, id).  On a used VM that holds none of the task's producers,
/// EFT does not decrease and cost does not increase as availability grows,
/// so get_best_host finds the exact Algorithm-2 winner among a handful of
/// index neighbours per category.
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "common/units.hpp"
#include "dag/workflow.hpp"
#include "platform/platform.hpp"
#include "sim/schedule.hpp"

namespace cloudwf::sched {

/// A placement candidate: an already-used VM or a fresh one of a category.
struct HostCandidate {
  sim::VmId vm = sim::invalid_vm;      ///< valid when !fresh
  platform::CategoryId category = 0;   ///< category of the (fresh or used) VM
  bool fresh = false;
};

/// Predicted metrics of running one task next on one host.
struct PlacementEstimate {
  Seconds begin = 0;   ///< t_begin
  Seconds exec = 0;    ///< t_Exec
  Seconds eft = 0;     ///< begin + exec
  Seconds upload = 0;  ///< conservative output-upload duration
  Dollars cost = 0;    ///< ct(T, host)
};

/// Deterministic "better host" ordering used by every list scheduler:
/// smaller EFT first, then cheaper, then used-before-fresh, then smaller
/// vm/category id.  Returns true when `a` beats `b`.
[[nodiscard]] bool better_placement(const PlacementEstimate& a, const HostCandidate& ha,
                                    const PlacementEstimate& b, const HostCandidate& hb);

/// One entry of EftState's availability index: a used VM and its planned
/// availability.  Entries are ordered by (avail, vm).
struct AvailableVm {
  Seconds avail = 0;
  sim::VmId vm = sim::invalid_vm;
};

/// The terms estimate() shares across every used VM of one category that
/// holds none of the task's producers.  On such a VM with availability a,
///   eft  = max(a, ready) + exec
///   cost = (eft - a + upload) * price
/// evaluated in exactly that order.
struct ReuseTerms {
  Seconds ready = 0;   ///< every input of the task is at the DC
  Seconds exec = 0;    ///< t_Exec on the category: no boot, no local data
  Seconds upload = 0;  ///< conservative output-upload duration
  Dollars price = 0;   ///< price per second of the category
};

/// A lower bound on the cost estimate() computes for any such VM whose
/// availability a satisfies terms.ready < a <= max_avail, i.e. a VM that
/// begins the task at its own availability.  There eft - a equals exec only
/// up to the rounding of a + exec, which grows with a; the bound subtracts
/// that rounding, plus a relative margin for every other rounding step.
[[nodiscard]] Dollars reuse_cost_lower_bound(const ReuseTerms& terms, Seconds max_avail);

/// Total placement probes (estimate() calls) issued on this thread since
/// process start.  Monotone; bench_sched reads deltas around one plan call
/// to report probes/sec.
[[nodiscard]] std::size_t probe_count();

/// Mutable planning state of one list-scheduling run.  One EftState drives
/// one Schedule: every VM of that schedule must be provisioned through
/// commit() (all kernels start from an empty schedule).
class EftState {
 public:
  EftState(const dag::Workflow& wf, const platform::Platform& platform);

  /// Host candidates per the paper: every VM already holding a task, plus
  /// one fresh VM of each category.  The span is invalidated by commit().
  [[nodiscard]] std::span<const HostCandidate> candidates() const { return hosts_; }

  /// Number of used (committed-to) VMs, = candidates().size() minus the
  /// fresh slots.
  [[nodiscard]] std::size_t used_host_count() const { return used_hosts_; }

  /// The candidate of a used VM.  Used VMs head candidates() in id order,
  /// and every VM is provisioned by commit(), so VM v is candidates()[v].
  [[nodiscard]] const HostCandidate& used_host(sim::VmId vm) const;

  /// Used VMs of \p category ordered by (planned availability, id).  Built
  /// on the first call, so kernels that never search it pay nothing; kept
  /// sorted by commit() from then on.  The span is invalidated by commit().
  [[nodiscard]] std::span<const AvailableVm> used_by_availability(
      platform::CategoryId category) const;

  /// The distinct VMs that run a predecessor of \p task.  All predecessors
  /// must already be committed.
  [[nodiscard]] std::span<const sim::VmId> producer_vms(dag::TaskId task) const;

  /// The terms estimate() uses for \p task on any used VM of \p category
  /// that holds none of its producers.  All predecessors must be committed.
  [[nodiscard]] ReuseTerms reuse_terms(dag::TaskId task, platform::CategoryId category) const;

  /// Estimates placing \p task next on \p host.  All predecessors of the
  /// task must already be committed.
  [[nodiscard]] PlacementEstimate estimate(dag::TaskId task, const HostCandidate& host) const;

  /// Commits the placement, provisioning a fresh VM in \p schedule when
  /// needed; returns the VM id used.  Invalidates candidates() spans.  The
  /// host is taken by value: callers pass elements of candidates(), which
  /// the commit itself reallocates.
  sim::VmId commit(dag::TaskId task, HostCandidate host, const PlacementEstimate& estimate,
                   sim::Schedule& schedule);

  /// Planned finish time of a committed task.
  [[nodiscard]] Seconds finish_time(dag::TaskId task) const;
  /// Planned at-DC availability of a committed task's edge data.
  [[nodiscard]] Seconds at_dc_time(dag::EdgeId edge) const;
  /// Earliest time the cross-host inputs of \p task are at the DC, assuming
  /// its producers are committed (BDT's EST ordering).
  [[nodiscard]] Seconds ready_at_dc(dag::TaskId task) const;
  /// Max planned finish over committed tasks.
  [[nodiscard]] Seconds planned_makespan() const { return planned_makespan_; }
  /// Planned availability (end of last committed task) of a provisioned VM.
  [[nodiscard]] Seconds vm_available(sim::VmId vm) const;

 private:
  /// Lazily-built per-task input aggregate (see the fast-path notes above).
  struct TaskInputs {
    bool ready = false;
    Bytes d_in_all = 0;       ///< ext input + every in-edge, edge order
    Seconds at_dc_all = 0;    ///< max at-DC over all in-edges
    std::uint32_t producers_first = 0;  ///< slice of producer_vms_
    std::uint32_t producers_count = 0;
  };

  [[nodiscard]] const TaskInputs& task_inputs(dag::TaskId task) const;
  [[nodiscard]] bool hosts_producer(const TaskInputs& inputs, sim::VmId vm) const;
  /// Moves used VM \p vm to availability \p avail in the index, or inserts
  /// it when \p fresh.  No-op until the index is built.
  void reindex(sim::VmId vm, Seconds avail, bool fresh);

  const dag::Workflow& wf_;
  const platform::Platform& platform_;
  std::vector<Seconds> finish_;     // per task; -1 when not committed
  std::vector<Seconds> at_dc_;      // per edge; meaningful once producer committed
  std::vector<Seconds> avail_;      // per provisioned VM
  std::vector<sim::VmId> vm_of_;    // per task; commit() mirror of the schedule
  std::vector<Seconds> upload_;     // per task; precomputed output-upload time
  std::vector<HostCandidate> hosts_;  // used VMs (ascending id), then fresh slots
  std::size_t used_hosts_ = 0;
  mutable std::vector<TaskInputs> inputs_;      // lazy aggregates
  mutable std::vector<sim::VmId> producer_vms_; // arena backing TaskInputs slices
  mutable std::vector<std::vector<AvailableVm>> by_avail_;  // per category; empty until built
  Seconds planned_makespan_ = 0;
};

}  // namespace cloudwf::sched
