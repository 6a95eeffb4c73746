#pragma once

/// \file heft.hpp
/// \brief HEFT and its budget-aware extension HEFTBUDG (Algorithm 4).
///
/// Tasks are processed by non-increasing bottom level (HEFT's upward rank,
/// computed with conservative weights, mean category speed and the
/// VM<->datacenter bandwidth); each is placed by getBestHost.  HEFTBUDG
/// additionally enforces the per-task budget shares of Algorithm 1, with
/// leftovers accumulating in the pot.
///
/// The schedule's per-VM order uses the rank as priority, so refinement
/// moves (HEFTBUDG+) keep each VM list in rank order.

#include "sched/scheduler.hpp"

namespace cloudwf::sched {

/// Ablation knobs of HEFTBUDG's design decisions (DESIGN.md Section 3).
/// Defaults reproduce the paper's algorithm; each knob disables one
/// ingredient so the `ext_ablation` bench can quantify its contribution.
struct HeftBudgOptions {
  /// Leftover budget (B_T - ct) flows into the shared pot (paper) instead
  /// of being discarded.
  bool share_pot = true;
  /// Reserve the datacenter + n-setups slice before dividing (Algorithm 1);
  /// off: divide the raw budget across tasks.
  bool reserve_budget = true;
  // (The third ingredient — planning with mu + sigma instead of mu — is
  // ablated without a knob: schedule a zero-sigma copy of the workflow,
  // execute the schedule on the original; see bench/ext_ablation.cpp.)
};

/// HEFT (budget-unaware) or HEFTBUDG (budget-aware).
class HeftScheduler final : public Scheduler {
 public:
  explicit HeftScheduler(bool budget_aware, HeftBudgOptions options = {})
      : budget_aware_(budget_aware), options_(options) {}

  [[nodiscard]] std::string_view name() const override {
    return budget_aware_ ? "heft-budg" : "heft";
  }

  [[nodiscard]] SchedulerOutput schedule(const SchedulerInput& input) const override;

  /// Core list pass shared with HEFTBUDG+: returns the (uncompacted)
  /// schedule and the rank-ordered task list.
  [[nodiscard]] static sim::Schedule run_list_pass(const SchedulerInput& input, bool budget_aware,
                                                   std::vector<dag::TaskId>& list_out,
                                                   const HeftBudgOptions& options = {});

 private:
  bool budget_aware_;
  HeftBudgOptions options_;
};

}  // namespace cloudwf::sched
