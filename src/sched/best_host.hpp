#pragma once

/// \file best_host.hpp
/// \brief getBestHost (Algorithm 2): cheapest-feasible-fastest host choice.

#include <optional>

#include "sched/eft.hpp"

namespace cloudwf::obs {
class EventBus;
}  // namespace cloudwf::obs

namespace cloudwf::sched {

/// Outcome of one getBestHost call.
struct BestHost {
  HostCandidate host;
  PlacementEstimate estimate;
  /// True when the chosen host respects the budget cap (always true without
  /// a cap).  When no host is affordable the cheapest one is returned with
  /// affordable = false — the schedule must still complete; feasibility is
  /// judged at the end (the paper reports such runs as budget violations).
  bool affordable = true;
};

/// Streaming selection kernel behind getBestHost.  One scan object is fed
/// (host, estimate) pairs via consider() and yields the Algorithm-2 winner:
/// smallest EFT among hosts within the cap, with the overall-cheapest host
/// as the over-budget fallback.  Factored out so MIN-MIN's memoized rounds
/// and the fresh-estimate path share byte-identical tie-breaking.
class BestHostScan {
 public:
  explicit BestHostScan(std::optional<Dollars> budget_cap) : budget_cap_(budget_cap) {}

  void consider(const HostCandidate& host, const PlacementEstimate& estimate) {
    // Track the overall cheapest placement as the fallback.
    if (!have_cheapest_ || estimate.cost < cheapest_.estimate.cost ||
        (estimate.cost == cheapest_.estimate.cost &&
         better_placement(estimate, host, cheapest_.estimate, cheapest_.host))) {
      have_cheapest_ = true;
      cheapest_.host = host;
      cheapest_.estimate = estimate;
    }
    if (!within_cap(estimate)) return;
    if (!have_affordable_ || better_placement(estimate, host, best_.estimate, best_.host)) {
      have_affordable_ = true;
      best_.host = host;
      best_.estimate = estimate;
    }
  }

  /// True when \p estimate respects the cap (always without one).
  [[nodiscard]] bool within_cap(const PlacementEstimate& estimate) const {
    return !budget_cap_ || !(estimate.cost > *budget_cap_ + money_epsilon);
  }

  /// True once some considered host respects the cap.
  [[nodiscard]] bool has_affordable() const { return have_affordable_; }

  [[nodiscard]] BestHost result() const {
    if (have_affordable_) return BestHost{best_.host, best_.estimate, true};
    return BestHost{cheapest_.host, cheapest_.estimate, false};
  }

 private:
  struct Entry {
    HostCandidate host{};
    PlacementEstimate estimate{};
  };
  std::optional<Dollars> budget_cap_;
  Entry best_{};
  Entry cheapest_{};
  bool have_affordable_ = false;
  bool have_cheapest_ = false;
};

/// Selects the host with the smallest EFT among those whose cost ct(T,host)
/// stays within \p budget_cap (B_T + pot); without a cap, plain smallest
/// EFT (the baseline MIN-MIN/HEFT behaviour).  The result is the one a scan
/// of every candidate gives, bit for bit, but only the task's producer VMs,
/// the fresh slots and a few neighbours per category in the availability
/// index are probed (DESIGN.md Section 12); when none of those is
/// affordable, every candidate is, for the cheapest-host fallback.  With
/// the post-run check installed (CLOUDWF_CHECK=1) every call is audited
/// against the full scan and a mismatch throws InternalError.
[[nodiscard]] BestHost get_best_host(const EftState& state, dag::TaskId task,
                                     std::optional<Dollars> budget_cap);

/// Emits one sched_decision observability event for a committed placement:
/// the chosen VM, its category, fresh-vs-reuse, EFT, cost, the size of the
/// candidate set considered, and (when budget-aware) the cap and remaining
/// headroom.  Callers must gate on `bus.enabled()`; the detail string is
/// formatted into a stack buffer (no heap traffic) and is only valid for
/// the duration of the emit.  \p index is the 0-based decision number; it
/// becomes the event's timeline (scheduling precedes simulated time).
void emit_decision(obs::EventBus& bus, std::size_t index, const dag::Workflow& wf,
                   const platform::Platform& platform, dag::TaskId task, sim::VmId vm,
                   const BestHost& best, std::size_t candidate_count,
                   std::optional<Dollars> budget_cap);

}  // namespace cloudwf::sched
