#include "sched/best_host.hpp"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstdio>
#include <ostream>
#include <sstream>
#include <string_view>

#include "common/error.hpp"
#include "obs/event_bus.hpp"
#include "sim/simulator.hpp"

namespace cloudwf::sched {

namespace {

/// The paper's getBestHost: every candidate probed.  The fallback when no
/// indexed candidate is affordable, and the oracle of the checked mode.
BestHost scan_all(const EftState& state, dag::TaskId task, std::optional<Dollars> budget_cap) {
  BestHostScan scan(budget_cap);
  for (const HostCandidate& host : state.candidates())
    scan.consider(host, state.estimate(task, host));
  return scan.result();
}

/// Feeds \p scan the used VMs of \p category that can win among those
/// holding none of the task's producers (DESIGN.md Section 12).  Such a VM
/// with availability a has eft = max(a, ready) + exec, so:
///  * a <= ready (group A): every eft is the same and cost does not grow
///    with a, so the winners are the top entries, down through cost ties;
///  * a > ready (group B): eft does not shrink with a, so the winner is the
///    first affordable entry, up through eft ties.
void consider_category(const EftState& state, dag::TaskId task, platform::CategoryId category,
                       std::span<const sim::VmId> producers, std::optional<Dollars> budget_cap,
                       BestHostScan& scan) {
  const std::span<const AvailableVm> index = state.used_by_availability(category);
  if (index.empty()) return;
  const ReuseTerms terms = state.reuse_terms(task, category);
  const auto is_producer = [&](sim::VmId vm) {
    return std::find(producers.begin(), producers.end(), vm) != producers.end();
  };
  const auto split = std::upper_bound(
      index.begin(), index.end(), terms.ready,
      [](Seconds ready, const AvailableVm& entry) { return ready < entry.avail; });

  std::optional<Dollars> top_cost;
  for (auto it = split; it != index.begin();) {
    --it;
    if (is_producer(it->vm)) continue;
    const HostCandidate host{it->vm, category, false};
    const PlacementEstimate estimate = state.estimate(task, host);
    if (top_cost && estimate.cost != *top_cost) break;
    top_cost = estimate.cost;
    scan.consider(host, estimate);
  }

  if (split == index.end()) return;
  if (budget_cap && reuse_cost_lower_bound(terms, index.back().avail) > *budget_cap + money_epsilon)
    return;  // no VM of group B is affordable
  std::optional<Seconds> first_eft;
  for (auto it = split; it != index.end(); ++it) {
    if (is_producer(it->vm)) continue;
    const HostCandidate host{it->vm, category, false};
    const PlacementEstimate estimate = state.estimate(task, host);
    if (first_eft && estimate.eft != *first_eft) break;
    if (!first_eft && scan.within_cap(estimate)) first_eft = estimate.eft;
    scan.consider(host, estimate);
  }
}

bool same_bits(const PlacementEstimate& a, const PlacementEstimate& b) {
  const auto bits = [](Seconds x) { return std::bit_cast<std::uint64_t>(x); };
  return bits(a.begin) == bits(b.begin) && bits(a.exec) == bits(b.exec) &&
         bits(a.eft) == bits(b.eft) && bits(a.upload) == bits(b.upload) &&
         bits(a.cost) == bits(b.cost);
}

std::ostream& operator<<(std::ostream& os, const BestHost& best) {
  if (best.host.fresh)
    os << "fresh VM of category " << best.host.category;
  else
    os << "VM " << best.host.vm << " (category " << best.host.category << ")";
  return os << " with eft " << best.estimate.eft << ", cost " << best.estimate.cost
            << (best.affordable ? "" : ", over the cap");
}

/// Checked mode: throws InternalError unless \p best is the full scan's pick.
void audit(const EftState& state, dag::TaskId task, std::optional<Dollars> budget_cap,
           const BestHost& best) {
  const BestHost full = scan_all(state, task, budget_cap);
  if (full.host.fresh == best.host.fresh && full.host.vm == best.host.vm &&
      full.host.category == best.host.category && full.affordable == best.affordable &&
      same_bits(full.estimate, best.estimate))
    return;
  std::ostringstream os;
  os.precision(17);
  os << "getBestHost: task " << task << " picked " << best << " from the availability index, but "
     << full << " from the full scan";
  throw InternalError(os.str());
}

}  // namespace

BestHost get_best_host(const EftState& state, dag::TaskId task,
                       std::optional<Dollars> budget_cap) {
  // The index probes a fresh slot and a neighbour or two per category, plus
  // the producers.  With up to three used VMs per category that is about as
  // many probes as the full scan, which skips the index bookkeeping and
  // measured faster there (DESIGN.md Section 12).
  constexpr std::size_t scan_up_to_per_category = 3;
  const std::span<const HostCandidate> fresh = state.candidates().subspan(state.used_host_count());
  if (state.used_host_count() <= scan_up_to_per_category * fresh.size())
    return scan_all(state, task, budget_cap);

  BestHostScan scan(budget_cap);
  const std::span<const sim::VmId> producers = state.producer_vms(task);
  for (const sim::VmId vm : producers) {
    const HostCandidate& host = state.used_host(vm);
    scan.consider(host, state.estimate(task, host));
  }
  for (const HostCandidate& host : fresh) {
    scan.consider(host, state.estimate(task, host));
    consider_category(state, task, host.category, producers, budget_cap, scan);
  }
  // The cheapest-host fallback needs every cost.
  if (!scan.has_affordable()) return scan_all(state, task, budget_cap);
  const BestHost best = scan.result();
  if (sim::post_run_check() != nullptr) audit(state, task, budget_cap, best);
  return best;
}

namespace {

/// Bounded formatter for the sched_decision detail string.  Appends into a
/// fixed stack buffer, truncating on overflow — a truncated trace detail
/// beats an ostringstream allocation per placement (bench_obs measured that
/// at 27% of the enabled-path cost).  `%g` matches the default iostream
/// double formatting the previous implementation produced.
class DetailBuffer {
 public:
  template <typename... Args>
  void append(const char* format, Args... args) {
    if (len_ + 1 >= sizeof(buf_)) return;
    const int n = std::snprintf(&buf_[len_], sizeof(buf_) - len_, format, args...);
    if (n > 0) len_ = std::min(len_ + static_cast<std::size_t>(n), sizeof(buf_) - 1);
  }
  [[nodiscard]] std::string_view view() const { return {&buf_[0], len_}; }

 private:
  char buf_[192] = {};
  std::size_t len_ = 0;
};

}  // namespace

void emit_decision(obs::EventBus& bus, std::size_t index, const dag::Workflow& wf,
                   const platform::Platform& platform, dag::TaskId task, sim::VmId vm,
                   const BestHost& best, std::size_t candidate_count,
                   std::optional<Dollars> budget_cap) {
  DetailBuffer detail;
  detail.append("cat=%s %s candidates=%zu cost=%g",
                platform.category(best.host.category).name.c_str(),
                best.host.fresh ? "fresh" : "reuse", candidate_count, best.estimate.cost);
  if (budget_cap) {
    detail.append(" cap=%g", *budget_cap);
    if (!best.affordable) detail.append(" over-cap");
  }
  bus.emit({.kind = obs::EventKind::sched_decision,
            .time = static_cast<Seconds>(index),
            .vm = static_cast<std::int64_t>(vm),
            .task = static_cast<std::int64_t>(task),
            .name = wf.task(task).name,
            .detail = detail.view(),
            // Remaining headroom of this decision's share (negative when the
            // cheapest fallback blew through the cap).
            .value = budget_cap ? *budget_cap - best.estimate.cost : 0.0,
            .duration = best.estimate.eft});
}

}  // namespace cloudwf::sched
