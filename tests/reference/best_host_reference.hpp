#pragma once

/// \file best_host_reference.hpp
/// \brief The paper's getBestHost (Algorithm 2) as a scan of every candidate.
///
/// The differential oracle of the availability-indexed sched::get_best_host:
/// every host of EftState::candidates() — each used VM, then one fresh slot
/// per category — is probed once and fed to the same BestHostScan.  It stays
/// deliberately naive; the indexed search must return its pick bit for bit.

#include <optional>
#include <span>

#include "common/error.hpp"
#include "common/units.hpp"
#include "sched/best_host.hpp"
#include "sched/eft.hpp"

namespace cloudwf::reference {

inline sched::BestHost get_best_host(const sched::EftState& state, dag::TaskId task,
                                     std::optional<Dollars> budget_cap) {
  const std::span<const sched::HostCandidate> hosts = state.candidates();
  CLOUDWF_ASSERT(!hosts.empty());
  sched::BestHostScan scan(budget_cap);
  for (const sched::HostCandidate& host : hosts) scan.consider(host, state.estimate(task, host));
  return scan.result();
}

}  // namespace cloudwf::reference
