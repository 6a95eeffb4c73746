#pragma once

/// \file faults.hpp
/// \brief Fault injection and budget-aware recovery (DESIGN.md "Fault model
/// & recovery").
///
/// The paper's execution model assumes VMs and datacenter transfers never
/// fail; real IaaS platforms misbehave in three well-documented ways, all of
/// which this module can inject on purpose:
///
///  * **Boot failures** — a provisioning request fails with probability
///    `p_boot_fail`; the engine re-provisions after `acquisition_delay`
///    seconds (Gajbhiye & Singh treat acquisition delay and failure as
///    first-class scheduling inputs).
///  * **VM crashes** — a running VM dies following a Poisson process with
///    rate `lambda_crash` per billed hour.  All running and queued tasks on
///    the VM are lost; seconds already billed stay billed.
///  * **Transfer failures** — each VM<->datacenter flow fails with
///    probability `p_transfer_fail` (detected at the end of the flow, so the
///    link time is wasted) and is retried with exponential backoff.
///
/// All draws come from dedicated child streams of a seeded common/rng
/// generator, consumed in deterministic event order, so a faulty execution
/// is exactly as reproducible as a fault-free one: identical
/// (schedule, weights, FaultModel) inputs give bit-identical SimResults
/// at any thread count of exp::run_requests.
///
/// Recovery is governed by RecoveryPolicy, which generalizes the spend-guard
/// idea of sim::OnlinePolicy: bounded retries everywhere, and a per-workflow
/// `budget_cap` that switches the engine to graceful degradation (finish on
/// already-paid VMs, provision nothing new) once the projected recovery
/// spend would reach the cap.  When retries are exhausted a task becomes a
/// terminal `failed` outcome instead of throwing — partial results are
/// results, and schedulers are compared by how gracefully they degrade.

#include <cstdint>
#include <limits>

#include "common/rng.hpp"
#include "common/units.hpp"

namespace cloudwf::sim {

/// Injection knobs; all zero (the default) disables the fault layer and the
/// engine behaves bit-identically to the fault-free simulator.
struct FaultModel {
  /// Probability that one VM boot attempt fails.
  double p_boot_fail = 0.0;
  /// Delay before a failed boot attempt is retried (the IaaS acquisition
  /// delay of a replacement request).
  Seconds acquisition_delay = 60.0;
  /// Expected VM crashes per billed hour of uptime (Poisson process).
  double lambda_crash = 0.0;
  /// Probability that one data flow (upload or download) fails.
  double p_transfer_fail = 0.0;
  /// Seed of the fault streams; independent from the weight-realization
  /// seed so fault scenarios can be varied without changing the draws.
  std::uint64_t seed = 0xFA177ULL;

  /// True when any injection knob is active.
  [[nodiscard]] bool enabled() const {
    return p_boot_fail > 0 || lambda_crash > 0 || p_transfer_fail > 0;
  }

  /// Derived copy with a per-repetition fault stream (evaluate/runner use
  /// this so every stochastic repetition sees independent faults while
  /// remaining reproducible and thread-count-independent).
  [[nodiscard]] FaultModel for_repetition(std::uint64_t repetition) const {
    FaultModel copy = *this;
    std::uint64_t state = seed ^ (0x9E3779B97F4A7C15ULL * (repetition + 1));
    copy.seed = splitmix64(state);
    return copy;
  }

  /// Throws InvalidArgument when probabilities/rates are out of range.
  void validate() const;
};

/// Bounded-recovery knobs; the counterpart of OnlinePolicy for injected
/// faults.
struct RecoveryPolicy {
  /// Boot attempts per VM provisioning (first try included); when exhausted
  /// the VM is abandoned and its tasks move to surviving VMs or fail.
  std::size_t max_boot_attempts = 3;
  /// Crash-induced re-executions tolerated per task before it fails.
  std::size_t max_task_retries = 2;
  /// Re-sends per transfer before the consumer task fails.
  std::size_t max_transfer_retries = 3;
  /// Backoff before retry n of a transfer: base * 2^(n-1) seconds.
  Seconds transfer_backoff_base = 1.0;
  /// Recovery spend guard: a replacement VM is provisioned only while the
  /// projected total VM spend stays strictly below the cap; past it the
  /// engine degrades gracefully (re-packs work onto already-paid VMs).
  Dollars budget_cap = std::numeric_limits<Dollars>::infinity();

  /// Throws InvalidArgument on nonsensical bounds.
  void validate() const;
};

/// Failure and recovery accounting of one simulated execution.
struct FaultStats {
  std::size_t boot_failures = 0;      ///< failed boot attempts (all VMs)
  std::size_t crashes = 0;            ///< VM crashes that hit live work
  std::size_t transfer_failures = 0;  ///< failed flow attempts (retried or not)
  std::size_t transfer_aborts = 0;    ///< transfers whose retries ran out
  std::size_t task_reexecutions = 0;  ///< crash-induced task restarts
  std::size_t failed_tasks = 0;       ///< terminal failures (never completed,
                                      ///< or final output lost)
  Seconds wasted_compute = 0;         ///< compute seconds lost to interrupts
  Dollars recovery_cost = 0;          ///< spend on replacement VMs (Eq. 1)
  bool degraded = false;              ///< budget cap vetoed a replacement VM
};

/// Deterministic source of all fault draws inside one execution.
///
/// Each fault class owns a forked child stream so that, e.g., raising
/// p_transfer_fail never perturbs the crash times — scenario sweeps stay
/// comparable draw-for-draw.
class FaultInjector {
 public:
  explicit FaultInjector(const FaultModel& model);

  /// One draw per boot attempt.
  [[nodiscard]] bool boot_fails();
  /// Billed-uptime seconds until the next crash of a freshly booted VM;
  /// +inf when lambda_crash is zero (no draw consumed).
  [[nodiscard]] Seconds crash_after();
  /// One draw per completed flow attempt.
  [[nodiscard]] bool transfer_fails();

  [[nodiscard]] const FaultModel& model() const { return model_; }

 private:
  FaultModel model_;
  Rng boot_rng_;
  Rng crash_rng_;
  Rng transfer_rng_;
};

}  // namespace cloudwf::sim
