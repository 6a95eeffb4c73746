#pragma once

/// \file fluid.hpp
/// \brief Fluid (flow-level) transfer model with optional shared capacity.
///
/// Every VM<->datacenter transfer is a flow.  In the paper's base model the
/// datacenter accommodates all requests simultaneously, so each flow runs at
/// the per-link bandwidth `bw`.  The contention mode adds a finite aggregate
/// datacenter capacity C shared max–min fairly: because all flows have the
/// same cap bw, water-filling collapses to rate = min(bw, C / n_active).
/// Rates are recomputed whenever the active-flow set changes, which is the
/// standard progressive-filling fluid approximation SimGrid uses — and what
/// lets us reproduce the paper's LIGO budget-overrun anomaly (Section V-B).

#include <cstdint>
#include <limits>
#include <vector>

#include "common/units.hpp"

namespace cloudwf::sim {

/// Handle of a flow inside a FluidNetwork.
using FlowId = std::uint32_t;

/// Sentinel for "no flow".
inline constexpr FlowId invalid_flow = std::numeric_limits<FlowId>::max();

/// Event-driven fluid network: flows progress at a common rate that depends
/// on how many are active.
///
/// The active flows form a dense table in start order (ids, remaining and
/// total bytes in parallel arrays), and the smallest remaining value is
/// cached, so next_completion() is O(1) and advance() scans for completions
/// only when the cached minimum is within the completion tolerance
/// (DESIGN.md §12, "Dense flow table").
class FluidNetwork {
 public:
  /// \p per_flow_cap is the VM link bandwidth; \p aggregate_capacity is the
  /// shared datacenter capacity (0 = unlimited, the paper's base model).
  FluidNetwork(BytesPerSec per_flow_cap, BytesPerSec aggregate_capacity);

  /// Starts a flow of \p bytes at time \p now; returns its id.  Ids count
  /// up from zero after construction or reset().
  /// Zero-byte flows complete immediately (reported by the next advance()).
  FlowId start_flow(Bytes bytes, Seconds now);

  /// Advances all flows to \p now (now must not exceed next_completion())
  /// and returns the flows that completed at \p now, in start order.  The
  /// list is a member buffer, valid until the next advance() or reset().
  [[nodiscard]] const std::vector<FlowId>& advance(Seconds now);

  /// Forgets every flow and rewinds the clock to zero, keeping the storage
  /// (a reused simulation arena starts each run from here).
  void reset();

  /// Pre-sizes storage for \p flows simultaneously active flows.
  void reserve(std::size_t flows);

  /// Time at which the earliest active flow completes; +inf when idle.
  [[nodiscard]] Seconds next_completion() const;

  [[nodiscard]] std::size_t active_count() const { return ids_.size(); }
  /// Current per-flow rate (bytes/s); equals the cap when uncontended.
  [[nodiscard]] BytesPerSec current_rate() const;
  /// Total bytes carried by completed flows.
  [[nodiscard]] Bytes completed_bytes() const { return completed_bytes_; }
  /// Largest active-flow count ever observed (contention diagnostics).
  [[nodiscard]] std::size_t peak_active() const { return peak_active_; }

 private:
  void progress_to(Seconds now);

  BytesPerSec cap_;
  BytesPerSec aggregate_;  // 0 = unlimited
  // The active flows in start order, one entry per flow in each array.
  std::vector<FlowId> ids_;
  std::vector<Bytes> remaining_;
  std::vector<Bytes> total_;
  // min(remaining_) bit for bit; +inf when idle.
  Bytes min_remaining_ = std::numeric_limits<Bytes>::infinity();
  std::vector<FlowId> completed_;  // advance()'s result buffer
  FlowId next_id_ = 0;
  Seconds last_update_ = 0;
  Bytes completed_bytes_ = 0;
  std::size_t peak_active_ = 0;
};

}  // namespace cloudwf::sim
