#pragma once

/// \file fluid_reference.hpp
/// \brief Straightforward reference implementation of the fluid network.
///
/// The differential oracle of sim::FluidNetwork (sim/fluid.hpp): one record
/// per flow id, a start-ordered list of active ids that every query walks
/// through the id indirection, a full minimum scan per next_completion()
/// and a completion scan per advance().  The dense flow table must report
/// the same completions in the same order and the same next_completion()
/// bits.

#include <algorithm>
#include <limits>
#include <vector>

#include "common/error.hpp"
#include "common/units.hpp"
#include "sim/fluid.hpp"

namespace cloudwf::reference {

class FluidNetwork {
 public:
  FluidNetwork(BytesPerSec per_flow_cap, BytesPerSec aggregate_capacity)
      : cap_(per_flow_cap), aggregate_(aggregate_capacity) {
    require(cap_ > 0, "FluidNetwork: per-flow cap must be positive");
    require(aggregate_ >= 0, "FluidNetwork: aggregate capacity must be non-negative");
  }

  sim::FlowId start_flow(Bytes bytes, Seconds now) {
    require(bytes >= 0, "FluidNetwork::start_flow: negative size");
    progress_to(now);
    flows_.push_back(Flow{bytes, bytes, false});
    const auto id = static_cast<sim::FlowId>(flows_.size() - 1);
    active_.push_back(id);  // zero-byte flows complete on the next advance()
    peak_active_ = std::max(peak_active_, active_.size());
    return id;
  }

  const std::vector<sim::FlowId>& advance(Seconds now) {
    progress_to(now);
    completed_.clear();
    // Completion tolerance scaled to rate: one nanosecond of transfer.
    const Bytes tolerance = current_rate() * 1e-9;
    for (auto it = active_.begin(); it != active_.end();) {
      Flow& flow = flows_[*it];
      if (flow.remaining <= tolerance) {
        flow.remaining = 0;
        flow.done = true;
        completed_bytes_ += flow.total;
        completed_.push_back(*it);
        it = active_.erase(it);
      } else {
        ++it;
      }
    }
    return completed_;
  }

  [[nodiscard]] Seconds next_completion() const {
    if (active_.empty()) return std::numeric_limits<Seconds>::infinity();
    Bytes smallest = std::numeric_limits<Bytes>::infinity();
    for (sim::FlowId id : active_) smallest = std::min(smallest, flows_[id].remaining);
    return last_update_ + smallest / current_rate();
  }

  [[nodiscard]] std::size_t active_count() const { return active_.size(); }
  [[nodiscard]] BytesPerSec current_rate() const {
    if (aggregate_ <= 0 || active_.empty()) return cap_;
    return std::min(cap_, aggregate_ / static_cast<double>(active_.size()));
  }
  [[nodiscard]] Bytes completed_bytes() const { return completed_bytes_; }
  [[nodiscard]] std::size_t peak_active() const { return peak_active_; }

 private:
  void progress_to(Seconds now) {
    require(now + time_epsilon >= last_update_, "FluidNetwork: time went backwards");
    CLOUDWF_ASSERT_MSG(aggregate_ <= 0 || now <= next_completion() + 1e-6 * std::max(1.0, now),
                       "FluidNetwork: advanced past a pending flow completion");
    const Seconds dt = std::max(0.0, now - last_update_);
    if (dt > 0 && !active_.empty()) {
      const Bytes step = current_rate() * dt;
      for (sim::FlowId id : active_)
        flows_[id].remaining = std::max(0.0, flows_[id].remaining - step);
    }
    last_update_ = std::max(last_update_, now);
  }

  struct Flow {
    Bytes total = 0;
    Bytes remaining = 0;
    bool done = false;
  };

  BytesPerSec cap_;
  BytesPerSec aggregate_;  // 0 = unlimited
  std::vector<Flow> flows_;
  std::vector<sim::FlowId> active_;     // in start order
  std::vector<sim::FlowId> completed_;  // advance()'s result buffer
  Seconds last_update_ = 0;
  Bytes completed_bytes_ = 0;
  std::size_t peak_active_ = 0;
};

}  // namespace cloudwf::reference
