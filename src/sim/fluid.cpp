#include "sim/fluid.hpp"

#include <algorithm>
#include <limits>

#include "common/error.hpp"

namespace cloudwf::sim {

namespace {
constexpr Bytes infinity = std::numeric_limits<Bytes>::infinity();
}  // namespace

FluidNetwork::FluidNetwork(BytesPerSec per_flow_cap, BytesPerSec aggregate_capacity)
    : cap_(per_flow_cap), aggregate_(aggregate_capacity) {
  require(cap_ > 0, "FluidNetwork: per-flow cap must be positive");
  require(aggregate_ >= 0, "FluidNetwork: aggregate capacity must be non-negative");
}

FlowId FluidNetwork::start_flow(Bytes bytes, Seconds now) {
  require(bytes >= 0, "FluidNetwork::start_flow: negative size");
  progress_to(now);
  ids_.push_back(next_id_);  // zero-byte flows complete on the next advance()
  remaining_.push_back(bytes);
  total_.push_back(bytes);
  min_remaining_ = std::min(min_remaining_, bytes);
  peak_active_ = std::max(peak_active_, ids_.size());
  return next_id_++;
}

const std::vector<FlowId>& FluidNetwork::advance(Seconds now) {
  progress_to(now);
  completed_.clear();
  // Completion tolerance scaled to rate: one nanosecond of transfer.
  const Bytes tolerance = current_rate() * 1e-9;
  if (min_remaining_ > tolerance) return completed_;  // nothing is within tolerance
  // Compact the survivors in place, keeping start order.
  std::size_t kept = 0;
  Bytes smallest = infinity;
  for (std::size_t i = 0; i < ids_.size(); ++i) {
    if (remaining_[i] <= tolerance) {
      completed_bytes_ += total_[i];
      completed_.push_back(ids_[i]);
      continue;
    }
    ids_[kept] = ids_[i];
    remaining_[kept] = remaining_[i];
    total_[kept] = total_[i];
    smallest = std::min(smallest, remaining_[i]);
    ++kept;
  }
  ids_.resize(kept);
  remaining_.resize(kept);
  total_.resize(kept);
  min_remaining_ = smallest;
  return completed_;
}

void FluidNetwork::reset() {
  ids_.clear();
  remaining_.clear();
  total_.clear();
  min_remaining_ = infinity;
  completed_.clear();
  next_id_ = 0;
  last_update_ = 0;
  completed_bytes_ = 0;
  peak_active_ = 0;
}

void FluidNetwork::reserve(std::size_t flows) {
  ids_.reserve(flows);
  remaining_.reserve(flows);
  total_.reserve(flows);
  completed_.reserve(flows);
}

Seconds FluidNetwork::next_completion() const {
  if (ids_.empty()) return infinity;
  return last_update_ + min_remaining_ / current_rate();
}

BytesPerSec FluidNetwork::current_rate() const {
  if (aggregate_ <= 0 || ids_.empty()) return cap_;
  return std::min(cap_, aggregate_ / static_cast<double>(ids_.size()));
}

void FluidNetwork::progress_to(Seconds now) {
  require(now + time_epsilon >= last_update_, "FluidNetwork: time went backwards");
  // With a shared aggregate, stepping beyond the earliest completion would
  // let a finished flow keep absorbing bandwidth from the others; the engine
  // must process completions first (relative tolerance absorbs floating-point
  // drift).  Without an aggregate the rate is load-independent, so late
  // collection is harmless and allowed.
  CLOUDWF_ASSERT_MSG(aggregate_ <= 0 || now <= next_completion() + 1e-6 * std::max(1.0, now),
                     "FluidNetwork: advanced past a pending flow completion");
  const Seconds dt = std::max(0.0, now - last_update_);
  if (dt > 0 && !ids_.empty()) {
    const Bytes step = current_rate() * dt;
    for (Bytes& remaining : remaining_) remaining = std::max(0.0, remaining - step);
    // Every flow takes the same monotone step, so the minimum takes it too,
    // and lands on the same bits as a fresh scan would.
    min_remaining_ = std::max(0.0, min_remaining_ - step);
  }
  last_update_ = std::max(last_update_, now);
}

}  // namespace cloudwf::sim
