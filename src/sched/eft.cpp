#include "sched/eft.hpp"

#include <algorithm>

#include "common/error.hpp"

namespace cloudwf::sched {

namespace {

/// The availability index order: (avail, vm).
bool by_key(const AvailableVm& a, const AvailableVm& b) {
  return a.avail != b.avail ? a.avail < b.avail : a.vm < b.vm;
}

/// Thread-local probe counter (see probe_count() in eft.hpp).  Thread-local
/// so parallel sweeps don't contend on one cache line.
thread_local std::size_t probes_issued = 0;

}  // namespace

std::size_t probe_count() { return probes_issued; }

Dollars reuse_cost_lower_bound(const ReuseTerms& terms, Seconds max_avail) {
  // With unit roundoff u, estimate()'s cost on a VM of availability a is
  // fl(fl(fl(a + exec) - a + upload) * price).  fl(a + exec) - a is at least
  // exec - u(a + exec), and the subtraction, the addition and the product
  // each lose at most a factor (1 - u), so the cost is at least
  //   (exec + upload) * price * (1 - 3u) - 1.01u * (a + exec) * price.
  // The margins below (32u relative, 4u absolute) also absorb the rounding
  // of this expression itself, so it never exceeds that.
  constexpr double u = 0x1p-53;
  const Dollars nominal = (terms.exec + terms.upload) * terms.price * (1.0 - 32.0 * u);
  const Dollars drift = (max_avail + terms.exec) * terms.price * (4.0 * u);
  return nominal - drift;
}

bool better_placement(const PlacementEstimate& a, const HostCandidate& ha,
                      const PlacementEstimate& b, const HostCandidate& hb) {
  if (a.eft != b.eft) return a.eft < b.eft;
  if (a.cost != b.cost) return a.cost < b.cost;
  if (ha.fresh != hb.fresh) return !ha.fresh;  // prefer reusing a VM
  if (ha.fresh) return ha.category < hb.category;
  return ha.vm < hb.vm;
}

EftState::EftState(const dag::Workflow& wf, const platform::Platform& platform)
    : wf_(wf),
      platform_(platform),
      finish_(wf.task_count(), -1.0),
      at_dc_(wf.edge_count(), -1.0),
      vm_of_(wf.task_count(), sim::invalid_vm),
      upload_(wf.task_count(), 0.0),
      inputs_(wf.task_count()) {
  require(wf.frozen(), "EftState: workflow must be frozen");
  // Conservative output-upload time, precomputed with the same accumulation
  // order the per-probe loop used (external output first, then out-edges).
  for (dag::TaskId t = 0; t < wf.task_count(); ++t) {
    Bytes d_out = wf.external_output_of(t);
    for (dag::EdgeId e : wf.out_edges(t)) d_out += wf.edge(e).bytes;
    upload_[t] = d_out / platform.bandwidth();
  }
  // Candidate set starts as the fresh slots; used VMs are inserted in front
  // of them by commit().
  hosts_.reserve(platform.category_count() + 16);
  for (platform::CategoryId c = 0; c < platform.category_count(); ++c)
    hosts_.push_back(HostCandidate{sim::invalid_vm, c, true});
  producer_vms_.reserve(wf.task_count());
}

const EftState::TaskInputs& EftState::task_inputs(dag::TaskId task) const {
  TaskInputs& inputs = inputs_[task];
  if (inputs.ready) return inputs;
  // All predecessors are committed by the list-scheduling contract, and a
  // committed placement never changes during a pass — so this aggregate is
  // computed once and never invalidated.
  Bytes d_in = wf_.external_input_of(task);
  Seconds at_dc = 0;
  inputs.producers_first = static_cast<std::uint32_t>(producer_vms_.size());
  for (dag::EdgeId e : wf_.in_edges(task)) {
    const dag::Edge& edge = wf_.edge(e);
    CLOUDWF_ASSERT_MSG(finish_[edge.src] >= 0, "EftState::estimate: predecessor not committed");
    d_in += edge.bytes;
    at_dc = std::max(at_dc, at_dc_[e]);
    const sim::VmId producer = vm_of_[edge.src];
    bool seen = false;
    for (std::uint32_t i = inputs.producers_first; i < producer_vms_.size(); ++i)
      if (producer_vms_[i] == producer) {
        seen = true;
        break;
      }
    if (!seen) producer_vms_.push_back(producer);
  }
  inputs.producers_count =
      static_cast<std::uint32_t>(producer_vms_.size()) - inputs.producers_first;
  inputs.d_in_all = d_in;
  inputs.at_dc_all = at_dc;
  inputs.ready = true;
  return inputs;
}

const HostCandidate& EftState::used_host(sim::VmId vm) const {
  CLOUDWF_ASSERT(vm < used_hosts_ && hosts_[vm].vm == vm);
  return hosts_[vm];
}

std::span<const AvailableVm> EftState::used_by_availability(platform::CategoryId category) const {
  if (by_avail_.empty()) {  // first query: build the index
    by_avail_.resize(platform_.category_count());
    for (std::size_t i = 0; i < used_hosts_; ++i)
      by_avail_[hosts_[i].category].push_back(AvailableVm{avail_[hosts_[i].vm], hosts_[i].vm});
    for (std::vector<AvailableVm>& index : by_avail_) std::sort(index.begin(), index.end(), by_key);
  }
  return by_avail_[category];
}

void EftState::reindex(sim::VmId vm, Seconds avail, bool fresh) {
  if (by_avail_.empty()) return;
  std::vector<AvailableVm>& index = by_avail_[used_host(vm).category];
  if (!fresh) {
    const auto old =
        std::lower_bound(index.begin(), index.end(), AvailableVm{avail_[vm], vm}, by_key);
    CLOUDWF_ASSERT(old != index.end() && old->vm == vm);
    index.erase(old);
  }
  const AvailableVm entry{avail, vm};
  index.insert(std::upper_bound(index.begin(), index.end(), entry, by_key), entry);
}

std::span<const sim::VmId> EftState::producer_vms(dag::TaskId task) const {
  const TaskInputs& inputs = task_inputs(task);
  return std::span<const sim::VmId>(producer_vms_).subspan(inputs.producers_first,
                                                           inputs.producers_count);
}

ReuseTerms EftState::reuse_terms(dag::TaskId task, platform::CategoryId category) const {
  const TaskInputs& inputs = task_inputs(task);
  const platform::VmCategory& c = platform_.category(category);
  // estimate()'s expressions for a used host off the producer path.
  return ReuseTerms{
      .ready = inputs.at_dc_all,
      .exec = 0.0 + wf_.task(task).conservative_weight() / c.speed +
              inputs.d_in_all / platform_.bandwidth(),
      .upload = upload_[task],
      .price = c.price_per_second,
  };
}

bool EftState::hosts_producer(const TaskInputs& inputs, sim::VmId vm) const {
  const std::uint32_t end = inputs.producers_first + inputs.producers_count;
  for (std::uint32_t i = inputs.producers_first; i < end; ++i)
    if (producer_vms_[i] == vm) return true;
  return false;
}

PlacementEstimate EftState::estimate(dag::TaskId task, const HostCandidate& host) const {
  CLOUDWF_ASSERT_MSG(task < wf_.task_count(), "EftState::estimate: task out of range");
  ++probes_issued;
  const platform::VmCategory& category = platform_.category(host.category);
  const TaskInputs& inputs = task_inputs(task);

  Bytes d_in;
  Seconds inputs_at_dc;
  if (host.fresh || !hosts_producer(inputs, host.vm)) {
    // Fast path: no input is local to this host, so d_in is the full-input
    // sum — cached with the exact accumulation order of the walk below.
    d_in = inputs.d_in_all;
    inputs_at_dc = inputs.at_dc_all;
  } else {
    // The host produced some input: walk the in-edges, skipping local data.
    d_in = wf_.external_input_of(task);
    inputs_at_dc = 0;
    for (dag::EdgeId e : wf_.in_edges(task)) {
      const dag::Edge& edge = wf_.edge(e);
      if (vm_of_[edge.src] == host.vm) continue;  // produced on this very VM: free
      d_in += edge.bytes;
      inputs_at_dc = std::max(inputs_at_dc, at_dc_[e]);
    }
  }

  PlacementEstimate out;
  const Seconds avail = host.fresh ? 0.0 : avail_[host.vm];
  out.begin = std::max(avail, inputs_at_dc);
  out.exec = (host.fresh ? platform_.boot_delay() : 0.0) +
             wf_.task(task).conservative_weight() / category.speed +
             d_in / platform_.bandwidth();
  out.eft = out.begin + out.exec;

  // Conservative cost: assume every output (edge data + external output)
  // is uploaded to the datacenter while the VM is still billed.
  out.upload = upload_[task];
  // Marginal billed time (see eft.hpp): a reused host also bills the idle
  // gap until t_begin; a fresh host's boot is uncharged.
  const Seconds billed = host.fresh ? out.exec - platform_.boot_delay() + out.upload
                                    : out.eft - avail + out.upload;
  out.cost = billed * category.price_per_second;
  return out;
}

sim::VmId EftState::commit(dag::TaskId task, HostCandidate host,
                           const PlacementEstimate& estimate, sim::Schedule& schedule) {
  require(finish_[task] < 0, "EftState::commit: task already committed");
  sim::VmId vm = host.vm;
  if (host.fresh) {
    vm = schedule.add_vm(host.category);
    if (avail_.size() <= vm) avail_.resize(vm + 1, 0.0);
    // The new used VM slots in right after the existing used block, keeping
    // candidates() in the canonical order (used ascending, then fresh).
    hosts_.insert(hosts_.begin() + static_cast<std::ptrdiff_t>(used_hosts_),
                  HostCandidate{vm, host.category, false});
    ++used_hosts_;
  }
  reindex(vm, estimate.eft, host.fresh);
  schedule.assign(task, vm);
  avail_[vm] = estimate.eft;
  finish_[task] = estimate.eft;
  vm_of_[task] = vm;
  planned_makespan_ = std::max(planned_makespan_, estimate.eft);
  for (dag::EdgeId e : wf_.out_edges(task))
    at_dc_[e] = estimate.eft + wf_.edge(e).bytes / platform_.bandwidth();
  return vm;
}

Seconds EftState::finish_time(dag::TaskId task) const {
  require(task < finish_.size() && finish_[task] >= 0,
          "EftState::finish_time: task not committed");
  return finish_[task];
}

Seconds EftState::at_dc_time(dag::EdgeId edge) const {
  require(edge < at_dc_.size() && at_dc_[edge] >= 0, "EftState::at_dc_time: not committed");
  return at_dc_[edge];
}

Seconds EftState::vm_available(sim::VmId vm) const {
  require(vm < avail_.size(), "EftState::vm_available: vm not provisioned via commit");
  return avail_[vm];
}

Seconds EftState::ready_at_dc(dag::TaskId task) const {
  Seconds ready = 0;
  for (dag::EdgeId e : wf_.in_edges(task)) ready = std::max(ready, at_dc_time(e));
  return ready;
}

}  // namespace cloudwf::sched
