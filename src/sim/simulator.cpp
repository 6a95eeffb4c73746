#include "sim/simulator.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <limits>
#include <optional>
#include <span>
#include <sstream>
#include <type_traits>
#include <vector>

#include "common/error.hpp"
#include "obs/event_bus.hpp"
#include "obs/profile.hpp"
#include "platform/pricing.hpp"
#include "sim/fluid.hpp"

namespace cloudwf::sim {

namespace {

constexpr Seconds infinity = std::numeric_limits<Seconds>::infinity();

/// End of a LinkQueue (no job).
constexpr std::size_t no_job = std::numeric_limits<std::size_t>::max();

/// Direction of a transfer relative to the VM.
enum class Direction { upload, download };

/// What a completed flow means.
enum class JobKind { edge_upload, ext_output_upload, edge_download, ext_input_download };

struct TransferJob {
  JobKind kind{};
  VmId vm = invalid_vm;
  dag::EdgeId edge = 0;                  // for edge_* kinds
  dag::TaskId task = dag::invalid_task;  // producer (uploads) / consumer (downloads)
  Bytes bytes = 0;
  std::size_t attempts = 0;   // failed attempts so far (fault injection)
  Seconds started = 0;        // last flow start (observability slice origin)
  std::size_t next = no_job;  // successor in its VM's LinkQueue
};

/// FIFO of pending TransferJob indexes threaded through TransferJob::next:
/// a queue owns no storage, so per-VM state resets by plain assignment.
struct LinkQueue {
  std::size_t head = no_job;
  std::size_t tail = no_job;
  [[nodiscard]] bool empty() const { return head == no_job; }
};

/// Engine events other than flow completions.
struct Event {
  Seconds time = 0;
  std::uint64_t seq = 0;  // insertion order; makes ties deterministic
  enum class Kind { boot_done, task_done, timeout, crash, transfer_retry } kind{};
  VmId vm = invalid_vm;
  dag::TaskId task = dag::invalid_task;
  std::uint32_t epoch = 0;  // task (re)start generation; stale events are dropped
  std::size_t job = 0;      // TransferJob index (transfer_retry only)
};

struct EventLater {
  bool operator()(const Event& a, const Event& b) const {
    if (a.time != b.time) return a.time > b.time;
    return a.seq > b.seq;
  }
};

/// Makespan and cost inputs of a finished execution (finalize()'s totals).
struct Totals {
  Seconds start_first = 0;
  Seconds end_last = 0;
  platform::CostBreakdown cost;
  std::size_t used_vms = 0;
  Dollars recovery_cost = 0;  // billed to fault-recovery VMs
};

/// The execution engine: an arena that every run resets.  A Simulator keeps
/// one for all of its runs and a Predictor one for its runs and probes.
///
/// The task-to-VM mapping starts as a copy of the static Schedule but is
/// *mutable*: the online policy (paper Section VI) may interrupt a running
/// task and restart it on a freshly provisioned VM of the fastest category,
/// and fault recovery (faults.hpp) may re-home the work of a crashed VM;
/// both move tasks through relocate().
/// reset() clears or re-assigns every container instead of rebuilding it,
/// so a reused arena runs without heap allocations once warm.
class Execution {
 public:
  Execution(const dag::Workflow& wf, const platform::Platform& platform, obs::EventBus* bus)
      : wf_(wf),
        platform_(platform),
        bus_(bus),
        fluid_(platform.bandwidth(), platform.dc_aggregate_bandwidth()) {}

  /// Sets what the next runs execute with: \p weights, the online \p policy
  /// (nullptr = static execution) and the fault layer (\p faults nullptr =
  /// none, else an enabled model; \p recovery set whenever \p faults is).
  /// Every argument must outlive those runs.  Samples the bus's enabled state and reseeds the
  /// fault injector, so call it once per Simulator run.
  void configure(const dag::WeightRealization& weights, const OnlinePolicy* policy,
                 const FaultModel* faults, const RecoveryPolicy* recovery);

  /// Validates \p schedule and copies its plan in; it must outlive the runs.
  void load(const Schedule& schedule);

  /// Runs the loaded plan and builds the full result.
  SimResult run();

  /// Runs the loaded plan; returns only makespan and total cost.
  Prediction predict();

  // ---- arena interface (Predictor) ------------------------------------------

  /// Pre-sizes per-run storage for a fault- and migration-free run of the
  /// loaded plan plus one fresh VM.
  void reserve_static();

  /// Applies \p move to the loaded plan exactly as Schedule::apply would and
  /// returns the task's former list index, for revert().
  std::size_t apply(const Move& move);

  /// Undoes apply(move) given the task's former VM and list index.
  void revert(const Move& move, VmId from, std::size_t index);

  /// The same-VM order rule of Schedule::validate on the current plan.
  void validate_order() { validate_vm_order(wf_, plans_, vm_of_, position_); }

  [[nodiscard]] VmId vm_of(dag::TaskId task) const { return vm_of_[task]; }
  [[nodiscard]] std::span<const VmPlan> plans() const { return plans_; }
  [[nodiscard]] std::span<const VmId> assignment() const { return vm_of_; }

 private:
  // ---- state --------------------------------------------------------------

  enum class BootState { unrequested, booting, up };

  struct VmState {
    BootState boot = BootState::unrequested;
    Seconds boot_request = 0;
    Seconds boot_done = 0;
    Seconds end = 0;   // last activity
    Seconds busy = 0;  // total compute time
    std::size_t next_start_idx = 0;
    std::uint32_t free_procs = 0;
    LinkQueue queue_up;    // pending uploads
    LinkQueue queue_down;  // pending downloads
    bool uplink_busy = false;
    bool downlink_busy = false;
    std::size_t tasks_done = 0;
    // Fault bookkeeping.  A dead VM computes nothing and bills nothing past
    // `end`, but its persistent volume can still drain already-produced data
    // through the datacenter.
    bool dead = false;
    bool crashed = false;
    bool recovery_vm = false;
    std::size_t boot_attempts = 0;
  };

  struct TaskState {
    std::size_t remote_in_pending = 0;  // downloads not yet finished
    std::size_t local_in_pending = 0;   // same-VM predecessors not finished
    std::size_t dc_in_pending = 0;      // cross-VM inputs not yet at the DC
    bool started = false;
    bool finished = false;
    bool failed = false;  // terminal: will never (re)run / output lost
    std::uint32_t epoch = 0;  // bumped on every interruption
    Seconds gate_time = 0;
    dag::TaskId gate_task = dag::invalid_task;
  };

  const dag::Workflow& wf_;
  const platform::Platform& platform_;
  const Schedule* schedule_ = nullptr;  // the loaded schedule (priorities)
  obs::EventBus* bus_;                  // nullptr = no observability
  // Per-run inputs (configure()).
  const dag::WeightRealization* weights_ = nullptr;
  const OnlinePolicy* policy_ = nullptr;      // nullptr = offline (static) execution
  const RecoveryPolicy* recovery_ = nullptr;  // set whenever injector_ is
  bool obs_ = false;                          // cached bus_ && bus_->enabled()
  std::optional<FaultInjector> injector_;  // engaged only for an enabled model
  FluidNetwork fluid_;

  // Mutable mapping (seeded from schedule_, extended by migrations/recovery).
  std::vector<VmPlan> plans_;
  std::vector<VmId> vm_of_;
  VmPlan spare_;                       // storage lent to a fresh VM by apply()
  std::vector<std::size_t> position_;  // validate_vm_order scratch

  std::vector<VmState> vms_;
  std::vector<TaskState> tasks_;
  std::vector<Seconds> edge_at_dc_;        // -1 until uploaded (cross-VM edges only)
  std::vector<bool> edge_needs_transfer_;  // vm_of_[src] != vm_of_[dst]
  std::vector<bool> download_enqueued_;    // per edge
  std::vector<TransferJob> jobs_;
  std::vector<std::size_t> flow_to_job_;  // FlowId -> job index
  std::vector<Event> events_;             // min-heap under EventLater
  std::uint64_t next_seq_ = 0;
  Seconds now_ = 0;
  std::size_t tasks_finished_ = 0;
  std::size_t tasks_terminal_ = 0;  // finished or failed-before-finishing
  std::size_t pending_retries_ = 0;
  std::size_t events_processed_ = 0;
  std::size_t transfers_done_ = 0;
  Bytes transfer_bytes_ = 0;
  std::size_t migrations_ = 0;
  FaultStats stats_;
  std::vector<TaskRecord> records_;

  // ---- helpers --------------------------------------------------------------

  void push_event(Seconds time, Event::Kind kind, VmId vm, dag::TaskId task,
                  std::uint32_t epoch = 0, std::size_t job = 0) {
    events_.push_back({time, next_seq_++, kind, vm, task, epoch, job});
    std::push_heap(events_.begin(), events_.end(), EventLater{});
  }

  void push_job(LinkQueue& queue, std::size_t job_index) {
    jobs_[job_index].next = no_job;
    if (queue.empty())
      queue.head = job_index;
    else
      jobs_[queue.tail].next = job_index;
    queue.tail = job_index;
  }

  std::size_t pop_job(LinkQueue& queue) {
    const std::size_t job_index = queue.head;
    queue.head = jobs_[job_index].next;
    if (queue.empty()) queue.tail = no_job;
    return job_index;
  }

  /// Observability emission.  Callers must test `obs_` *before* building the
  /// Event (strings!): the disabled path is a single cached bool test.
  void emit(const obs::Event& event) const { bus_->emit(event); }

  [[nodiscard]] std::int64_t obs_vm(VmId vm) const {
    return vm == invalid_vm ? obs::no_id : static_cast<std::int64_t>(vm);
  }

  [[nodiscard]] std::int64_t obs_task(dag::TaskId task) const {
    return task == dag::invalid_task ? obs::no_id : static_cast<std::int64_t>(task);
  }

  /// Transfer lane of a job relative to its VM ("up" or "down").
  [[nodiscard]] static const char* lane_of(const TransferJob& job) {
    const bool is_upload =
        job.kind == JobKind::edge_upload || job.kind == JobKind::ext_output_upload;
    return is_upload ? "up" : "down";
  }

  void gate_update(dag::TaskId task, Seconds time, dag::TaskId cause) {
    TaskState& ts = tasks_[task];
    if (time >= ts.gate_time) {
      ts.gate_time = time;
      if (cause != dag::invalid_task) ts.gate_task = cause;
    }
  }

  [[nodiscard]] const platform::VmCategory& vm_category(VmId vm) const {
    return platform_.category(plans_[vm].category);
  }

  [[nodiscard]] InstrPerSec vm_speed(VmId vm) const { return vm_category(vm).speed; }

  void reset();
  void main_loop();
  void request_boot(VmId vm);
  void maybe_request_boot(VmId vm);
  void on_boot_done(VmId vm);
  void enqueue_job(TransferJob job);
  void pump_link(VmId vm, Direction dir);
  void on_flow_complete(FlowId flow);
  void on_upload_done(const TransferJob& job);
  void on_download_done(const TransferJob& job);
  void try_start_tasks(VmId vm);
  void on_task_done(VmId vm, dag::TaskId task);
  void on_timeout(VmId vm, dag::TaskId task);
  void migrate(VmId from, dag::TaskId task);
  void interrupt_running(VmId vm, dag::TaskId task);
  void on_crash(VmId vm);
  void abandon_boot(VmId vm);
  void recover_tasks(VmId from, bool allow_provisioning);
  /// Why relocate() moves tasks; a fresh recovery VM bills as recovery cost.
  enum class Relocation { migration, recovery };
  void relocate(Relocation why, VmId from, std::span<const dag::TaskId> moved, VmId to,
                platform::CategoryId category);
  void restage_task(dag::TaskId task, std::vector<TransferJob>& uploads);
  void enqueue_downloads(VmId vm, std::span<const dag::TaskId> tasks);
  void on_transfer_retry(std::size_t job_index);
  void abort_transfer(const TransferJob& job);
  void fail_task(dag::TaskId task);
  [[nodiscard]] bool below_cap(const platform::VmCategory& category, Seconds seconds,
                               Dollars cap) const;
  [[noreturn]] void report_deadlock() const;
  [[nodiscard]] Totals totals() const;
  [[nodiscard]] SimResult finalize() const;
};

void Execution::configure(const dag::WeightRealization& weights, const OnlinePolicy* policy,
                          const FaultModel* faults, const RecoveryPolicy* recovery) {
  weights_ = &weights;
  policy_ = policy;
  recovery_ = recovery;
  obs_ = bus_ != nullptr && bus_->enabled();
  injector_.reset();
  if (faults != nullptr) injector_.emplace(*faults);
}

void Execution::load(const Schedule& schedule) {
  schedule.validate(wf_, platform_);
  require(weights_->size() == wf_.task_count(),
          "Simulator: weight realization size differs from workflow");
  schedule_ = &schedule;

  plans_.reserve(schedule.vm_count() + 8);
  plans_.resize(schedule.vm_count());
  for (VmId v = 0; v < schedule.vm_count(); ++v) {
    const auto tasks = schedule.vm_tasks(v);
    plans_[v].category = schedule.vm_category(v);
    plans_[v].tasks.assign(tasks.begin(), tasks.end());
  }
  vm_of_.resize(wf_.task_count());
  for (dag::TaskId t = 0; t < wf_.task_count(); ++t) vm_of_[t] = schedule.vm_of(t);
  // A fault- and migration-free run of this plan moves the same transfers
  // under any realization, so the job tables fit after one run.  The peaks
  // of the event heap (one boot per VM, one completion per task) and of the
  // flow table (one flow per link direction) depend on the weights: size
  // them for the worst case, so a warm arena fits every realization.
  events_.reserve(plans_.size() + wf_.task_count());
  fluid_.reserve(2 * plans_.size());
}

void Execution::reserve_static() {
  // Without faults or migrations every cross-VM edge is uploaded and
  // downloaded once and every external input/output moves once; each VM
  // boots once and each task completes once.
  const std::size_t transfers = 2 * wf_.edge_count() + 2 * wf_.task_count();
  jobs_.reserve(transfers);
  flow_to_job_.reserve(transfers);
  events_.reserve(plans_.size() + 1 + wf_.task_count());
  fluid_.reserve(2 * (plans_.size() + 1));
  vms_.reserve(plans_.size() + 1);
  for (VmPlan& plan : plans_) plan.tasks.reserve(plan.tasks.size() + 1);  // a moved-in task
  spare_.tasks.reserve(wf_.task_count());
  position_.reserve(wf_.task_count());
}

std::size_t Execution::apply(const Move& move) {
  const VmId from = vm_of_[move.task];
  auto& source = plans_[from].tasks;
  const auto at = std::find(source.begin(), source.end(), move.task);
  const auto index = static_cast<std::size_t>(at - source.begin());
  source.erase(at);
  if (move.fresh) {
    plans_.push_back(std::move(spare_));
    plans_.back().category = move.category;
    plans_.back().tasks.clear();
  }
  // Schedule::insert_ordered: before the first strictly lower priority.
  auto& target = plans_[move.vm].tasks;
  const double priority = schedule_->priority(move.task);
  const auto later = [&](dag::TaskId other) { return schedule_->priority(other) < priority; };
  target.insert(std::find_if(target.begin(), target.end(), later), move.task);
  vm_of_[move.task] = move.vm;
  return index;
}

void Execution::revert(const Move& move, VmId from, std::size_t index) {
  auto& target = plans_[move.vm].tasks;
  target.erase(std::find(target.begin(), target.end(), move.task));
  if (move.fresh) {
    spare_ = std::move(plans_.back());
    plans_.pop_back();
  }
  auto& source = plans_[from].tasks;
  source.insert(source.begin() + static_cast<std::ptrdiff_t>(index), move.task);
  vm_of_[move.task] = from;
}

void Execution::reset() {
  vms_.assign(plans_.size(), VmState{});
  for (VmId v = 0; v < plans_.size(); ++v) vms_[v].free_procs = vm_category(v).processors;

  tasks_.assign(wf_.task_count(), TaskState{});
  records_.assign(wf_.task_count(), TaskRecord{});
  edge_at_dc_.assign(wf_.edge_count(), -1.0);
  edge_needs_transfer_.assign(wf_.edge_count(), false);
  download_enqueued_.assign(wf_.edge_count(), false);
  jobs_.clear();
  flow_to_job_.clear();
  events_.clear();
  fluid_.reset();
  next_seq_ = 0;
  now_ = 0;
  tasks_finished_ = 0;
  tasks_terminal_ = 0;
  pending_retries_ = 0;
  events_processed_ = 0;
  transfers_done_ = 0;
  transfer_bytes_ = 0;
  migrations_ = 0;
  stats_ = FaultStats{};

  for (dag::EdgeId e = 0; e < wf_.edge_count(); ++e) {
    const dag::Edge& edge = wf_.edge(e);
    edge_needs_transfer_[e] = vm_of_[edge.src] != vm_of_[edge.dst];
  }
  for (dag::TaskId t = 0; t < wf_.task_count(); ++t) {
    records_[t].vm = vm_of_[t];
    for (dag::EdgeId e : wf_.in_edges(t)) {
      if (edge_needs_transfer_[e]) {
        ++tasks_[t].remote_in_pending;
        ++tasks_[t].dc_in_pending;
      } else {
        ++tasks_[t].local_in_pending;
      }
    }
    if (wf_.external_input_of(t) > 0) ++tasks_[t].remote_in_pending;
  }

  if (obs_) {
    // The static placement, one dispatch per task in list order.
    for (VmId v = 0; v < plans_.size(); ++v)
      for (dag::TaskId t : plans_[v].tasks)
        emit({.kind = obs::EventKind::task_dispatch,
              .time = now_,
              .vm = obs_vm(v),
              .task = obs_task(t),
              .name = wf_.task(t).name});
  }

  // Book every VM whose first task already has its cross-VM inputs at the DC
  // (entry tasks: external inputs wait at the DC from time zero).
  for (VmId v = 0; v < plans_.size(); ++v) maybe_request_boot(v);
}

void Execution::request_boot(VmId vm) {
  VmState& state = vms_[vm];
  CLOUDWF_ASSERT(state.boot == BootState::unrequested && !state.dead);
  state.boot = BootState::booting;
  state.boot_request = now_;
  state.boot_attempts = 1;
  state.boot_done = now_ + platform_.boot_delay();
  push_event(state.boot_done, Event::Kind::boot_done, vm, dag::invalid_task);
  if (obs_)
    emit({.kind = obs::EventKind::vm_boot_request,
          .time = now_,
          .vm = obs_vm(vm),
          .detail = platform_.category(plans_[vm].category).name});
}

void Execution::maybe_request_boot(VmId vm) {
  VmState& state = vms_[vm];
  if (state.boot != BootState::unrequested || state.dead) return;
  // Boot gate: the first runnable task of the list must have its cross-VM
  // inputs at the DC.  Failed tasks will never run, so they cannot hold the
  // gate; without faults this is exactly "the first task of the list".
  for (dag::TaskId t : plans_[vm].tasks) {
    if (vm_of_[t] != vm || tasks_[t].finished || tasks_[t].failed) continue;
    if (tasks_[t].dc_in_pending == 0) request_boot(vm);
    return;
  }
}

void Execution::on_boot_done(VmId vm) {
  VmState& state = vms_[vm];
  if (injector_ && injector_->boot_fails()) {
    ++stats_.boot_failures;
    if (obs_)
      emit({.kind = obs::EventKind::fault_injected,
            .time = now_,
            .vm = obs_vm(vm),
            .detail = "boot_failure",
            .value = static_cast<double>(state.boot_attempts)});
    if (state.boot_attempts < recovery_->max_boot_attempts) {
      // Re-provision: a fresh acquisition after the IaaS acquisition delay.
      ++state.boot_attempts;
      state.boot_done = now_ + injector_->model().acquisition_delay + platform_.boot_delay();
      push_event(state.boot_done, Event::Kind::boot_done, vm, dag::invalid_task);
    } else {
      abandon_boot(vm);
    }
    return;
  }
  state.boot = BootState::up;
  state.end = std::max(state.end, now_);
  if (obs_)
    emit({.kind = obs::EventKind::vm_boot_done,
          .time = now_,
          .vm = obs_vm(vm),
          .name = "boot",
          .detail = platform_.category(plans_[vm].category).name,
          .duration = now_ - state.boot_request});
  if (injector_) {
    // Billed uptime until an injected crash; the event is ignored if the VM
    // drains all of its work before the crash fires.
    const Seconds uptime = injector_->crash_after();
    if (std::isfinite(uptime)) push_event(now_ + uptime, Event::Kind::crash, vm, dag::invalid_task);
  }

  enqueue_downloads(vm, plans_[vm].tasks);
  try_start_tasks(vm);
}

void Execution::enqueue_downloads(VmId vm, std::span<const dag::TaskId> tasks) {
  // Every download that is already possible, in \p tasks order (stable FIFO
  // per link keeps the run deterministic).
  for (dag::TaskId t : tasks) {
    if (vm_of_[t] != vm || tasks_[t].started || tasks_[t].finished || tasks_[t].failed)
      continue;  // migration/recovery leftovers
    if (wf_.external_input_of(t) > 0)
      enqueue_job({JobKind::ext_input_download, vm, 0, t, wf_.external_input_of(t)});
    for (dag::EdgeId e : wf_.in_edges(t)) {
      if (!edge_needs_transfer_[e] || download_enqueued_[e]) continue;
      if (edge_at_dc_[e] >= 0) {
        download_enqueued_[e] = true;
        enqueue_job({JobKind::edge_download, vm, e, t, wf_.edge(e).bytes});
      }
    }
  }
}

void Execution::enqueue_job(TransferJob job) {
  const bool is_upload = job.kind == JobKind::edge_upload || job.kind == JobKind::ext_output_upload;
  if (job.bytes <= 0) {
    // Zero-byte data is instantaneous; dispatch inline (and below the fault
    // layer: a flow that never exists cannot fail).
    if (is_upload)
      on_upload_done(job);
    else
      on_download_done(job);
    return;
  }
  jobs_.push_back(job);
  VmState& state = vms_[job.vm];
  push_job(is_upload ? state.queue_up : state.queue_down, jobs_.size() - 1);
  pump_link(job.vm, is_upload ? Direction::upload : Direction::download);
}

void Execution::pump_link(VmId vm, Direction dir) {
  VmState& state = vms_[vm];
  auto& queue = dir == Direction::upload ? state.queue_up : state.queue_down;
  bool& busy = dir == Direction::upload ? state.uplink_busy : state.downlink_busy;
  if (busy || queue.empty()) return;
  const std::size_t job_index = pop_job(queue);
  busy = true;
  TransferJob& job = jobs_[job_index];
  job.started = now_;
  const FlowId flow = fluid_.start_flow(job.bytes, now_);
  if (flow_to_job_.size() <= flow) flow_to_job_.resize(flow + 1);
  flow_to_job_[flow] = job_index;
  if (obs_)
    emit({.kind = obs::EventKind::transfer_start,
          .time = now_,
          .vm = obs_vm(job.vm),
          .task = obs_task(job.task),
          .name = wf_.task(job.task).name,
          .detail = lane_of(job),
          .value = job.bytes});
}

void Execution::on_flow_complete(FlowId flow) {
  const std::size_t job_index = flow_to_job_[flow];
  const TransferJob job = jobs_[job_index];
  VmState& state = vms_[job.vm];

  const bool is_upload = job.kind == JobKind::edge_upload || job.kind == JobKind::ext_output_upload;
  (is_upload ? state.uplink_busy : state.downlink_busy) = false;
  pump_link(job.vm, is_upload ? Direction::upload : Direction::download);

  // Stale download: the consumer moved away (crash recovery) or failed while
  // the flow was in flight; discard the data silently.
  if (!is_upload && (vm_of_[job.task] != job.vm || tasks_[job.task].failed)) return;

  // A dead VM's billing froze at the crash; volume drains do not extend it.
  if (!state.dead) state.end = std::max(state.end, now_);

  if (injector_ && injector_->transfer_fails()) {
    ++stats_.transfer_failures;
    TransferJob& stored = jobs_[job_index];
    ++stored.attempts;
    if (obs_)
      emit({.kind = obs::EventKind::fault_injected,
            .time = now_,
            .vm = obs_vm(job.vm),
            .task = obs_task(job.task),
            .detail = "transfer_failure",
            .value = static_cast<double>(stored.attempts)});
    if (stored.attempts <= recovery_->max_transfer_retries) {
      // Exponential backoff: retry n waits base * 2^(n-1) seconds.
      const Seconds backoff = recovery_->transfer_backoff_base *
                              std::ldexp(1.0, static_cast<int>(stored.attempts) - 1);
      ++pending_retries_;
      push_event(now_ + backoff, Event::Kind::transfer_retry, job.vm, job.task, 0, job_index);
      if (obs_)
        emit({.kind = obs::EventKind::transfer_retry,
              .time = now_,
              .vm = obs_vm(job.vm),
              .task = obs_task(job.task),
              .name = wf_.task(job.task).name,
              .detail = lane_of(job),
              .value = backoff});
    } else {
      ++stats_.transfer_aborts;
      if (obs_)
        emit({.kind = obs::EventKind::fault_injected,
              .time = now_,
              .vm = obs_vm(job.vm),
              .task = obs_task(job.task),
              .detail = "transfer_abort"});
      abort_transfer(stored);
    }
    return;
  }

  ++transfers_done_;
  transfer_bytes_ += job.bytes;
  if (obs_)
    emit({.kind = obs::EventKind::transfer_done,
          .time = now_,
          .vm = obs_vm(job.vm),
          .task = obs_task(job.task),
          .name = wf_.task(job.task).name,
          .detail = lane_of(job),
          .value = job.bytes,
          .duration = now_ - job.started});

  if (is_upload)
    on_upload_done(job);
  else
    on_download_done(job);
}

void Execution::on_transfer_retry(std::size_t job_index) {
  --pending_retries_;
  const TransferJob& job = jobs_[job_index];
  const bool is_upload = job.kind == JobKind::edge_upload || job.kind == JobKind::ext_output_upload;
  if (is_upload) {
    // Pointless when the consumer already failed for other reasons.
    if (job.kind == JobKind::edge_upload && tasks_[wf_.edge(job.edge).dst].failed) return;
  } else {
    if (vm_of_[job.task] != job.vm || tasks_[job.task].failed) return;  // stale
  }
  VmState& state = vms_[job.vm];
  push_job(is_upload ? state.queue_up : state.queue_down, job_index);
  pump_link(job.vm, is_upload ? Direction::upload : Direction::download);
}

void Execution::abort_transfer(const TransferJob& job) {
  switch (job.kind) {
    case JobKind::edge_upload:
      fail_task(wf_.edge(job.edge).dst);  // its input can never arrive
      break;
    case JobKind::edge_download:
    case JobKind::ext_input_download:
      fail_task(job.task);
      break;
    case JobKind::ext_output_upload:
      fail_task(job.task);  // computed, but the final delivery was lost
      break;
  }
}

void Execution::fail_task(dag::TaskId task) {
  TaskState& ts = tasks_[task];
  if (ts.failed) return;
  ts.failed = true;
  records_[task].failed = true;
  ++stats_.failed_tasks;
  if (obs_)
    emit({.kind = obs::EventKind::task_fail,
          .time = now_,
          .vm = obs_vm(vm_of_[task]),
          .task = obs_task(task),
          .name = wf_.task(task).name});
  if (!ts.finished) {
    CLOUDWF_ASSERT(!ts.started);  // running tasks are interrupted before failing
    ++tasks_terminal_;
    // Without this task's outputs none of its consumers can ever run.
    for (dag::EdgeId e : wf_.out_edges(task)) fail_task(wf_.edge(e).dst);
  }
  // Skipping the failed slot may unblock its host VM's list scan or boot gate.
  const VmId vm = vm_of_[task];
  if (vm != invalid_vm && !vms_[vm].dead) {
    if (vms_[vm].boot == BootState::up)
      try_start_tasks(vm);
    else if (vms_[vm].boot == BootState::unrequested)
      maybe_request_boot(vm);
  }
}

void Execution::on_upload_done(const TransferJob& job) {
  if (job.kind == JobKind::ext_output_upload) return;  // data now at DC for the user

  const dag::EdgeId e = job.edge;
  const dag::Edge& edge = wf_.edge(e);
  edge_at_dc_[e] = now_;
  const dag::TaskId consumer = edge.dst;
  TaskState& ts = tasks_[consumer];
  if (ts.failed) return;  // data parked at the DC; nobody will fetch it
  CLOUDWF_ASSERT(ts.dc_in_pending > 0);
  if (--ts.dc_in_pending == 0) records_[consumer].inputs_at_dc = now_;

  const VmId cvm = vm_of_[consumer];
  VmState& consumer_vm = vms_[cvm];
  if (consumer_vm.boot == BootState::up && !download_enqueued_[e]) {
    download_enqueued_[e] = true;
    enqueue_job({JobKind::edge_download, cvm, e, consumer, edge.bytes});
  } else if (consumer_vm.boot == BootState::unrequested) {
    maybe_request_boot(cvm);
  }
}

void Execution::on_download_done(const TransferJob& job) {
  const dag::TaskId task = job.task;
  TaskState& ts = tasks_[task];
  if (ts.failed) return;
  CLOUDWF_ASSERT(ts.remote_in_pending > 0);
  --ts.remote_in_pending;
  const dag::TaskId cause =
      job.kind == JobKind::edge_download ? wf_.edge(job.edge).src : dag::invalid_task;
  gate_update(task, now_, cause);
  try_start_tasks(job.vm);
}

void Execution::try_start_tasks(VmId vm) {
  VmState& state = vms_[vm];
  if (state.boot != BootState::up || state.dead) return;
  const auto& plan = plans_[vm].tasks;
  while (state.next_start_idx < plan.size()) {
    const dag::TaskId t = plan[state.next_start_idx];
    TaskState& ts = tasks_[t];
    if (ts.finished || ts.failed || (ts.started && vm_of_[t] != vm)) {
      // Migration/recovery leftover: the task moved away (or already
      // completed elsewhere) or can never run; skip its old slot.
      ++state.next_start_idx;
      continue;
    }
    if (state.free_procs == 0 || ts.started || ts.remote_in_pending > 0 ||
        ts.local_in_pending > 0)
      return;

    ts.started = true;
    --state.free_procs;
    ++state.next_start_idx;
    gate_update(t, state.boot_done, dag::invalid_task);
    const Seconds duration = (*weights_)[t] / vm_speed(vm);
    records_[t].start = now_;
    records_[t].finish = now_ + duration;
    records_[t].bound_by = ts.gate_task;
    state.busy += duration;
    push_event(now_ + duration, Event::Kind::task_done, vm, t, ts.epoch);
    if (obs_)
      emit({.kind = obs::EventKind::task_start,
            .time = now_,
            .vm = obs_vm(vm),
            .task = obs_task(t),
            .name = wf_.task(t).name,
            .duration = duration});

    // Online policy: arm a timeout when the actual draw exceeds the
    // tolerated compute time on this host (the engine exploits its knowledge
    // of the realization only to skip timeouts that would never fire).
    if (policy_ != nullptr) {
      const Seconds tolerated = (wf_.task(t).mean_weight +
                                 policy_->timeout_sigmas * wf_.task(t).weight_stddev) /
                                vm_speed(vm);
      if (duration > tolerated && records_[t].restarts < policy_->max_restarts)
        push_event(now_ + tolerated, Event::Kind::timeout, vm, t, ts.epoch);
    }

    // Gate the next task in list order on our start (relevant only for
    // multi-processor VMs, where starts must stay in list order).
    if (state.next_start_idx < plan.size()) gate_update(plan[state.next_start_idx], now_, t);
  }
}

void Execution::on_task_done(VmId vm, dag::TaskId task) {
  VmState& state = vms_[vm];
  TaskState& ts = tasks_[task];
  ts.finished = true;
  ++tasks_finished_;
  ++tasks_terminal_;
  ++state.tasks_done;
  ++state.free_procs;
  state.end = std::max(state.end, now_);
  if (obs_)
    emit({.kind = obs::EventKind::task_finish,
          .time = now_,
          .vm = obs_vm(vm),
          .task = obs_task(task),
          .name = wf_.task(task).name,
          .duration = now_ - records_[task].start});

  for (dag::EdgeId e : wf_.out_edges(task)) {
    const dag::Edge& edge = wf_.edge(e);
    if (tasks_[edge.dst].failed) continue;  // nobody left to deliver to
    if (edge_needs_transfer_[e]) {
      enqueue_job({JobKind::edge_upload, vm, e, task, edge.bytes});
    } else {
      TaskState& consumer = tasks_[edge.dst];
      CLOUDWF_ASSERT(consumer.local_in_pending > 0);
      --consumer.local_in_pending;
      gate_update(edge.dst, now_, task);
    }
  }
  if (wf_.external_output_of(task) > 0)
    enqueue_job({JobKind::ext_output_upload, vm, 0, task, wf_.external_output_of(task)});

  // The freed processor may unblock the next task in list order.
  const auto& plan = plans_[vm].tasks;
  if (state.next_start_idx < plan.size()) gate_update(plan[state.next_start_idx], now_, task);
  try_start_tasks(vm);
}

bool Execution::below_cap(const platform::VmCategory& category, Seconds seconds,
                          Dollars cap) const {
  // The spend guard of the online policy and of fault recovery: billed time
  // so far plus setups of all booked VMs, plus booking a fresh VM of
  // \p category for \p seconds, must stay *strictly below* \p cap (the
  // projection is an estimate; consuming the cap exactly leaves no
  // headroom).  Datacenter charges are not included — they are small and
  // budget reservations already cover them.
  Dollars committed = 0;
  for (VmId v = 0; v < vms_.size(); ++v) {
    const VmState& state = vms_[v];
    if (state.boot == BootState::unrequested) continue;
    if (state.dead && state.boot != BootState::up) continue;  // abandoned boot: never billed
    const platform::VmCategory& booked = vm_category(v);
    committed += booked.setup_cost;
    if (state.boot == BootState::up) {
      const Seconds until =
          state.dead ? std::max(state.end, state.boot_done) : std::max(now_, state.boot_done);
      committed += (until - state.boot_done) * booked.price_per_second;
    }
  }
  return committed + category.setup_cost + seconds * category.price_per_second < cap;
}

void Execution::on_timeout(VmId vm, dag::TaskId task) {
  const TaskState& ts = tasks_[task];
  if (ts.finished || !ts.started || vm_of_[task] != vm) return;  // raced with completion
  CLOUDWF_ASSERT(policy_ != nullptr);

  // Policy checks: a meaningfully faster category must exist...
  const platform::CategoryId fastest = platform_.fastest_category();
  const platform::VmCategory& target = platform_.category(fastest);
  if (target.speed < policy_->min_speedup * vm_speed(vm)) return;
  // ... and the spend guard must admit the rescue VM for the conservative
  // compute of the restarted task plus its input re-stage.
  Bytes restage = wf_.external_input_of(task);
  for (dag::EdgeId e : wf_.in_edges(task)) restage += wf_.edge(e).bytes;
  const Seconds projected_time = wf_.task(task).conservative_weight() / target.speed +
                                 restage / platform_.bandwidth();
  if (!below_cap(target, projected_time, policy_->budget_cap)) return;

  migrate(vm, task);
}

void Execution::interrupt_running(VmId vm, dag::TaskId task) {
  TaskState& ts = tasks_[task];
  VmState& state = vms_[vm];
  // Drop the pending task_done (and timeout) events by bumping the epoch;
  // the work done so far is lost.
  ++ts.epoch;
  ts.started = false;
  ++state.free_procs;
  // The busy accounting speculatively added the full duration at start;
  // replace it with the actually spent slice.
  state.busy -= records_[task].finish - records_[task].start;
  state.busy += now_ - records_[task].start;
}

void Execution::migrate(VmId from, dag::TaskId task) {
  interrupt_running(from, task);
  vms_[from].end = std::max(vms_[from].end, now_);
  ++records_[task].restarts;
  ++migrations_;
  // The rescue VM: the fastest category, this task only.
  relocate(Relocation::migration, from, {&task, 1}, invalid_vm, platform_.fastest_category());
}

void Execution::on_crash(VmId vm) {
  VmState& state = vms_[vm];
  if (state.dead || state.boot != BootState::up) return;
  // A crash only matters while the VM still owes work; afterwards the VM is
  // considered released (billing already stopped at its last activity).
  bool live = false;
  for (dag::TaskId t : plans_[vm].tasks) {
    if (vm_of_[t] == vm && !tasks_[t].finished && !tasks_[t].failed) {
      live = true;
      break;
    }
  }
  if (!live) return;
  ++stats_.crashes;
  state.crashed = true;
  state.dead = true;
  state.end = std::max(state.end, now_);  // billing freezes here
  if (obs_)
    emit({.kind = obs::EventKind::fault_injected,
          .time = now_,
          .vm = obs_vm(vm),
          .detail = "vm_crash"});
  recover_tasks(vm, /*allow_provisioning=*/true);
}

void Execution::abandon_boot(VmId vm) {
  // Provisioning retries exhausted.  Nothing was ever billed (the VM never
  // came up); re-home its tasks without provisioning a replacement — the
  // boot retries *were* the re-provisioning attempts for this placement.
  vms_[vm].dead = true;
  recover_tasks(vm, /*allow_provisioning=*/false);
}

void Execution::recover_tasks(VmId from, bool allow_provisioning) {
  // 1. Interrupt whatever was running; bounded re-executions per task.
  for (dag::TaskId t : plans_[from].tasks) {
    if (vm_of_[t] != from) continue;
    TaskState& ts = tasks_[t];
    if (!ts.started || ts.finished || ts.failed) continue;
    interrupt_running(from, t);
    stats_.wasted_compute += now_ - records_[t].start;
    ++records_[t].restarts;
    ++stats_.task_reexecutions;
    if (records_[t].restarts > recovery_->max_task_retries) fail_task(t);
  }

  // 2. Everything not finished (and not failed) must find a new home.
  std::vector<dag::TaskId> pending;
  for (dag::TaskId t : plans_[from].tasks)
    if (vm_of_[t] == from && !tasks_[t].finished && !tasks_[t].failed) pending.push_back(t);
  if (pending.empty()) return;

  // 3. Pick the new home: a same-category replacement while the spend guard
  //    admits the remaining conservative work under the recovery budget cap,
  //    otherwise degrade gracefully and re-pack onto a surviving already-paid
  //    VM.
  const platform::VmCategory& category = vm_category(from);
  bool fresh = false;
  if (allow_provisioning) {
    Instructions remaining = 0;
    for (dag::TaskId t : pending) remaining += wf_.task(t).conservative_weight();
    fresh = below_cap(category, remaining / category.speed, recovery_->budget_cap);
    if (!fresh) stats_.degraded = true;
  }
  VmId target = invalid_vm;
  if (!fresh) {
    // Survivor with the least pending work (ties to the lowest id).
    std::size_t best_load = 0;
    for (VmId v = 0; v < vms_.size(); ++v) {
      if (v == from || vms_[v].dead || vms_[v].boot == BootState::unrequested) continue;
      std::size_t load = 0;
      for (dag::TaskId t : plans_[v].tasks)
        if (vm_of_[t] == v && !tasks_[t].finished && !tasks_[t].failed) ++load;
      if (target == invalid_vm || load < best_load) {
        target = v;
        best_load = load;
      }
    }
    if (target == invalid_vm) {
      // No paid VM survives and provisioning is vetoed: terminal failures.
      for (dag::TaskId t : pending) fail_task(t);
      return;
    }
    // Merge the moved tasks into the unstarted tail of the survivor's list,
    // ordered by schedule priority.  Starts happen strictly in list order,
    // so the merged order must stay dependency-consistent; the priorities of
    // all built-in algorithms (bottom levels, decision order) are
    // topological, which guarantees exactly that.
    auto& plan = plans_[target].tasks;
    const auto head = static_cast<std::ptrdiff_t>(vms_[target].next_start_idx);
    std::vector<dag::TaskId> tail(plan.begin() + head, plan.end());
    tail.insert(tail.end(), pending.begin(), pending.end());
    std::stable_sort(tail.begin(), tail.end(), [this](dag::TaskId a, dag::TaskId b) {
      return schedule_->priority(a) > schedule_->priority(b);
    });
    plan.resize(static_cast<std::size_t>(head));
    plan.insert(plan.end(), tail.begin(), tail.end());
  }

  if (obs_)
    emit({.kind = obs::EventKind::fault_recovered,
          .time = now_,
          .vm = obs_vm(fresh ? static_cast<VmId>(plans_.size()) : target),
          .detail = fresh ? "replacement_vm" : "repack",
          .value = static_cast<double>(pending.size())});
  relocate(Relocation::recovery, from, pending, target, plans_[from].category);
}

void Execution::relocate(Relocation why, VmId from, std::span<const dag::TaskId> moved, VmId to,
                         platform::CategoryId category) {
  // 1. The new home: \p to, or (invalid_vm) a fresh VM of \p category that
  //    runs exactly the moved tasks.
  const bool fresh = to == invalid_vm;
  if (fresh) {
    to = static_cast<VmId>(plans_.size());
    plans_.push_back(VmPlan{category, std::vector<dag::TaskId>(moved.begin(), moved.end())});
    vms_.emplace_back();
    vms_.back().free_procs = vm_category(to).processors;
    vms_.back().recovery_vm = why == Relocation::recovery;
  }

  // 2. Re-home the tasks.
  for (dag::TaskId t : moved) {
    vm_of_[t] = to;
    records_[t].vm = to;
    if (obs_)
      emit({.kind = obs::EventKind::task_dispatch,
            .time = now_,
            .vm = obs_vm(to),
            .task = obs_task(t),
            .name = wf_.task(t).name,
            .detail = why == Relocation::migration ? "migration" : "recovery"});
  }

  // 3. Re-stage inputs.  Uploads are collected first and enqueued only after
  //    every counter is rebuilt: zero-byte jobs dispatch inline and could
  //    otherwise start a task whose pending-input counts are half-built.
  std::vector<TransferJob> uploads;
  for (dag::TaskId t : moved) restage_task(t, uploads);

  // Queued downloads to the old host for tasks that left it (or failed) are
  // void; in-flight ones are discarded on completion.
  LinkQueue kept;
  for (std::size_t ji = vms_[from].queue_down.head; ji != no_job;) {
    const std::size_t next = jobs_[ji].next;
    const TransferJob& j = jobs_[ji];
    if (vm_of_[j.task] == from && !tasks_[j.task].failed) push_job(kept, ji);
    ji = next;
  }
  vms_[from].queue_down = kept;

  // 4. Boot before the uploads: a zero-byte upload lands at the datacenter
  //    inline, and the boot gate would otherwise book the fresh VM early.
  if (fresh) request_boot(to);
  for (const TransferJob& job : uploads) enqueue_job(job);

  // 5. A running host fetches the inputs now; a booting one picks the moved
  //    tasks up in its boot scan.  The old host may start tasks that waited
  //    for the freed processor (a dead one starts nothing).
  if (vms_[to].boot == BootState::up) {
    enqueue_downloads(to, moved);
    try_start_tasks(to);
  }
  try_start_tasks(from);
}

void Execution::restage_task(dag::TaskId task, std::vector<TransferJob>& uploads) {
  TaskState& ts = tasks_[task];
  ts.remote_in_pending = 0;
  ts.local_in_pending = 0;
  ts.dc_in_pending = 0;
  ts.gate_time = now_;
  ts.gate_task = dag::invalid_task;
  const VmId to = vm_of_[task];
  if (wf_.external_input_of(task) > 0) ++ts.remote_in_pending;  // re-fetch from the DC
  for (dag::EdgeId e : wf_.in_edges(task)) {
    const dag::Edge& edge = wf_.edge(e);
    if (vm_of_[edge.src] == to && !tasks_[edge.src].finished) {
      // The producer runs (or re-runs) on the same host: a local edge again.
      edge_needs_transfer_[e] = false;
      ++ts.local_in_pending;
      continue;
    }
    // The data must come through the datacenter.
    ++ts.remote_in_pending;
    if (edge_at_dc_[e] >= 0) {
      download_enqueued_[e] = false;  // re-download on the new host
    } else {
      // A finished producer's output that exists only on its volume
      // (possibly a dead VM's persistent disk) drains through the datacenter
      // now; an unfinished producer uploads on completion, and a queued or
      // in-flight upload lands at the DC on its own.
      ++ts.dc_in_pending;
      if (tasks_[edge.src].finished && !edge_needs_transfer_[e])
        uploads.push_back({JobKind::edge_upload, vm_of_[edge.src], e, edge.src, edge.bytes});
      edge_needs_transfer_[e] = true;
    }
  }
  // The task is unfinished, so none of its outputs has left its host yet.
  // Consumers left behind on the old host (a migration moves one task, so
  // its local consumers stay) now receive the output through the datacenter;
  // a consumer already on the new host (a recovery re-pack) receives it
  // locally.
  for (dag::EdgeId e : wf_.out_edges(task)) {
    const dag::TaskId consumer = wf_.edge(e).dst;
    TaskState& cs = tasks_[consumer];
    const bool local = vm_of_[consumer] == to;
    if (cs.failed || edge_needs_transfer_[e] != local) continue;
    edge_needs_transfer_[e] = !local;
    if (local) {
      CLOUDWF_ASSERT(cs.remote_in_pending > 0 && cs.dc_in_pending > 0);
      --cs.remote_in_pending;
      --cs.dc_in_pending;
      ++cs.local_in_pending;
    } else {
      CLOUDWF_ASSERT(cs.local_in_pending > 0);
      --cs.local_in_pending;
      ++cs.remote_in_pending;
      ++cs.dc_in_pending;
    }
  }
}

void Execution::main_loop() {
  const obs::ProfileScope scope("sim.event_loop");
  while (tasks_terminal_ < wf_.task_count() || fluid_.active_count() > 0 ||
         pending_retries_ > 0) {
    const Seconds flow_time = fluid_.next_completion();
    const Seconds event_time = events_.empty() ? infinity : events_.front().time;
    if (flow_time == infinity && event_time == infinity) {
      if (tasks_terminal_ < wf_.task_count()) report_deadlock();
      break;
    }
    if (flow_time <= event_time) {
      now_ = flow_time;
      for (FlowId flow : fluid_.advance(now_)) {
        ++events_processed_;
        on_flow_complete(flow);
      }
    } else {
      std::pop_heap(events_.begin(), events_.end(), EventLater{});
      const Event event = events_.back();
      events_.pop_back();
      now_ = event.time;
      ++events_processed_;
      // Keep the fluid clock in sync so rates stay correct.
      for (FlowId flow : fluid_.advance(now_)) {
        ++events_processed_;
        on_flow_complete(flow);
      }
      switch (event.kind) {
        case Event::Kind::boot_done: on_boot_done(event.vm); break;
        case Event::Kind::task_done:
          if (event.epoch == tasks_[event.task].epoch) on_task_done(event.vm, event.task);
          break;
        case Event::Kind::timeout:
          if (event.epoch == tasks_[event.task].epoch) on_timeout(event.vm, event.task);
          break;
        case Event::Kind::crash: on_crash(event.vm); break;
        case Event::Kind::transfer_retry: on_transfer_retry(event.job); break;
      }
    }
  }
}

void Execution::report_deadlock() const {
  std::ostringstream os;
  os << "Simulator: schedule deadlocked in workflow '" << wf_.name() << "'; stuck tasks:";
  for (dag::TaskId t = 0; t < wf_.task_count(); ++t) {
    const TaskState& ts = tasks_[t];
    if (ts.finished || ts.failed) continue;
    os << ' ' << wf_.task(t).name << "(remote=" << ts.remote_in_pending
       << ",local=" << ts.local_in_pending << ",dc=" << ts.dc_in_pending << ')';
  }
  throw ValidationError(os.str());
}

Totals Execution::totals() const {
  Totals totals;
  Seconds start_first = infinity;
  for (VmId v = 0; v < vms_.size(); ++v) {
    const VmState& state = vms_[v];
    // Every VM that came *up* bills, including one abandoned by a migration
    // or killed by a crash; a provisioning that never succeeded is uncharged.
    if (state.boot != BootState::up) continue;
    const Seconds end = std::max(state.end, state.boot_done);
    ++totals.used_vms;
    start_first = std::min(start_first, state.boot_request);
    totals.end_last = std::max(totals.end_last, end);
    const platform::VmCategory& category = vm_category(v);
    const Dollars vm_total =
        platform::vm_cost(category, state.boot_done, end, platform_.billing_quantum());
    totals.cost.vm_time += vm_total - category.setup_cost;
    totals.cost.vm_setup += category.setup_cost;
    if (state.recovery_vm) totals.recovery_cost += vm_total;
  }
  CLOUDWF_ASSERT(totals.used_vms > 0 || stats_.failed_tasks > 0);
  totals.start_first = start_first == infinity ? 0 : start_first;  // nothing ever came up

  if (totals.used_vms > 0) {
    Bytes dc_footprint = wf_.external_input_bytes() + wf_.external_output_bytes();
    for (dag::EdgeId e = 0; e < wf_.edge_count(); ++e)
      if (edge_needs_transfer_[e]) dc_footprint += wf_.edge(e).bytes;
    const platform::CostBreakdown dc =
        platform::datacenter_cost(platform_, wf_.external_input_bytes(),
                                  wf_.external_output_bytes(), totals.start_first,
                                  totals.end_last, dc_footprint);
    totals.cost.dc_time = dc.dc_time;
    totals.cost.dc_transfer = dc.dc_transfer;
  }
  return totals;
}

SimResult Execution::finalize() const {
  const Totals totals = this->totals();
  SimResult result;
  result.tasks = records_;
  result.vms.resize(vms_.size());
  result.migrations = migrations_;
  result.faults = stats_;
  result.faults.recovery_cost = totals.recovery_cost;
  result.events_processed = events_processed_;
  result.start_first = totals.start_first;
  result.end_last = totals.end_last;
  result.makespan = totals.end_last - totals.start_first;
  result.cost = totals.cost;
  result.used_vms = totals.used_vms;

  std::vector<obs::Event> tail_events;  // synthesized shutdown/billing events
  for (VmId v = 0; v < vms_.size(); ++v) {
    const VmState& state = vms_[v];
    VmRecord& record = result.vms[v];
    record.category = plans_[v].category;
    record.task_count = state.tasks_done;
    record.boot_attempts = state.boot_attempts;
    record.crashed = state.crashed;
    record.recovery = state.recovery_vm;
    if (state.boot == BootState::unrequested) continue;
    record.boot_request = state.boot_request;
    record.boot_done = state.boot_done;
    if (state.boot != BootState::up) continue;
    record.billed = true;
    record.end = std::max(state.end, state.boot_done);
    record.busy = state.busy;
    if (obs_) {
      const platform::VmCategory& category = vm_category(v);
      // Billing-quantum boundaries crossed by this VM's billed interval,
      // synthesized at shutdown (the engine itself bills lazily).  Capped so
      // a pathological quantum cannot flood the trace.
      const Seconds quantum = platform_.billing_quantum();
      if (quantum > 0) {
        const double crossed = std::floor((record.end - state.boot_done) / quantum);
        const double ticks = std::min(crossed, 1000.0);
        for (double k = 1; k <= ticks; ++k)
          tail_events.push_back({.kind = obs::EventKind::billing_tick,
                                 .time = state.boot_done + k * quantum,
                                 .vm = obs_vm(v),
                                 .value = k});
      }
      tail_events.push_back({.kind = obs::EventKind::vm_shutdown,
                             .time = record.end,
                             .vm = obs_vm(v),
                             .detail = category.name,
                             .value = record.end - state.boot_done});
    }
  }
  // The synthesized shutdown/billing tail is gathered per VM (id order), so
  // it must be re-sorted before emission to honor the EventSink contract of
  // globally non-decreasing timestamps.  stable_sort keeps the per-VM
  // tick -> shutdown sequence for events sharing a timestamp.
  if (obs_) {
    std::stable_sort(tail_events.begin(), tail_events.end(),
                     [](const obs::Event& a, const obs::Event& b) { return a.time < b.time; });
    for (const obs::Event& event : tail_events) emit(event);
  }

  result.transfers.count = transfers_done_;
  result.transfers.bytes = transfer_bytes_;
  result.transfers.peak_concurrent = fluid_.peak_active();
  return result;
}

SimResult Execution::run() {
  reset();
  main_loop();
  SimResult result = finalize();
  if (obs_) bus_->flush();
  return result;
}

Prediction Execution::predict() {
  reset();
  main_loop();
  const Totals totals = this->totals();
  return {totals.end_last - totals.start_first, totals.cost.total()};
}

/// Static lower bound on the makespan of a fault-free run of a plan with
/// fixed weights (DESIGN.md §12, "Makespan lower bound"): a longest path over
/// precedence edges plus VM-list edges that keeps the engine's boot, start
/// and transfer rules but drops per-link FIFO queueing and datacenter
/// contention, both of which only delay a run.  O(tasks + edges) per call
/// and allocation-free once constructed.
class MakespanBound {
 public:
  MakespanBound(const dag::Workflow& wf, const platform::Platform& platform,
                const dag::WeightRealization& weights)
      : wf_(wf),
        platform_(platform),
        weights_(weights),
        // FluidNetwork::advance completes a flow up to one nanosecond early,
        // and a run has at most this many flows.
        slack_(1e-9 * static_cast<double>(2 * wf.edge_count() + 2 * wf.task_count())),
        pending_(wf.task_count()),
        prev_(wf.task_count()),
        next_(wf.task_count()),
        boot_(wf.task_count()),
        start_(wf.task_count()),
        finish_(wf.task_count()) {
    const BytesPerSec bw = platform.bandwidth();
    arc_.reserve(wf.edge_count());
    for (const dag::Edge& edge : wf.edges()) arc_.push_back(edge.bytes / bw);
    for (dag::TaskId t = 0; t < wf.task_count(); ++t) {
      in_degree_.push_back(static_cast<std::uint32_t>(wf.in_edges(t).size()));
      input_arc_.push_back(wf.external_input_of(t) / bw);
      output_arc_.push_back(wf.external_output_of(t) / bw);
    }
    ready_.reserve(wf.task_count());
  }

  /// The bound for the plan \p plans with task placement \p vm_of, or
  /// nullopt when precedence plus list order has a cycle (the run deadlocks).
  [[nodiscard]] std::optional<Seconds> operator()(std::span<const VmPlan> plans,
                                                  std::span<const VmId> vm_of);

 private:
  const dag::Workflow& wf_;
  const platform::Platform& platform_;
  const dag::WeightRealization& weights_;
  const Seconds slack_;
  std::vector<Seconds> arc_;                // per edge: bytes / bw
  std::vector<Seconds> input_arc_;          // per task: external input / bw
  std::vector<Seconds> output_arc_;         // per task: external output / bw
  std::vector<std::uint32_t> in_degree_;    // per task: precedence in-degree
  // Per-call scratch, per task.
  std::vector<std::uint32_t> pending_;  // unprocessed predecessors (edges + list)
  std::vector<dag::TaskId> prev_;       // list predecessor on its VM
  std::vector<dag::TaskId> next_;       // list successor on its VM
  std::vector<Seconds> boot_;           // boot_done of its VM
  std::vector<Seconds> start_;
  std::vector<Seconds> finish_;
  std::vector<dag::TaskId> ready_;  // Kahn stack
};

std::optional<Seconds> MakespanBound::operator()(std::span<const VmPlan> plans,
                                                 std::span<const VmId> vm_of) {
  const obs::ProfileScope scope("sim.bound");
  pending_ = in_degree_;
  for (const VmPlan& plan : plans) {
    dag::TaskId prev = dag::invalid_task;
    for (const dag::TaskId t : plan.tasks) {
      prev_[t] = prev;
      if (prev != dag::invalid_task) {
        next_[prev] = t;
        ++pending_[t];
      }
      prev = t;
    }
    if (prev != dag::invalid_task) next_[prev] = dag::invalid_task;
  }
  ready_.clear();
  for (dag::TaskId t = 0; t < wf_.task_count(); ++t)
    if (pending_[t] == 0) ready_.push_back(t);

  // The first task popped has no predecessor at all, so its VM books at time
  // zero and start_first = 0: the makespan is the end of the run.
  const std::span<const dag::Edge> edges = wf_.edges();
  Seconds end = 0;
  std::size_t processed = 0;
  while (!ready_.empty()) {
    const dag::TaskId t = ready_.back();
    ready_.pop_back();
    ++processed;
    const VmId vm = vm_of[t];
    const platform::VmCategory& category = platform_.category(plans[vm].category);
    const std::span<const dag::EdgeId> in = wf_.in_edges(t);
    const dag::TaskId prev = prev_[t];
    Seconds start = 0;
    if (prev == dag::invalid_task) {
      // The VM books once the cross-VM inputs of its first task are uploaded.
      Seconds request = 0;
      for (const dag::EdgeId e : in)
        if (vm_of[edges[e].src] != vm) request = std::max(request, finish_[edges[e].src] + arc_[e]);
      boot_[t] = request + platform_.boot_delay();
      end = std::max(end, boot_[t]);
      start = boot_[t];
    } else {
      // List order: a single processor frees at the previous finish; more
      // processors still start tasks in list order.
      boot_[t] = boot_[prev];
      start = std::max(boot_[t], category.processors == 1 ? finish_[prev] : start_[prev]);
    }
    start = std::max(start, boot_[t] + input_arc_[t]);
    for (const dag::EdgeId e : in) {
      const dag::TaskId src = edges[e].src;
      if (vm_of[src] == vm) {
        start = std::max(start, finish_[src]);
      } else {
        // Uploaded, then downloaded once the VM is up.
        start = std::max(start, std::max(finish_[src] + arc_[e], boot_[t]) + arc_[e]);
      }
    }
    start_[t] = start;
    finish_[t] = start + weights_[t] / category.speed;
    end = std::max(end, finish_[t] + output_arc_[t]);

    for (const dag::EdgeId e : wf_.out_edges(t))
      if (--pending_[edges[e].dst] == 0) ready_.push_back(edges[e].dst);
    if (next_[t] != dag::invalid_task && --pending_[next_[t]] == 0) ready_.push_back(next_[t]);
  }
  if (processed < wf_.task_count()) return std::nullopt;
  // Early flow completions, plus rounding (the engine sums the same times in
  // a different order).
  return end - slack_ - 1e-12 * end;
}

/// Process-wide post-run hook (see simulator.hpp).  Relaxed ordering is
/// enough: installation happens once at startup, before any simulation.
std::atomic<PostRunCheck>& post_run_check_storage() {
  static std::atomic<PostRunCheck> hook{nullptr};
  return hook;
}

}  // namespace

/// The engine arena of one Simulator.
class Simulator::Arena : public Execution {
 public:
  using Execution::Execution;
};

class Predictor::Engine {
 public:
  Engine(const dag::Workflow& wf, const platform::Platform& platform, const Schedule& base)
      : wf_(wf),
        platform_(platform),
        weights_(dag::conservative_weights(wf)),
        arena_(wf, platform, nullptr),
        base_(wf.task_count()) {
    arena_.configure(weights_, nullptr, nullptr, nullptr);
    rebase(base);
  }

  void rebase(const Schedule& schedule) {
    base_ = schedule;
    arena_.load(base_);
    arena_.reserve_static();
  }

  SimResult run() {
    SimResult result = arena_.run();
    if (const PostRunCheck hook = post_run_check()) hook(wf_, platform_, base_, result);
    return result;
  }

  std::optional<Prediction> predict(const Move& move, Seconds cutoff) {
    return with_move(move, [&]() -> std::optional<Prediction> {
      const std::optional<Seconds> bound = bound_of_moved();
      if (const PostRunCheck hook = post_run_check()) {
        // Checked mode simulates every probe and audits the bound too.
        Schedule moved = base_;
        moved.apply(move);
        const SimResult result = arena_.run();
        hook(wf_, platform_, moved, result);
        if (bound && result.makespan < *bound) {
          std::ostringstream os;
          os.precision(17);
          os << "Predictor: makespan " << result.makespan << " of a move of task "
             << wf_.task(move.task).name << " is below its lower bound " << *bound;
          throw InternalError(os.str());
        }
        return Prediction{result.makespan, result.total_cost()};
      }
      if (bound && *bound >= cutoff) return std::nullopt;
      return arena_.predict();
    });
  }

  std::optional<Seconds> lower_bound(const Move& move) {
    return with_move(move, [&] { return bound_of_moved(); });
  }

 private:
  /// The makespan bound of the arena's current plan; its tables are built by
  /// the first probe, so a predictor that only run()s never pays for them.
  std::optional<Seconds> bound_of_moved() {
    if (!bound_) bound_.emplace(wf_, platform_, weights_);
    return (*bound_)(arena_.plans(), arena_.assignment());
  }

  /// Runs \p probe on the arena's plan with \p move applied and validated.
  template <class Probe>
  std::invoke_result_t<Probe> with_move(const Move& move, Probe&& probe) {
    require(move.task < wf_.task_count(), "Predictor: move task out of range");
    require(move.fresh ? move.vm == base_.vm_count() && move.category < platform_.category_count()
                       : move.vm < base_.vm_count(),
            "Predictor: move target is not a VM of the base schedule");
    // The delta is reverted on every exit, including a throwing check.
    struct Revert {
      Execution& arena;
      const Move& move;
      VmId from;
      std::size_t index;
      ~Revert() { arena.revert(move, from, index); }
    };
    const VmId from = arena_.vm_of(move.task);
    const Revert revert{arena_, move, from, arena_.apply(move)};
    // Before the bound: a misordered move throws instead of being skipped.
    arena_.validate_order();
    return probe();
  }

  const dag::Workflow& wf_;
  const platform::Platform& platform_;
  const dag::WeightRealization weights_;
  Execution arena_;
  std::optional<MakespanBound> bound_;  // built by the first probe
  Schedule base_;  // the plan probes apply their move to
};

Predictor::Predictor(const dag::Workflow& wf, const platform::Platform& platform,
                     const Schedule& base) {
  require(wf.frozen(), "Predictor: workflow must be frozen");
  engine_ = std::make_unique<Engine>(wf, platform, base);
}

Predictor::~Predictor() = default;

void Predictor::rebase(const Schedule& schedule) { engine_->rebase(schedule); }

SimResult Predictor::run() { return engine_->run(); }

std::optional<Prediction> Predictor::predict(const Move& move, Seconds cutoff) {
  return engine_->predict(move, cutoff);
}

std::optional<Seconds> Predictor::lower_bound(const Move& move) {
  return engine_->lower_bound(move);
}

void set_post_run_check(PostRunCheck hook) noexcept {
  post_run_check_storage().store(hook, std::memory_order_relaxed);
}

PostRunCheck post_run_check() noexcept {
  return post_run_check_storage().load(std::memory_order_relaxed);
}

Simulator::Simulator(const dag::Workflow& wf, const platform::Platform& platform,
                     obs::EventBus* bus)
    : wf_(wf), platform_(platform), bus_(bus) {
  require(wf.frozen(), "Simulator: workflow must be frozen");
}

Simulator::~Simulator() = default;

void RunOptions::validate() const {
  if (online) {
    require(online->timeout_sigmas >= 0, "RunOptions: negative online timeout_sigmas");
    require(online->min_speedup >= 1.0, "RunOptions: online min_speedup must be >= 1");
  }
  faults.validate();
  recovery.validate();
  require(!online || !faults.enabled(),
          "RunOptions: online re-scheduling cannot be combined with fault injection");
}

SimResult Simulator::run(const Schedule& schedule, const dag::WeightRealization& weights,
                         const RunOptions& options) const {
  options.validate();
  if (!arena_) arena_ = std::make_unique<Arena>(wf_, platform_, bus_);
  const bool faults = options.faults.enabled();
  arena_->configure(weights, options.online ? &*options.online : nullptr,
                    faults ? &options.faults : nullptr, faults ? &options.recovery : nullptr);
  arena_->load(schedule);
  SimResult result = arena_->run();
  if (const PostRunCheck hook = post_run_check()) hook(wf_, platform_, schedule, result);
  return result;
}

std::vector<dag::TaskId> schedule_critical_path(const SimResult& result) {
  require(!result.tasks.empty(), "schedule_critical_path: empty result");
  dag::TaskId last = 0;
  for (dag::TaskId t = 0; t < result.tasks.size(); ++t)
    if (result.tasks[t].finish > result.tasks[last].finish) last = t;

  std::vector<dag::TaskId> path;
  dag::TaskId current = last;
  while (current != dag::invalid_task) {
    path.push_back(current);
    // Defensive cap: bound_by links cannot cycle (they point to strictly
    // earlier events), but guard against record corruption anyway.
    require(path.size() <= result.tasks.size(), "schedule_critical_path: bound_by cycle");
    current = result.tasks[current].bound_by;
  }
  std::reverse(path.begin(), path.end());
  return path;
}

}  // namespace cloudwf::sim
