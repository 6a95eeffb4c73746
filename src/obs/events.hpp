#pragma once

/// \file events.hpp
/// \brief Typed simulation/scheduling events and the sink interface.
///
/// The observability layer (DESIGN.md Section 10) describes one workflow
/// execution as a stream of flat, self-describing events: VM lifecycle,
/// task lifecycle, data transfers, billing-quantum ticks, fault
/// injection/recovery and scheduler decisions.  Producers (the simulator
/// and the list schedulers) emit through an EventBus; consumers implement
/// EventSink (Chrome trace exporter, metrics, test recorders).
///
/// Events are deliberately a single struct rather than a variant: every
/// kind uses the same few fields (time, vm, task, name, detail, value,
/// duration) with kind-specific meaning, which keeps emission sites one
/// statement and sinks a single switch.

#include <cstdint>
#include <string_view>

#include "common/units.hpp"

namespace cloudwf::obs {

/// Event taxonomy.  See the table in DESIGN.md Section 10 for the exact
/// field contract of every kind.
enum class EventKind {
  vm_boot_request,  ///< VM booked; boot (uncharged) begins
  vm_boot_done,     ///< VM up; duration = boot latency incl. retries
  vm_shutdown,      ///< VM released; value = billed seconds
  task_dispatch,    ///< task (re)assigned to a VM's list
  task_start,       ///< compute starts; duration = planned compute time
  task_finish,      ///< compute ends; duration = actual compute time
  task_fail,        ///< terminal failure; the task will never complete
  transfer_start,   ///< a flow starts on a VM link; value = bytes
  transfer_retry,   ///< failed flow scheduled for retry; value = backoff s
  transfer_done,    ///< flow delivered; value = bytes, duration = elapsed
  billing_tick,     ///< billing-quantum boundary crossed; value = index
  fault_injected,   ///< injected failure (boot/crash/transfer); see detail
  fault_recovered,  ///< recovery action taken; see detail
  sched_decision,   ///< list-scheduler placement choice; see detail
};

/// Stable lower-snake-case name of an event kind (trace "cat"/schema id).
[[nodiscard]] constexpr std::string_view to_string(EventKind kind) {
  switch (kind) {
    case EventKind::vm_boot_request: return "vm_boot_request";
    case EventKind::vm_boot_done: return "vm_boot_done";
    case EventKind::vm_shutdown: return "vm_shutdown";
    case EventKind::task_dispatch: return "task_dispatch";
    case EventKind::task_start: return "task_start";
    case EventKind::task_finish: return "task_finish";
    case EventKind::task_fail: return "task_fail";
    case EventKind::transfer_start: return "transfer_start";
    case EventKind::transfer_retry: return "transfer_retry";
    case EventKind::transfer_done: return "transfer_done";
    case EventKind::billing_tick: return "billing_tick";
    case EventKind::fault_injected: return "fault_injected";
    case EventKind::fault_recovered: return "fault_recovered";
    case EventKind::sched_decision: return "sched_decision";
  }
  return "unknown";
}

/// "No VM / no task" marker (ids are emitted as signed so -1 is printable).
inline constexpr std::int64_t no_id = -1;

/// One observability event.  `time` is simulation time in seconds for
/// engine events and a monotonic decision index for sched_decision (the
/// scheduler plans before simulated time exists).
///
/// `name` and `detail` are borrowed views, NOT owned strings: producers on
/// the hot path point them at stable storage (task/category names) or at a
/// stack buffer (sched_decision details), so emitting an event never
/// allocates.  The views are guaranteed valid only for the duration of
/// on_event(); a sink that retains events must copy the bytes into storage
/// it owns (RecordingSink does).
struct Event {
  EventKind kind{};
  Seconds time = 0;
  std::int64_t vm = no_id;    ///< VM track; no_id for global events
  std::int64_t task = no_id;  ///< task id; no_id when not task-scoped
  std::string_view name{};    ///< human label (task name, transfer label)
  std::string_view detail{};  ///< kind-specific rationale ("up", "vm_crash", ...)
  double value = 0;           ///< bytes / dollars / index (kind-specific)
  Seconds duration = 0;       ///< slice length for *_done/finish events
};

/// Consumer interface.  Sinks must tolerate events in emission order only:
/// the run loop emits in globally non-decreasing simulation time and
/// sched_decision uses its own index timeline.  After the run loop the
/// engine emits one time-sorted epilogue of billing_tick / vm_shutdown
/// events (a VM's billing end is only known retroactively), so sinks see at
/// most one rewind, into that epilogue.
class EventSink {
 public:
  virtual ~EventSink() = default;
  virtual void on_event(const Event& event) = 0;
  /// Called once when the producer is done (end of run / before export).
  virtual void flush() {}
};

}  // namespace cloudwf::obs
