#include "obs/chrome_trace.hpp"

#include <string>

#include "common/atomic_file.hpp"

namespace cloudwf::obs {
namespace {

/// Track (tid) layout inside the single trace process.
constexpr std::int64_t tid_scheduler = 0;  ///< sched_decision index timeline
constexpr std::int64_t tid_global = 1;     ///< sim-time events without a VM
constexpr std::int64_t tid_vm_base = 10;   ///< first VM track
constexpr std::int64_t tracks_per_vm = 3;  ///< compute, uplink, downlink

[[nodiscard]] std::int64_t vm_track(std::int64_t vm, std::int64_t lane) {
  return tid_vm_base + vm * tracks_per_vm + lane;
}

/// Trace timestamps are microseconds; cloudwf time is seconds.
[[nodiscard]] double to_us(double seconds) { return seconds * 1e6; }

[[nodiscard]] Json args_json(const Event& event) {
  Json::Object args;
  args["kind"] = std::string(to_string(event.kind));
  if (event.vm != no_id) args["vm"] = static_cast<double>(event.vm);
  if (event.task != no_id) args["task"] = static_cast<double>(event.task);
  if (!event.detail.empty()) args["detail"] = std::string(event.detail);
  if (event.value != 0) args["value"] = event.value;
  return Json(std::move(args));
}

}  // namespace

void ChromeTraceSink::ensure_track(std::int64_t tid, const std::string& name) {
  if (!process_named_) {
    process_named_ = true;
    Json::Object meta;
    meta["name"] = "process_name";
    meta["ph"] = "M";
    meta["pid"] = 1;
    meta["tid"] = 0;
    Json::Object args;
    args["name"] = "cloudwf simulation";
    meta["args"] = Json(std::move(args));
    events_.push_back(Json(std::move(meta)));
  }
  auto [it, inserted] = tracks_.try_emplace(tid, true);
  if (!inserted) return;
  Json::Object meta;
  meta["name"] = "thread_name";
  meta["ph"] = "M";
  meta["pid"] = 1;
  meta["tid"] = static_cast<double>(tid);
  Json::Object args;
  args["name"] = name;
  meta["args"] = Json(std::move(args));
  events_.push_back(Json(std::move(meta)));
  // sort_index keeps Perfetto's track order stable (scheduler first, then
  // VMs by id) instead of first-event order.
  Json::Object sort;
  sort["name"] = "thread_sort_index";
  sort["ph"] = "M";
  sort["pid"] = 1;
  sort["tid"] = static_cast<double>(tid);
  Json::Object sort_args;
  sort_args["sort_index"] = static_cast<double>(tid);
  sort["args"] = Json(std::move(sort_args));
  events_.push_back(Json(std::move(sort)));
}

void ChromeTraceSink::push_slice(const Event& event, std::int64_t tid,
                                 const char* category) {
  Json::Object record;
  record["name"] =
      std::string(event.name.empty() ? to_string(event.kind) : event.name);
  record["cat"] = category;
  record["ph"] = "X";
  record["ts"] = to_us(event.time - event.duration);
  record["dur"] = to_us(event.duration);
  record["pid"] = 1;
  record["tid"] = static_cast<double>(tid);
  record["args"] = args_json(event);
  events_.push_back(Json(std::move(record)));
}

void ChromeTraceSink::push_instant(const Event& event, std::int64_t tid,
                                   const char* category) {
  Json::Object record;
  record["name"] =
      std::string(event.name.empty() ? to_string(event.kind) : event.name);
  record["cat"] = category;
  record["ph"] = "i";
  record["ts"] = to_us(event.time);
  record["pid"] = 1;
  record["tid"] = static_cast<double>(tid);
  record["s"] = "t";  // thread-scoped instant
  record["args"] = args_json(event);
  events_.push_back(Json(std::move(record)));
}

void ChromeTraceSink::on_event(const Event& event) {
  const std::int64_t vm = event.vm;
  const auto vm_name = [vm](const char* suffix) {
    std::string name = "vm " + std::to_string(vm);
    if (*suffix != '\0') name += suffix;
    return name;
  };
  switch (event.kind) {
    case EventKind::sched_decision:
      ensure_track(tid_scheduler, "scheduler decisions");
      // `time` is the decision index; one synthetic second per decision
      // keeps them readable as an ordered lane in Perfetto.
      push_instant(event, tid_scheduler, "sched");
      break;
    case EventKind::vm_boot_request:
      ensure_track(vm_track(vm, 0), vm_name(""));
      push_instant(event, vm_track(vm, 0), "vm");
      break;
    case EventKind::vm_boot_done:
      ensure_track(vm_track(vm, 0), vm_name(""));
      push_slice(event, vm_track(vm, 0), "vm");
      break;
    case EventKind::vm_shutdown:
      ensure_track(vm_track(vm, 0), vm_name(""));
      push_instant(event, vm_track(vm, 0), "vm");
      break;
    case EventKind::task_finish:
      ensure_track(vm_track(vm, 0), vm_name(""));
      push_slice(event, vm_track(vm, 0), "task");
      break;
    case EventKind::task_fail:
      ensure_track(vm_track(vm, 0), vm_name(""));
      push_instant(event, vm_track(vm, 0), "task");
      break;
    case EventKind::transfer_done: {
      const std::int64_t lane = event.detail == "up" ? 1 : 2;
      ensure_track(vm_track(vm, lane),
                   vm_name(lane == 1 ? " uplink" : " downlink"));
      push_slice(event, vm_track(vm, lane), "transfer");
      break;
    }
    case EventKind::transfer_retry: {
      const std::int64_t lane = event.detail == "up" ? 1 : 2;
      ensure_track(vm_track(vm, lane),
                   vm_name(lane == 1 ? " uplink" : " downlink"));
      push_instant(event, vm_track(vm, lane), "transfer");
      break;
    }
    case EventKind::billing_tick:
      ensure_track(vm_track(vm, 0), vm_name(""));
      push_instant(event, vm_track(vm, 0), "billing");
      break;
    case EventKind::fault_injected:
    case EventKind::fault_recovered: {
      if (vm == no_id) {
        ensure_track(tid_global, "global");
        push_instant(event, tid_global, "fault");
      } else {
        ensure_track(vm_track(vm, 0), vm_name(""));
        push_instant(event, vm_track(vm, 0), "fault");
      }
      break;
    }
    case EventKind::task_dispatch:
      // A re-dispatch (detail "migration" or "recovery") is the only record
      // of a move; a first dispatch is implied by the task's slice.
      if (event.detail.empty()) break;
      ensure_track(vm_track(vm, 0), vm_name(""));
      push_instant(event, vm_track(vm, 0), "task");
      break;
    case EventKind::task_start:
    case EventKind::transfer_start:
      // Start edges are implied by the *_finish/_done slices (ts = end -
      // dur); skipping them keeps traces roughly half the size.
      break;
  }
}

Json ChromeTraceSink::trace_json() const {
  Json::Object doc;
  doc["traceEvents"] = Json(events_);
  doc["displayTimeUnit"] = "ms";
  return Json(std::move(doc));
}

void ChromeTraceSink::write(const std::string& path) const {
  AtomicFile file(path);
  file.stream() << trace_json().dump(1) << '\n';
  file.commit();
}

}  // namespace cloudwf::obs
