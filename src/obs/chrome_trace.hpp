#pragma once

/// \file chrome_trace.hpp
/// \brief Chrome trace-event JSON exporter (chrome://tracing / Perfetto).
///
/// Maps the cloudwf event stream onto the Trace Event Format:
///  * every VM gets three tracks (threads): compute, uplink, downlink;
///  * tasks and transfers become complete ("X") slices with their real
///    simulated duration;
///  * faults, retries, billing ticks, VM lifecycle edges and the
///    re-dispatches of moved tasks (migration / recovery) become instant
///    ("i") events;
///  * scheduler decisions live on a dedicated "scheduler" track, one
///    instant per decision with the candidate-set/budget rationale in
///    args.
///
/// Timestamps are microseconds of simulated time (the format's native
/// unit), so a Perfetto timeline reads directly in wall-clock terms of
/// the simulated execution.  Load the written file via Perfetto's
/// "Open trace file" or chrome://tracing.

#include <cstdint>
#include <map>
#include <string>

#include "common/json.hpp"
#include "obs/events.hpp"

namespace cloudwf::obs {

/// Buffers trace events in memory; write() exports them atomically.
class ChromeTraceSink final : public EventSink {
 public:
  void on_event(const Event& event) override;

  /// The full document: {"traceEvents": [...], "displayTimeUnit": "ms"}.
  [[nodiscard]] Json trace_json() const;

  /// Serializes trace_json() to \p path via common/atomic_file.
  void write(const std::string& path) const;

  /// Number of trace records buffered (metadata included).
  [[nodiscard]] std::size_t record_count() const { return events_.size(); }

 private:
  /// Emits the thread_name metadata record for \p tid once.
  void ensure_track(std::int64_t tid, const std::string& name);
  void push_slice(const Event& event, std::int64_t tid, const char* category);
  void push_instant(const Event& event, std::int64_t tid, const char* category);

  Json::Array events_;
  std::map<std::int64_t, bool> tracks_;
  bool process_named_ = false;
};

}  // namespace cloudwf::obs
