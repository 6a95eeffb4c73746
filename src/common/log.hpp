#pragma once

/// \file log.hpp
/// \brief Lightweight leveled logging for harness and examples.
///
/// Off by default above `warn`; the CLOUDWF_LOG environment variable
/// ("debug" | "info" | "warn" | "error" | "off") raises or lowers verbosity.

#include <sstream>
#include <string>
#include <string_view>

namespace cloudwf {

enum class LogLevel { debug = 0, info = 1, warn = 2, error = 3, off = 4 };

/// Returns the process-wide threshold (initialized once from CLOUDWF_LOG).
[[nodiscard]] LogLevel log_threshold();

/// Overrides the threshold programmatically (tests, examples).
void set_log_threshold(LogLevel level);

/// Structured-output switch (initialized once from CLOUDWF_LOG_JSON; "1",
/// "true" or "on" enable it).  When on, every record is a single JSON
/// object per line — {"ts","level","component","msg"} — for log shippers;
/// the default plain-text format is unchanged byte-for-byte.
[[nodiscard]] bool log_json();
void set_log_json(bool enabled);

/// Emits \p message to stderr if \p level passes the threshold.
/// \p component names the emitting subsystem ("runner", ...): plain mode
/// renders it as a `component:` prefix, JSON mode as the "component" field;
/// an empty one is left out.
void log_message(LogLevel level, std::string_view component, std::string_view message);

/// Streams \p args into one info-level message tagged with \p component.
template <typename... Args>
void log_info_c(std::string_view component, const Args&... args) {
  if (LogLevel::info < log_threshold()) return;
  std::ostringstream os;
  (os << ... << args);
  log_message(LogLevel::info, component, os.str());
}

}  // namespace cloudwf
