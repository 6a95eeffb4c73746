#include "common/log.hpp"

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <iostream>
#include <mutex>

#include "common/json.hpp"

namespace cloudwf {

namespace {

LogLevel parse_level(const char* text) {
  if (text == nullptr) return LogLevel::warn;
  const std::string_view sv(text);
  if (sv == "debug") return LogLevel::debug;
  if (sv == "info") return LogLevel::info;
  if (sv == "warn") return LogLevel::warn;
  if (sv == "error") return LogLevel::error;
  if (sv == "off") return LogLevel::off;
  return LogLevel::warn;
}

std::atomic<LogLevel>& threshold_storage() {
  static std::atomic<LogLevel> threshold{parse_level(std::getenv("CLOUDWF_LOG"))};
  return threshold;
}

bool parse_json_flag(const char* text) {
  if (text == nullptr) return false;
  const std::string_view sv(text);
  return sv == "1" || sv == "true" || sv == "on";
}

std::atomic<bool>& json_storage() {
  static std::atomic<bool> json{parse_json_flag(std::getenv("CLOUDWF_LOG_JSON"))};
  return json;
}

std::string_view level_name_lower(LogLevel level) {
  switch (level) {
    case LogLevel::debug: return "debug";
    case LogLevel::info: return "info";
    case LogLevel::warn: return "warn";
    case LogLevel::error: return "error";
    case LogLevel::off: return "off";
  }
  return "?";
}

/// UTC wall-clock timestamp, ISO 8601 with millisecond precision
/// ("2026-02-14T09:30:12.345Z").
std::string iso_timestamp() {
  using namespace std::chrono;
  const auto now = system_clock::now();
  const std::time_t seconds = system_clock::to_time_t(now);
  const auto millis = duration_cast<milliseconds>(now.time_since_epoch()).count() % 1000;
  std::tm utc{};
#ifndef _WIN32
  gmtime_r(&seconds, &utc);
#else
  gmtime_s(&utc, &seconds);
#endif
  char buffer[80];  // worst-case snprintf bound for out-of-range tm fields
  std::snprintf(buffer, sizeof buffer, "%04d-%02d-%02dT%02d:%02d:%02d.%03dZ",
                utc.tm_year + 1900, utc.tm_mon + 1, utc.tm_mday, utc.tm_hour, utc.tm_min,
                utc.tm_sec, static_cast<int>(millis));
  return buffer;
}

std::string_view level_name(LogLevel level) {
  switch (level) {
    case LogLevel::debug: return "DEBUG";
    case LogLevel::info: return "INFO";
    case LogLevel::warn: return "WARN";
    case LogLevel::error: return "ERROR";
    case LogLevel::off: return "OFF";
  }
  return "?";
}

void emit_record(LogLevel level, std::string_view component, std::string_view message) {
  static std::mutex io_mutex;
  if (log_json()) {
    // Json handles escaping; one object per line, insertion order fixed.
    Json::Object record;
    record["ts"] = iso_timestamp();
    record["level"] = std::string(level_name_lower(level));
    if (!component.empty()) record["component"] = std::string(component);
    record["msg"] = std::string(message);
    const std::string line = Json(std::move(record)).dump();
    const std::lock_guard lock(io_mutex);
    std::cerr << line << '\n';
    return;
  }
  const std::lock_guard lock(io_mutex);
  std::cerr << "[cloudwf " << level_name(level) << "] ";
  if (!component.empty()) std::cerr << component << ": ";
  std::cerr << message << '\n';
}

}  // namespace

LogLevel log_threshold() { return threshold_storage().load(std::memory_order_relaxed); }

void set_log_threshold(LogLevel level) {
  threshold_storage().store(level, std::memory_order_relaxed);
}

bool log_json() { return json_storage().load(std::memory_order_relaxed); }

void set_log_json(bool enabled) { json_storage().store(enabled, std::memory_order_relaxed); }

void log_message(LogLevel level, std::string_view component, std::string_view message) {
  if (level < log_threshold()) return;
  emit_record(level, component, message);
}

}  // namespace cloudwf
