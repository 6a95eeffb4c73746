#include "check/violation.hpp"

#include <sstream>
#include <utility>

#include "common/error.hpp"

namespace cloudwf::check {

std::string_view to_string(InvariantCode code) {
  switch (code) {
    case InvariantCode::record_range: return "record_range";
    case InvariantCode::precedence: return "precedence";
    case InvariantCode::slot_overlap: return "slot_overlap";
    case InvariantCode::boot_order: return "boot_order";
    case InvariantCode::event_order: return "event_order";
    case InvariantCode::makespan_identity: return "makespan_identity";
    case InvariantCode::cost_conservation: return "cost_conservation";
    case InvariantCode::budget_cap: return "budget_cap";
    case InvariantCode::transfer_conservation: return "transfer_conservation";
    case InvariantCode::schedule_structure: return "schedule_structure";
    case InvariantCode::artifact_format: return "artifact_format";
  }
  return "unknown";
}

void CheckReport::add(InvariantCode code, std::string subject, std::string message,
                      double expected, double actual) {
  violations.push_back(
      {code, std::move(subject), std::move(message), expected, actual});
}

void CheckReport::merge(CheckReport other) {
  checks_run += other.checks_run;
  violations.insert(violations.end(), std::make_move_iterator(other.violations.begin()),
                    std::make_move_iterator(other.violations.end()));
}

std::string CheckReport::text() const {
  std::ostringstream os;
  if (ok()) {
    os << "invariant check OK (" << checks_run << " checks)";
    return os.str();
  }
  os << violations.size() << " invariant violation(s) in " << checks_run << " checks:";
  for (const Violation& v : violations)
    os << "\n  [" << to_string(v.code) << "] " << v.subject << ": " << v.message;
  return os.str();
}

Json CheckReport::to_json() const {
  Json::Object root;
  root["checker"] = "cloudwf-invariants";
  root["version"] = 1;
  root["ok"] = ok();
  root["checks_run"] = checks_run;
  Json::Array entries;
  entries.reserve(violations.size());
  for (const Violation& v : violations) {
    Json::Object entry;
    entry["code"] = std::string(to_string(v.code));
    entry["subject"] = v.subject;
    entry["message"] = v.message;
    entry["expected"] = v.expected;
    entry["actual"] = v.actual;
    entries.push_back(Json(std::move(entry)));
  }
  root["violations"] = Json(std::move(entries));
  return Json(std::move(root));
}

}  // namespace cloudwf::check
