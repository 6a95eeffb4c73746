#pragma once

/// \file violation.hpp
/// \brief Invariant-violation taxonomy and the checker's report type.
///
/// Every contract the InvariantChecker enforces has a stable code; reports
/// carry one entry per violated instance with the offending subject (task,
/// VM, event index or file), a human-readable message and, where meaningful,
/// the expected/actual numeric pair.  The JSON serialization (to_json) is
/// the violation-report schema `cloudwf-lint --report` writes; the
/// Violation.ReportJsonMatchesSchema test pins it.

#include <string>
#include <string_view>
#include <vector>

#include "common/json.hpp"

namespace cloudwf::check {

/// Stable identifiers of the checkable contracts (DESIGN.md Section 11).
enum class InvariantCode {
  record_range,           ///< malformed record: non-finite/negative/out-of-range field
  precedence,             ///< DAG precedence broken (Section III-A)
  slot_overlap,           ///< more concurrent tasks than processors on one VM
  boot_order,             ///< task ran outside its VM's [boot_done, end] window
  event_order,            ///< event log timestamps not non-decreasing
  makespan_identity,      ///< Eq. (3) identity or its bounds broken
  cost_conservation,      ///< Eq. (1)+(2) recomputation != accounted cost
  budget_cap,             ///< BUDG contract: predicted cost exceeds the budget
  transfer_conservation,  ///< transferred bytes != data the schedule must move
  schedule_structure,     ///< schedule fails structural validation
  artifact_format,        ///< offline artifact malformed (lint only)
};

/// Stable lower-snake-case name (report "code" field).
[[nodiscard]] std::string_view to_string(InvariantCode code);

/// One violated invariant instance.
struct Violation {
  InvariantCode code{};
  std::string subject;  ///< offending entity: "task X", "vm 3", "event 17", a path
  std::string message;  ///< what exactly broke, with numbers inline
  double expected = 0;  ///< bound the invariant required (0 when not numeric)
  double actual = 0;    ///< value observed (0 when not numeric)
};

/// Outcome of one checker invocation.
struct CheckReport {
  std::vector<Violation> violations;
  std::size_t checks_run = 0;  ///< individual assertions evaluated

  [[nodiscard]] bool ok() const { return violations.empty(); }

  void add(InvariantCode code, std::string subject, std::string message, double expected = 0,
           double actual = 0);
  /// Merges \p other into this report (lint runs several passes).
  void merge(CheckReport other);

  /// Multi-line human report: one "code subject: message" line per violation.
  [[nodiscard]] std::string text() const;

  /// The violation-report JSON schema (version 1):
  /// {"checker":"cloudwf-invariants","version":1,"ok":bool,"checks_run":N,
  ///  "violations":[{"code","subject","message","expected","actual"}...]}
  [[nodiscard]] Json to_json() const;
};

}  // namespace cloudwf::check
