#pragma once

/// \file helpers.hpp
/// \brief Shared fixtures for the cloudwf test suite.

#include <gtest/gtest.h>

#include <exception>
#include <ostream>
#include <string>
#include <typeinfo>
#include <vector>

#include "common/units.hpp"
#include "dag/workflow.hpp"
#include "platform/platform.hpp"

namespace cloudwf::testing {

/// The what() text of the exception \p body throws when its dynamic type is
/// exactly \p E; otherwise a description of what happened instead.  Pins an
/// error's type and text together.
template <class E, class Body>
std::string exact_error(Body&& body) {
  try {
    body();
  } catch (const std::exception& error) {
    if (typeid(error) == typeid(E)) return error.what();
    return std::string("unexpected exception type: ") + typeid(error).name();
  }
  return "no exception";
}

/// Prints \p value as gtest does by default: "N-byte object <XX-XX ...>".
/// The PrintTo overloads of parameter structs pass a copy whose padding they
/// zeroed, so registered test names keep their form but no longer embed
/// uninitialised bytes that change from build to build.
template <class T>
void print_bytes(const T& value, std::ostream* os) {
  ::testing::internal::PrintBytesInObjectTo(reinterpret_cast<const unsigned char*>(&value),
                                            sizeof value, os);
}

/// The tasks of frozen \p wf with no successor, in id order.
inline std::vector<dag::TaskId> exit_tasks(const dag::Workflow& wf) {
  std::vector<dag::TaskId> exits;
  for (dag::TaskId t = 0; t < wf.task_count(); ++t)
    if (wf.out_edges(t).empty()) exits.push_back(t);
  return exits;
}

/// A diamond DAG:  A -> {B, C} -> D, with easy round numbers.
///   weights: A=100, B=200, C=300, D=100 (stddev 0 unless \p stddev_ratio)
///   edges: A->B 1e6, A->C 2e6, B->D 1e6, C->D 1e6 bytes
///   external: A reads 4e6, D writes 2e6.
inline dag::Workflow diamond(double stddev_ratio = 0.0) {
  dag::Workflow wf("diamond");
  const auto a = wf.add_task("A", 100, 100 * stddev_ratio);
  const auto b = wf.add_task("B", 200, 200 * stddev_ratio);
  const auto c = wf.add_task("C", 300, 300 * stddev_ratio);
  const auto d = wf.add_task("D", 100, 100 * stddev_ratio);
  wf.add_edge(a, b, 1e6);
  wf.add_edge(a, c, 2e6);
  wf.add_edge(b, d, 1e6);
  wf.add_edge(c, d, 1e6);
  wf.add_external_input(a, 4e6);
  wf.add_external_output(d, 2e6);
  wf.freeze();
  return wf;
}

/// A chain A -> B -> C with unit-free numbers.
inline dag::Workflow chain3() {
  dag::Workflow wf("chain3");
  const auto a = wf.add_task("A", 100, 0);
  const auto b = wf.add_task("B", 200, 0);
  const auto c = wf.add_task("C", 400, 0);
  wf.add_edge(a, b, 1e6);
  wf.add_edge(b, c, 2e6);
  wf.freeze();
  return wf;
}

/// Two independent tasks (a 2-task bag).
inline dag::Workflow bag2() {
  dag::Workflow wf("bag2");
  wf.add_task("A", 100, 0);
  wf.add_task("B", 100, 0);
  wf.freeze();
  return wf;
}

/// A copy of frozen \p wf whose edges carry 0 bytes (as DAX control
/// dependencies load); tasks and external data are unchanged.
/// dag::with_scaled_data rejects a factor of 0.
inline dag::Workflow with_zero_byte_edges(const dag::Workflow& wf) {
  dag::Workflow out(wf.name());
  for (const dag::Task& t : wf.tasks())
    out.add_task(t.name, t.mean_weight, t.weight_stddev, t.type);
  for (const dag::Edge& e : wf.edges()) out.add_edge(e.src, e.dst, 0);
  for (dag::TaskId t = 0; t < wf.task_count(); ++t) {
    if (wf.external_input_of(t) > 0) out.add_external_input(t, wf.external_input_of(t));
    if (wf.external_output_of(t) > 0) out.add_external_output(t, wf.external_output_of(t));
  }
  out.freeze();
  return out;
}

/// A tiny platform with clean numbers: two categories (speed 1 at $3600/h
/// => $1/s, speed 2 at $7200/h => $2/s), 10 s boot, $0.5 setup, 1 MB/s
/// links, free datacenter.  Makes hand computations exact.
inline platform::Platform toy_platform(Seconds boot = 10.0) {
  return platform::PlatformBuilder("toy")
      .add_category({"slow", 1.0, 1.0, 0.5, 1})
      .add_category({"fast", 2.0, 2.0, 0.5, 1})
      .boot_delay(boot)
      .bandwidth(1e6)
      .build();
}

/// toy_platform with a single category (speed 1, $1/s).
inline platform::Platform mono_platform(Seconds boot = 10.0) {
  return platform::PlatformBuilder("mono")
      .add_category({"only", 1.0, 1.0, 0.5, 1})
      .boot_delay(boot)
      .bandwidth(1e6)
      .build();
}

}  // namespace cloudwf::testing
