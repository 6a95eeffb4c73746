#pragma once
/// \file workloads.hpp
/// \brief The benchmark's three workloads and the run loop that times them.
///
/// A workload builds its inputs from the seed (set-up), then repeats a fixed
/// round of op kinds.  Each op calls public cloudwf functions and returns a
/// digest of its output.  The traced variant of an op performs the same
/// work split into its public calls, each under a span (see README.md).

#include <cstdint>
#include <filesystem>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/json.hpp"
#include "harness.hpp"

namespace perfbench {

/// Span recorder plus work counters of a traced run.
struct Tracer {
  SpanRecorder spans;
  std::map<std::string, double> counters;
  int round = -1;  ///< -1 while tracing set-up
  /// Measurements an op defers until its span has closed (replays of
  /// public calls whose times become derived spans).
  std::vector<std::function<void()>> after_op;
};

class Workload {
 public:
  virtual ~Workload() = default;
  /// Builds the inputs from the seed (pegasus::generate and
  /// exp::compute_budget_levels).  Idempotent: calling it again rebuilds
  /// the same inputs.  With a tracer, each call is recorded as a span.
  virtual void setup(Tracer* tracer) = 0;
  /// The op kinds of one round, in round order.
  [[nodiscard]] virtual std::vector<std::string> kinds() const = 0;
  /// Runs one op of \p kind and returns the digest of its output.  Throws
  /// when the op fails (a degraded campaign cell counts as a failure).
  virtual std::string run(std::size_t kind) = 0;
  /// Same work and digest as run(), split into spans.  The op span itself
  /// is opened by the caller.
  virtual std::string run_traced(std::size_t kind, Tracer& tracer) = 0;
  /// Work outside the rounds that only the traced run measures.
  virtual void after_trace(Tracer& /*tracer*/) {}
  /// Name and count of the units of work one op of \p kind completes.
  [[nodiscard]] virtual std::string_view work_unit() const = 0;
  [[nodiscard]] virtual double work_per_op(std::size_t kind) const = 0;
};

/// Instantiates \p name for \p seed; \p scratch is a directory the workload
/// may own (the campaign journal lives there).  Throws on unknown names.
[[nodiscard]] std::unique_ptr<Workload> make_workload(std::string_view name, std::uint64_t seed,
                                                      const std::filesystem::path& scratch);

/// The seed whose digests are committed in expected_digests.json.
inline constexpr std::uint64_t kDefaultSeed = 1;

struct RunConfig {
  std::string workload;
  std::uint64_t seed = kDefaultSeed;
  double seconds = 10;
  bool trace = false;
  std::filesystem::path expected;  ///< committed digests (may be empty)
  std::filesystem::path out_dir;   ///< metrics, layer and span files
};

/// Everything one run measured.  `metrics` maps a metric name to
/// {"value", "unit"}; `report` carries the reader-only statistics.
struct RunOutcome {
  bool correct = false;
  std::size_t attempted = 0;
  std::size_t failed = 0;
  cloudwf::Json::Object metrics;
  cloudwf::Json::Object report;
  std::map<std::string, std::string> reference_digests;
};

/// Set-up, reference pass under the invariant checker, timed rounds and
/// (with config.trace) the traced rounds.
[[nodiscard]] RunOutcome run_benchmark(const RunConfig& config);

}  // namespace perfbench
