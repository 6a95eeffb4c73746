#pragma once
/// \file harness.hpp
/// \brief Measurement plumbing of the cloudwf benchmark: latency
/// statistics, output digests, in-memory spans and switch pinning.
///
/// Nothing here knows about a particular workload; workloads.hpp builds
/// the three op rounds on top of it.

#include <chrono>
#include <cstdint>
#include <filesystem>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/json.hpp"

namespace cloudwf::exp {
struct EvalResult;
struct CampaignResult;
}  // namespace cloudwf::exp
namespace cloudwf::sched {
struct SchedulerOutput;
}  // namespace cloudwf::sched

namespace perfbench {

// ---------------------------------------------------------------- statistics

/// Latencies (ms) observed for one op kind of a round.
struct KindSamples {
  std::string kind;
  std::vector<double> ms;
};

/// round_ms: the fastest latency of each kind, summed over the kinds.
/// Kinds without samples make the sum meaningless, so they yield nullopt.
[[nodiscard]] std::optional<double> sum_of_kind_minima(const std::vector<KindSamples>& kinds);

/// Median of \p values (mean of the two middle values for even counts);
/// 0 for an empty sample.
[[nodiscard]] double median(std::vector<double> values);

/// The highest of the percentiles 50, 90, 95, 99, 99.9 that still has at
/// least ten samples beyond it, its value (nearest rank) and the sample
/// count.  nullopt when even the p50 has fewer than ten samples beyond it.
struct Tail {
  double percentile = 0;
  double value = 0;
  std::size_t beyond = 0;
  std::size_t samples = 0;
};
[[nodiscard]] std::optional<Tail> tail_percentile(std::vector<double> values);

// ------------------------------------------------------------------ digests

/// FNV-1a over the exact bits of what an op produced.
class Digest {
 public:
  void add(std::uint64_t value);
  void add(double value);
  void add(std::string_view text);
  [[nodiscard]] std::string hex() const;

 private:
  std::uint64_t hash_ = 0xCBF29CE484222325ULL;
};

/// Schedule (task -> VM, VM categories, per-VM order, priorities) and the
/// conservative prediction.
[[nodiscard]] std::string digest_of(const cloudwf::sched::SchedulerOutput& output);
/// Every EvalResult field except the wall-clock ones (schedule_seconds,
/// sim_events_per_sec).
[[nodiscard]] std::string digest_of(const cloudwf::exp::EvalResult& result);
/// Budgets and every cell accumulator except sched_time (wall clock), plus
/// the degraded-cell counters.
[[nodiscard]] std::string digest_of(const cloudwf::exp::CampaignResult& result);

// -------------------------------------------------------------------- spans

using Clock = std::chrono::steady_clock;

/// One timed interval.  Times are ms since the recorder was created.
/// A derived span was not timed in place: its duration is a measurement
/// of the same public call made outside the round (see README.md), and it
/// is laid at the start of its parent.
struct Span {
  std::string name;
  double start_ms = 0;
  double end_ms = 0;
  int parent = -1;
  int round = -1;
  bool derived = false;
};

class SpanRecorder {
 public:
  SpanRecorder();
  /// Opens a span under the innermost open span; returns its id.
  int open(std::string name, int round);
  void close(int id);
  /// Adds a derived child of \p parent lasting \p duration_ms.
  void add_derived(std::string name, int parent, double duration_ms);
  [[nodiscard]] double duration_ms(int id) const;
  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }
  [[nodiscard]] cloudwf::Json to_json() const;

 private:
  Clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

/// RAII span.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder& recorder, std::string name, int round)
      : recorder_(recorder), id_(recorder.open(std::move(name), round)) {}
  ~ScopedSpan() { recorder_.close(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  [[nodiscard]] int id() const { return id_; }

 private:
  SpanRecorder& recorder_;
  int id_;
};

/// Self time of each span: its duration minus its direct children's.
[[nodiscard]] std::vector<double> self_times_ms(const std::vector<Span>& spans);

/// Sum of self times per span name over spans whose round satisfies
/// \p in_rounds (true: round >= 0; false: round < 0, i.e. set-up).
[[nodiscard]] std::map<std::string, double> self_time_by_name(const std::vector<Span>& spans,
                                                              bool in_rounds);

// ------------------------------------------------------ profile snapshots

/// Calls and total ms of each obs::ProfileScope at one instant.
struct ProfileScopeTotals {
  double calls = 0;
  double total_ms = 0;
};
using ProfileSnapshot = std::map<std::string, ProfileScopeTotals>;
[[nodiscard]] ProfileSnapshot profile_snapshot();
/// after - before for one scope (zero when the scope never ran).
[[nodiscard]] ProfileScopeTotals profile_delta(const ProfileSnapshot& before,
                                               const ProfileSnapshot& after,
                                               const std::string& scope);

// --------------------------------------------------------------- switches

/// Pins every switch cloudwf reads from the environment through its public
/// setter (CLOUDWF_CHECK, CLOUDWF_PROFILE, CLOUDWF_LOG, CLOUDWF_LOG_JSON) or,
/// for switches without a setter (CLOUDWF_QUICK, CLOUDWF_FULL,
/// CLOUDWF_CHECKPOINT_DIR), by unsetting the variable.  Returns what the
/// environment held and what was pinned, plus the build flags.
[[nodiscard]] cloudwf::Json pin_switches(bool profiling);

/// True when this binary is an optimized, sanitizer-free build.
[[nodiscard]] bool release_build();

/// Removes \p dir and everything in it, then recreates it empty.
void fresh_directory(const std::filesystem::path& dir);

}  // namespace perfbench
