/// \file bench_sched.cpp
/// \brief Scheduler-kernel planning benchmark + the BENCH_sched.json baseline.
///
/// Times one full `Scheduler::schedule()` call (list pass, placement probes
/// and the conservative prediction) for every non-refining registry
/// algorithm across all five Pegasus families at two instance sizes, and
/// reports the placement-probe throughput of the incremental EFT kernel.
///
/// The output file is the perf gate's baseline: CI re-runs this binary and
/// scripts/check_bench_regression.py compares the fresh numbers against the
/// committed BENCH_sched.json.  Absolute milliseconds are machine-dependent,
/// so the file also records a `calibration_ms` — the time of a fixed
/// CPU-bound FNV-1a hashing loop — and the checker scales the baseline by
/// the ratio of the two calibrations before applying its threshold.
///
/// Usage: bench_sched [output.json]   (default: BENCH_sched.json in the
/// working directory).  CLOUDWF_QUICK shrinks the matrix to 100-task
/// instances with a single sample per cell.

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <iomanip>
#include <iostream>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "common/atomic_file.hpp"
#include "common/json.hpp"
#include "exp/budget_levels.hpp"
#include "pegasus/generator.hpp"
#include "sched/eft.hpp"
#include "sched/registry.hpp"

namespace {

using namespace cloudwf;
using Clock = std::chrono::steady_clock;

/// Median of \p samples (destructive).
double median(std::vector<double>& samples) {
  std::sort(samples.begin(), samples.end());
  return samples[samples.size() / 2];
}

/// Minimum of \p samples — the timing estimator for the per-cell numbers.
/// The minimum is the run least disturbed by co-tenants and frequency
/// scaling, which matters on shared CI machines where the median still
/// drifts by double-digit percentages between runs.
double minimum(const std::vector<double>& samples) {
  return *std::min_element(samples.begin(), samples.end());
}

/// Fixed CPU-bound reference workload: FNV-1a over a pseudo-random buffer.
/// Its wall time calibrates this machine against the one that produced the
/// committed baseline, so the regression gate compares ratios, not
/// absolute milliseconds.
double calibration_ms() {
  std::vector<std::uint8_t> buffer(1 << 16);
  std::uint32_t state = 0x9E3779B9u;
  for (std::uint8_t& byte : buffer) {
    state = state * 1664525u + 1013904223u;  // LCG; deterministic filler
    byte = static_cast<std::uint8_t>(state >> 24);
  }
  volatile std::uint64_t sink = 0;  // keeps the loop observable
  std::vector<double> times;
  for (int sample = 0; sample < 5; ++sample) {
    const auto start = Clock::now();
    std::uint64_t hash = 0xCBF29CE484222325ULL;
    for (int round = 0; round < 400; ++round)
      for (const std::uint8_t byte : buffer) {
        hash ^= byte;
        hash *= 0x100000001B3ULL;
      }
    sink = sink + hash;
    times.push_back(std::chrono::duration<double, std::milli>(Clock::now() - start).count());
  }
  return median(times);
}

struct BenchEntry {
  std::string algorithm;
  std::string family;
  std::size_t tasks = 0;
  double plan_ms = 0;
  std::size_t probes = 0;
};

}  // namespace

int main(int argc, char** argv) {
  bench::print_scale_banner("bench_sched — scheduler-kernel planning time");
  const std::string output_path = argc > 1 ? argv[1] : "BENCH_sched.json";

  const bool quick = bench::quick_mode();
  const std::vector<std::size_t> sizes = quick ? std::vector<std::size_t>{100}
                                               : std::vector<std::size_t>{100, 1000};
  const std::size_t samples = quick ? 1 : 5;
  const platform::Platform platform = platform::paper_platform();

  // Refining algorithms resimulate the whole schedule per probe; their cost
  // is dominated by the simulator, not the planning kernel under test.
  std::vector<std::string> algorithms;
  for (const sched::SchedulerInfo& info : sched::scheduler_registry())
    if (!info.refining) algorithms.emplace_back(info.name);

  const double cal_ms = calibration_ms();
  std::cout << std::fixed << std::setprecision(3)
            << "calibration (FNV loop) : " << cal_ms << " ms\n"
            << "samples per cell       : " << samples << " (minimum)\n\n"
            << std::left << std::setw(18) << "algorithm" << std::setw(14) << "family"
            << std::right << std::setw(7) << "tasks" << std::setw(12) << "plan_ms"
            << std::setw(12) << "probes" << std::setw(14) << "probes/s" << "\n";

  std::vector<BenchEntry> entries;
  double sink = 0;  // keeps the schedules observable
  for (const pegasus::WorkflowType type : pegasus::extended_types()) {
    for (const std::size_t tasks : sizes) {
      const pegasus::GeneratorConfig gen{tasks, 1, 0.5};
      const dag::Workflow wf = pegasus::generate(type, gen);
      const Dollars budget = exp::compute_budget_levels(wf, platform).medium;
      for (const std::string& algorithm : algorithms) {
        const auto scheduler = sched::make_scheduler(algorithm);
        const sched::SchedulerInput input = sched::make_input(wf, platform, budget);
        // Warm-up run: faults in code paths and sizes the allocator.
        sink += scheduler->schedule(input).predicted_makespan;

        std::vector<double> times;
        std::size_t probes = 0;
        for (std::size_t s = 0; s < samples; ++s) {
          const std::size_t probes_before = sched::probe_count();
          const auto start = Clock::now();
          sink += scheduler->schedule(input).predicted_makespan;
          times.push_back(
              std::chrono::duration<double, std::milli>(Clock::now() - start).count());
          probes = sched::probe_count() - probes_before;
        }
        BenchEntry entry;
        entry.algorithm = algorithm;
        entry.family = std::string(pegasus::to_string(type));
        entry.tasks = tasks;
        entry.plan_ms = minimum(times);
        entry.probes = probes;
        std::cout << std::left << std::setw(18) << entry.algorithm << std::setw(14)
                  << entry.family << std::right << std::setw(7) << entry.tasks
                  << std::setw(12) << entry.plan_ms << std::setw(12) << entry.probes
                  << std::setw(14) << std::setprecision(0)
                  << (entry.plan_ms > 0
                          ? static_cast<double>(entry.probes) / (entry.plan_ms / 1e3)
                          : 0.0)
                  << std::setprecision(3) << "\n";
        entries.push_back(std::move(entry));
      }
    }
  }

  Json::Object doc;
  doc["schema"] = std::string("cloudwf-bench-sched-v1");
  doc["benchmark"] = std::string("bench_sched");
  doc["quick"] = quick;
  doc["samples"] = samples;
  doc["calibration_ms"] = cal_ms;
  Json::Array list;
  for (const BenchEntry& entry : entries) {
    Json::Object row;
    row["algorithm"] = entry.algorithm;
    row["family"] = entry.family;
    row["tasks"] = entry.tasks;
    row["plan_ms"] = entry.plan_ms;
    row["probes"] = entry.probes;
    row["probes_per_sec"] =
        entry.plan_ms > 0 ? static_cast<double>(entry.probes) / (entry.plan_ms / 1e3) : 0.0;
    list.emplace_back(std::move(row));
  }
  doc["entries"] = std::move(list);
  write_file_atomic(output_path, Json(std::move(doc)).dump(2) + "\n");
  std::cout << "\nwrote " << output_path << "  (sink=" << sink << ")\n";
  return 0;
}
