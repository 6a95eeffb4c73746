/// perfbench — times one cloudwf workload and prints its metrics.
///
///   perfbench --workload refine|execute|campaign --seed N --seconds S
///             --trace 0|1 [--expected FILE] [--out-dir DIR]
///
/// Prints one `name value unit` line per metric, the reader statistics as
/// JSON, and, as the last line, {"correct", "attempted", "failed",
/// "metrics"}.  --trace 1 reports the per-layer metrics instead of the
/// end-to-end ones and writes the layer and span files into --out-dir.
/// Exits 2 on bad arguments and 1 when the run itself throws.

#include <cstdlib>
#include <exception>
#include <iostream>
#include <string>

#include "workloads.hpp"

namespace {

[[noreturn]] void usage(const std::string& problem) {
  std::cerr << "perfbench: " << problem
            << "\nusage: perfbench --workload NAME --seed N --seconds S --trace 0|1"
               " [--expected FILE] [--out-dir DIR]\n";
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunConfig config;
  config.out_dir = "perfbench-out";
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") {
        config.workload = value;
      } else if (flag == "--seed") {
        config.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        config.seconds = std::stod(value);
      } else if (flag == "--trace") {
        if (value != "0" && value != "1") usage("--trace takes 0 or 1");
        config.trace = value == "1";
      } else if (flag == "--expected") {
        config.expected = value;
      } else if (flag == "--out-dir") {
        config.out_dir = value;
      } else {
        usage("unknown flag " + flag);
      }
    } catch (const std::logic_error&) {
      usage("bad value '" + value + "' for " + flag);
    }
  }
  if (config.workload.empty()) usage("--workload is required");
  if (!(config.seconds > 0)) usage("--seconds must be positive");

  if (!perfbench::release_build())
    std::cerr << "perfbench: warning: not an optimized, sanitizer-free build; timings are not "
                 "comparable\n";
  try {
    const perfbench::RunOutcome outcome = perfbench::run_benchmark(config);
    for (const auto& [name, m] : outcome.metrics)
      std::cout << name << ' ' << m.at("value").dump() << ' ' << m.at("unit").as_string() << '\n';
    std::cout << cloudwf::Json(outcome.report).dump() << '\n';
    cloudwf::Json::Object result;
    result["correct"] = outcome.correct;
    result["attempted"] = outcome.attempted;
    result["failed"] = outcome.failed;
    result["metrics"] = cloudwf::Json(outcome.metrics);
    std::cout << cloudwf::Json(std::move(result)).dump() << std::endl;
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << '\n';
    return 1;
  }
}
