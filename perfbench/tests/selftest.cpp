/// Self-tests of the benchmark harness: the statistics behind round_ms,
/// the tail-percentile rule, span self-time arithmetic, the journal wipe
/// between campaign rounds, and a corrupted expected digest lowering
/// ok_frac.
///
///   perfbench_selftest [path/to/expected_digests.json]

#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "harness.hpp"
#include "workloads.hpp"

namespace {

int failures = 0;

#define CHECK(cond)                                                   \
  do {                                                                \
    if (!(cond)) {                                                    \
      std::fprintf(stderr, "%s:%d: CHECK(%s) failed\n", __FILE__, __LINE__, #cond); \
      ++failures;                                                     \
    }                                                                 \
  } while (0)

bool near(double a, double b) { return std::fabs(a - b) < 1e-9; }

namespace fs = std::filesystem;
using namespace perfbench;

void kind_minima_sum() {
  CHECK(near(*sum_of_kind_minima({{"a", {3, 1, 2}}, {"b", {5, 4}}}), 5.0));
  CHECK(near(*sum_of_kind_minima({{"only", {7.5}}}), 7.5));
  CHECK(!sum_of_kind_minima({{"a", {1}}, {"empty", {}}}));
  CHECK(!sum_of_kind_minima({}));
}

std::vector<double> one_to(std::size_t n) {
  std::vector<double> v;
  for (std::size_t i = n; i >= 1; --i) v.push_back(static_cast<double>(i));  // unsorted
  return v;
}

void tail_rule() {
  // 19 samples: p50 is rank 10 with only 9 beyond it, so no tail qualifies.
  CHECK(!tail_percentile(one_to(19)));
  // 20 samples: p50 (rank 10) has exactly ten beyond it.
  const auto t20 = tail_percentile(one_to(20));
  CHECK(t20 && near(t20->percentile, 50) && near(t20->value, 10) && t20->beyond == 10);
  // 100 samples: p90 (rank 90) has ten beyond; p95 would have five.
  const auto t100 = tail_percentile(one_to(100));
  CHECK(t100 && near(t100->percentile, 90) && near(t100->value, 90) && t100->beyond == 10);
  // 1000 samples: p99 (rank 990) has ten beyond; p99.9 would have one.
  const auto t1000 = tail_percentile(one_to(1000));
  CHECK(t1000 && near(t1000->percentile, 99) && near(t1000->value, 990));
  CHECK(t1000 && t1000->samples == 1000);
  CHECK(near(median({4, 1, 3}), 3) && near(median({4, 1, 3, 2}), 2.5));
}

void self_time_arithmetic() {
  // op [0,10] -> a [1,4] -> a1 [2,3];  op -> derived b (2 ms);  setup [0,1]
  std::vector<Span> spans = {
      {"op", 0, 10, -1, 0, false},  {"a", 1, 4, 0, 0, false}, {"a1", 2, 3, 1, 0, false},
      {"b", 0, 2, 0, 0, true},      {"setup", 0, 1, -1, -1, false},
      {"a", 20, 25, -1, 1, false},
  };
  const std::vector<double> self = self_times_ms(spans);
  CHECK(near(self[0], 10 - 3 - 2));
  CHECK(near(self[1], 3 - 1));
  CHECK(near(self[2], 1));
  CHECK(near(self[3], 2));
  const auto rounds = self_time_by_name(spans, true);
  CHECK(near(rounds.at("a"), 2 + 5));
  CHECK(near(rounds.at("op"), 5));
  CHECK(rounds.count("setup") == 0);
  CHECK(near(self_time_by_name(spans, false).at("setup"), 1));

  // The recorder nests spans and lays derived children at the parent start.
  SpanRecorder recorder;
  const int outer = recorder.open("outer", 0);
  const int inner = recorder.open("inner", 0);
  recorder.close(inner);
  recorder.add_derived("derived", outer, 0.5);
  recorder.close(outer);
  const auto& recorded = recorder.spans();
  CHECK(recorded[1].parent == outer && recorded[2].parent == outer && recorded[2].derived);
  CHECK(near(recorded[2].end_ms - recorded[2].start_ms, 0.5));
  CHECK(recorded[0].end_ms >= recorded[1].end_ms);
}

void digest_bits() {
  Digest a;
  Digest b;
  a.add(0.1 + 0.2);
  b.add(0.3);
  CHECK(a.hex() != b.hex());  // exact bits, not rounded values
  Digest c;
  c.add(std::string_view("ab"));
  Digest d;
  d.add(std::string_view("a"));
  d.add(std::string_view("b"));
  CHECK(c.hex() != d.hex());  // lengths are part of the digest
}

void journal_wiped_between_rounds(const fs::path& scratch) {
  const auto workload = make_workload("campaign", 3, scratch);
  workload->setup(nullptr);
  const std::string first = workload->run(0);
  const fs::path stale = scratch / "journal" / "stale.jsonl";
  std::ofstream(stale) << "{\"not\": \"a record\"}\n";
  CHECK(fs::exists(stale));
  const std::string second = workload->run(0);
  CHECK(!fs::exists(stale));
  CHECK(!first.empty() && first == second);
  std::size_t files = 0;
  for (const auto& entry : fs::directory_iterator(scratch / "journal")) {
    static_cast<void>(entry);
    ++files;
  }
  CHECK(files == 1);  // only this round's journal
}

void corrupted_digest_lowers_ok_frac(const fs::path& expected, const fs::path& scratch) {
  RunConfig config;
  config.workload = "campaign";
  config.seed = kDefaultSeed;
  config.seconds = 0.05;
  config.out_dir = scratch / "out";
  config.expected = expected;
  const RunOutcome clean = run_benchmark(config);
  CHECK(clean.correct && clean.failed == 0);
  CHECK(near(clean.metrics.find("ok_frac")->at("value").as_number(), 1.0));

  const fs::path corrupted = scratch / "corrupted.json";
  std::ofstream(corrupted) << R"({"campaign": {"campaign": "0000000000000000"}})";
  config.expected = corrupted;
  const RunOutcome bad = run_benchmark(config);
  CHECK(!bad.correct && bad.failed > 0 && bad.failed == bad.attempted);
  CHECK(bad.metrics.find("ok_frac")->at("value").as_number() < 1.0);
}

}  // namespace

int main(int argc, char** argv) {
  const fs::path scratch = fs::current_path() / "selftest-scratch";
  fresh_directory(scratch);
  kind_minima_sum();
  tail_rule();
  self_time_arithmetic();
  digest_bits();
  journal_wiped_between_rounds(scratch);
  if (argc > 1) corrupted_digest_lowers_ok_frac(argv[1], scratch);
  fs::remove_all(scratch);
  std::printf("perfbench_selftest: %d failure(s)\n", failures);
  return failures == 0 ? 0 : 1;
}
