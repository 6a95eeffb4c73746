#include <sys/resource.h>

#include <algorithm>
#include <fstream>
#include <sstream>

#include "check/auto_check.hpp"
#include "obs/profile.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace fs = std::filesystem;
using cloudwf::Json;

namespace {

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

Json metric(double value, const char* unit) {
  Json::Object m;
  m["value"] = value;
  m["unit"] = unit;
  return Json(std::move(m));
}

/// Committed digests of \p workload at the default seed, by op kind.
std::map<std::string, std::string> load_expected(const fs::path& path,
                                                 const std::string& workload) {
  std::map<std::string, std::string> out;
  std::ifstream in(path);
  if (!in) return out;
  std::stringstream text;
  text << in.rdbuf();
  const Json doc = Json::parse(text.str());
  if (const Json* entry = doc.as_object().find(workload))
    for (const auto& [kind, digest] : entry->as_object()) out[kind] = digest.as_string();
  return out;
}

void write_json(const fs::path& path, const Json& doc) {
  std::ofstream out(path);
  out << doc.dump(2) << '\n';
}

/// Runs op \p kind once; returns its digest, or an empty string when it threw.
std::string attempt(Workload& workload, std::size_t kind, std::string& error) {
  try {
    return workload.run(kind);
  } catch (const std::exception& e) {
    error = e.what();
    return {};
  }
}

/// Peak resident set of this process image, in MB.  VmHWM rather than
/// getrusage's ru_maxrss: the latter survives exec, so it would report the
/// launching interpreter's footprint when that was larger.
double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line))
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;  // kB
  rusage usage{};
  ::getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB
}

/// One group of set-ups: at least kMinSetups calls and kGroupBudgetS of
/// them; returns the fastest, in seconds.
double setup_group(Workload& workload) {
  static constexpr std::size_t kMinSetups = 2;
  static constexpr std::size_t kMaxSetups = 40;
  static constexpr double kGroupBudgetS = 0.2;
  double fastest = 0;
  const auto start = Clock::now();
  for (std::size_t n = 0;
       n < kMinSetups || (n < kMaxSetups && seconds_since(start) < kGroupBudgetS); ++n) {
    const auto t0 = Clock::now();
    workload.setup(nullptr);
    const double s = seconds_since(t0);
    fastest = n == 0 ? s : std::min(fastest, s);
  }
  return fastest;
}

/// setup_s is the median over kSetupGroups groups of the fastest set-up in
/// each.  The first group runs before anything else; the others are spread
/// over the timed rounds, so one slow phase of the machine cannot decide it.
constexpr std::size_t kSetupGroups = 5;

}  // namespace

RunOutcome run_benchmark(const RunConfig& config) {
  RunOutcome out;
  out.report["switches"] = pin_switches(/*profiling=*/false);
  out.report["workload"] = config.workload;
  out.report["seed"] = static_cast<std::size_t>(config.seed);
  fs::create_directories(config.out_dir);
  const auto workload =
      make_workload(config.workload, config.seed, config.out_dir / (config.workload + "-scratch"));
  const std::vector<std::string> kinds = workload->kinds();

  std::vector<double> setup_groups{setup_group(*workload)};

  // Reference pass under the invariant checker.  At the default seed the
  // committed digests (when given) are the expectation; elsewhere the
  // checked pass is.
  bool correct = true;
  std::vector<std::string> expected(kinds.size());
  const bool use_committed = config.seed == kDefaultSeed && !config.expected.empty();
  const std::map<std::string, std::string> committed =
      use_committed ? load_expected(config.expected, config.workload)
                    : std::map<std::string, std::string>{};
  Json::Object errors;
  cloudwf::check::install_auto_check();
  for (std::size_t k = 0; k < kinds.size(); ++k) {
    std::string error;
    const std::string digest = attempt(*workload, k, error);
    out.reference_digests[kinds[k]] = digest;
    expected[k] = digest;
    if (use_committed) {
      const auto it = committed.find(kinds[k]);
      expected[k] = it == committed.end() ? std::string() : it->second;
      if (expected[k].empty()) error = "no committed digest";
    }
    ++out.attempted;
    if (digest.empty() || digest != expected[k]) {
      ++out.failed;
      correct = false;
      errors[kinds[k] + " (reference)"] = error.empty() ? "digest mismatch" : error;
    }
  }
  cloudwf::check::uninstall_auto_check();

  // Timed rounds: every kind once per round, in round order.
  const double timed_seconds = config.trace ? config.seconds / 2 : config.seconds;
  std::vector<KindSamples> samples;
  for (const std::string& kind : kinds) samples.push_back(KindSamples{kind, {}});
  double work_done = 0;
  std::size_t rounds = 0;
  double loop_setup_s = 0;  // set-up groups inside the loop do not eat its time
  const auto loop_start = Clock::now();
  do {
    if (setup_groups.size() < kSetupGroups &&
        seconds_since(loop_start) - loop_setup_s >=
            timed_seconds * static_cast<double>(setup_groups.size()) / kSetupGroups) {
      const auto t0 = Clock::now();
      setup_groups.push_back(setup_group(*workload));
      loop_setup_s += seconds_since(t0);
    }
    for (std::size_t k = 0; k < kinds.size(); ++k) {
      std::string error;
      const auto t0 = Clock::now();
      const std::string digest = attempt(*workload, k, error);
      const double ms = seconds_since(t0) * 1e3;
      ++out.attempted;
      if (!digest.empty() && digest == expected[k]) {
        samples[k].ms.push_back(ms);
        work_done += workload->work_per_op(k);
      } else {
        ++out.failed;
        errors[kinds[k]] = error.empty() ? "digest mismatch" : error;
      }
    }
    ++rounds;
  } while (seconds_since(loop_start) - loop_setup_s < timed_seconds);
  const double loop_s = seconds_since(loop_start) - loop_setup_s;

  const std::optional<double> round_ms = sum_of_kind_minima(samples);
  Json::Object per_kind;
  Json::Object raw_samples;  // report file only: too long for stdout
  for (const KindSamples& kind : samples) {
    Json::Object k;
    k["samples"] = kind.ms.size();
    raw_samples[kind.kind] = Json(Json::Array(kind.ms.begin(), kind.ms.end()));
    if (!kind.ms.empty()) {
      k["min_ms"] = *std::min_element(kind.ms.begin(), kind.ms.end());
      k["p50_ms"] = median(kind.ms);
      if (const std::optional<Tail> tail = tail_percentile(kind.ms)) {
        k["tail_percentile"] = tail->percentile;
        k["tail_ms"] = tail->value;
        k["tail_beyond"] = tail->beyond;
      }
    }
    per_kind[kind.kind] = Json(std::move(k));
  }
  out.report["per_kind"] = Json(std::move(per_kind));
  out.report["rounds"] = rounds;
  out.report[std::string(workload->work_unit()) + "_per_s"] = work_done / loop_s;
  if (errors.size() > 0) out.report["errors"] = Json(std::move(errors));

  const double ok_frac =
      static_cast<double>(out.attempted - out.failed) / static_cast<double>(out.attempted);
  Json::Object end_to_end;
  end_to_end["round_ms"] = metric(round_ms.value_or(0), "ms");
  end_to_end["setup_s"] = metric(median(setup_groups), "s");
  end_to_end["peak_rss_mb"] = metric(peak_rss_mb(), "MB");
  end_to_end["ok_frac"] = metric(ok_frac, "ratio");
  if (!round_ms) correct = false;

  const std::string stem =
      config.workload + "-seed" + std::to_string(config.seed) + (config.trace ? "-trace" : "");
  if (!config.trace) {
    out.metrics = end_to_end;
  } else {
    // Traced rounds: the same ops split into spans, with profiling on.
    cloudwf::obs::set_profiling(true);
    cloudwf::obs::profile_reset();
    Tracer tracer;
    workload->setup(&tracer);
    std::vector<KindSamples> traced;
    for (const std::string& kind : kinds) traced.push_back(KindSamples{kind, {}});
    int traced_rounds = 0;
    const auto trace_start = Clock::now();
    do {
      tracer.round = traced_rounds;
      for (std::size_t k = 0; k < kinds.size(); ++k) {
        std::string digest;
        std::string error;
        int op = -1;
        {
          const ScopedSpan span(tracer.spans, "op:" + kinds[k], tracer.round);
          op = span.id();
          try {
            digest = workload->run_traced(k, tracer);
          } catch (const std::exception& e) {
            error = e.what();
          }
        }
        traced[k].ms.push_back(tracer.spans.duration_ms(op));
        for (const auto& deferred : tracer.after_op) deferred();
        tracer.after_op.clear();
        ++out.attempted;
        if (digest.empty() || digest != expected[k]) {
          ++out.failed;
          correct = false;
          out.report["trace_error"] = error.empty() ? "traced digest mismatch" : error;
        }
      }
      ++traced_rounds;
    } while (seconds_since(trace_start) < config.seconds - timed_seconds);
    tracer.round = -1;
    try {
      workload->after_trace(tracer);
    } catch (const std::exception& e) {
      correct = false;
      out.report["trace_error"] = e.what();
    }
    cloudwf::obs::set_profiling(false);

    const auto n = static_cast<double>(traced_rounds);
    const std::map<std::string, double> in_rounds = self_time_by_name(tracer.spans.spans(), true);
    const std::map<std::string, double> in_setup = self_time_by_name(tracer.spans.spans(), false);
    const auto get = [](const std::map<std::string, double>& m, const std::string& key) {
      const auto it = m.find(key);
      return it == m.end() ? 0.0 : it->second;
    };
    // A layer that never runs inside a round (generation and budget levels
    // outside `campaign`) is reported from the traced set-up instead.
    const auto layer_ms = [&](const std::string& name) {
      const double per_round = get(in_rounds, name) / n;
      return per_round > 0 ? per_round : get(in_setup, name);
    };
    const auto counter = [&](const std::string& name) {
      const double per_round = get(tracer.counters, name) / n;
      return per_round > 0 ? per_round : get(tracer.counters, "setup:" + name);
    };
    const auto ratio = [](double num, double den) { return den > 0 ? num / den : 0.0; };

    const double refine_ms = layer_ms("sched.refine");
    const double resims = counter("sim.resims");
    const double list_ms = layer_ms("sched.list");
    const double probes = counter("sched.probes");
    const double run_ms = layer_ms("sim.run");
    const double events = counter("sim.events");
    const double traced_round_ms = sum_of_kind_minima(traced).value_or(0);

    Json::Object& m = out.metrics;
    m["sched.refine_ms"] = metric(refine_ms, "ms");
    m["sim.resims"] = metric(resims, "count");
    m["sim.us_per_resim"] = metric(ratio(refine_ms * 1e3, resims), "us");
    m["sched.refine_applied_frac"] = metric(
        ratio(counter("refine.alg5_applied"), counter("refine.alg5_resims")), "ratio");
    m["sched.list_ms"] = metric(list_ms, "ms");
    m["sched.probes"] = metric(probes, "count");
    m["sched.probes_per_s"] = metric(ratio(probes, list_ms / 1e3), "1/s");
    m["sim.predict_ms"] = metric(layer_ms("sim.predict"), "ms");
    m["sim.run_ms"] = metric(run_ms, "ms");
    m["sim.events"] = metric(events, "count");
    m["sim.ns_per_event"] = metric(ratio(run_ms * 1e6, events), "ns");
    m["dag.sample_ms"] = metric(layer_ms("dag.sample"), "ms");
    m["exp.evaluate_self_ms"] = metric(layer_ms("exp.evaluate"), "ms");
    m["pegasus.generate_ms"] = metric(layer_ms("pegasus.generate"), "ms");
    m["exp.budget_levels_ms"] = metric(layer_ms("exp.budget_levels"), "ms");
    m["exp.budget_levels_probes"] = metric(counter("exp.budget_levels_probes"), "count");
    m["exp.campaign_self_ms"] = metric(layer_ms("exp.campaign"), "ms");
    m["exp.checkpoint_write_ms"] = metric(layer_ms("exp.checkpoint_write"), "ms");
    m["exp.checkpoint_bytes"] = metric(counter("exp.checkpoint_bytes"), "B");
    m["exp.checkpoint_records"] = metric(counter("exp.checkpoint_records"), "count");
    m["exp.checkpoint_replay_ms"] = metric(get(tracer.counters, "exp.checkpoint_replay_ms"), "ms");
    m["trace.overhead_frac"] = metric(ratio(traced_round_ms, round_ms.value_or(0)) - 1, "ratio");

    // How much of a traced round the layers account for; the rest is the
    // op spans' own self time (harness glue around the calls).
    double layers_sum = 0;
    double ops_sum = 0;
    for (const auto& [name, ms] : in_rounds) (name.rfind("op:", 0) == 0 ? ops_sum : layers_sum) += ms;
    Json::Object coverage;
    coverage["traced_rounds"] = traced_rounds;
    coverage["traced_round_mean_ms"] = (layers_sum + ops_sum) / n;
    coverage["layer_self_sum_ms"] = layers_sum / n;
    coverage["untraced_round_ms"] = round_ms.value_or(0);
    out.report["trace"] = Json(std::move(coverage));
    out.report["end_to_end_during_trace"] = Json(std::move(end_to_end));

    Json::Object layers;
    layers["workload"] = config.workload;
    layers["seed"] = static_cast<std::size_t>(config.seed);
    layers["metrics"] = Json(out.metrics);
    layers["counters"] = [&] {
      Json::Object c;
      for (const auto& [name, value] : tracer.counters) c[name] = value;
      return Json(std::move(c));
    }();
    write_json(config.out_dir / (stem + "-layers.json"), Json(std::move(layers)));
    write_json(config.out_dir / (stem + "-spans.json"), tracer.spans.to_json());
  }

  Json::Object digests;
  for (const auto& [kind, digest] : out.reference_digests) digests[kind] = digest;
  out.report["reference_digests"] = Json(std::move(digests));
  out.correct = correct && out.failed == 0;
  Json::Object report_file = out.report;
  report_file["samples_ms"] = Json(std::move(raw_samples));
  write_json(config.out_dir / (stem + "-report.json"), Json(std::move(report_file)));
  return out;
}

}  // namespace perfbench
