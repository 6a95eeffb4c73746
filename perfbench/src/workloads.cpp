#include "workloads.hpp"

#include <array>
#include <optional>
#include <stdexcept>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "dag/stochastic.hpp"
#include "exp/budget_levels.hpp"
#include "exp/campaign.hpp"
#include "exp/checkpoint.hpp"
#include "exp/evaluate.hpp"
#include "exp/runner.hpp"
#include "pegasus/generator.hpp"
#include "platform/platform.hpp"
#include "sched/eft.hpp"
#include "sched/heft.hpp"
#include "sched/minmin.hpp"
#include "sched/plan.hpp"
#include "sched/refine.hpp"
#include "sched/registry.hpp"
#include "sim/simulator.hpp"

namespace perfbench {

namespace fs = std::filesystem;
using namespace cloudwf;

namespace {

double ms_since(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start).count();
}

/// Reaches the protected Scheduler::finish (compaction plus the
/// conservative prediction every algorithm ends with), so a traced op can
/// time it apart from the list pass.
class Finisher final : public sched::Scheduler {
 public:
  [[nodiscard]] std::string_view name() const override { return "perfbench-finish"; }
  [[nodiscard]] sched::SchedulerOutput schedule(const sched::SchedulerInput&) const override {
    throw InternalError("perfbench: Finisher only predicts");
  }
  [[nodiscard]] static sched::SchedulerOutput predict(const sched::SchedulerInput& input,
                                                      sim::Schedule schedule) {
    return finish(input, std::move(schedule));
  }
};

/// Counter keys are per round; set-up work is kept under a "setup:" prefix.
void count(Tracer& tracer, const std::string& key, double value) {
  tracer.counters[(tracer.round < 0 ? "setup:" : "") + key] += value;
}

/// The list pass of a budget-aware HEFT or MIN-MIN, under a sched.list span.
sim::Schedule traced_list_pass(Tracer& tracer, const sched::SchedulerInput& input, bool heft,
                               std::vector<dag::TaskId>& order) {
  const ScopedSpan span(tracer.spans, "sched.list", tracer.round);
  const std::size_t probes = sched::probe_count();
  sim::Schedule schedule =
      heft ? sched::HeftScheduler::run_list_pass(input, /*budget_aware=*/true, order)
           : sched::MinMinScheduler::run_list_pass(input, /*budget_aware=*/true, order);
  count(tracer, "sched.probes", static_cast<double>(sched::probe_count() - probes));
  return schedule;
}

sched::SchedulerOutput traced_predict(Tracer& tracer, const sched::SchedulerInput& input,
                                      sim::Schedule schedule) {
  const ScopedSpan span(tracer.spans, "sim.predict", tracer.round);
  return Finisher::predict(input, std::move(schedule));
}

/// A realization loop replayed through the same public calls as
/// exp::evaluate_schedule (fork, sample_weights, Simulator::run) with each
/// call timed, so the evaluate span can be split into sampling and engine.
void replay_realizations(Tracer& tracer, int evaluate_span, const dag::Workflow& wf,
                         const platform::Platform& platform, const sim::Schedule& schedule,
                         const exp::EvalConfig& config) {
  const sim::Simulator simulator(wf, platform);
  const Rng base(config.seed);
  double sample_ms = 0;
  double run_ms = 0;
  double events = 0;
  for (std::size_t rep = 0; rep < config.repetitions; ++rep) {
    const auto t0 = Clock::now();
    Rng stream = base.fork(rep);
    const dag::WeightRealization weights = dag::sample_weights(wf, stream);
    const auto t1 = Clock::now();
    const sim::SimResult run = simulator.run(schedule, weights);
    run_ms += ms_since(t1);
    sample_ms += std::chrono::duration<double, std::milli>(t1 - t0).count();
    events += static_cast<double>(run.events_processed);
  }
  tracer.spans.add_derived("dag.sample", evaluate_span, sample_ms);
  tracer.spans.add_derived("sim.run", evaluate_span, run_ms);
  count(tracer, "sim.events", events);
}

struct Instance {
  std::optional<dag::Workflow> wf;
  exp::BudgetLevels levels;
};

Instance build_instance(Tracer* tracer, pegasus::WorkflowType type,
                        const pegasus::GeneratorConfig& gen, const platform::Platform& platform) {
  Instance out;
  if (tracer == nullptr) {
    out.wf.emplace(pegasus::generate(type, gen));
    out.levels = exp::compute_budget_levels(*out.wf, platform);
    return out;
  }
  {
    const ScopedSpan span(tracer->spans, "pegasus.generate", tracer->round);
    out.wf.emplace(pegasus::generate(type, gen));
  }
  const ScopedSpan span(tracer->spans, "exp.budget_levels", tracer->round);
  const std::size_t probes = sched::probe_count();
  out.levels = exp::compute_budget_levels(*out.wf, platform);
  count(*tracer, "exp.budget_levels_probes", static_cast<double>(sched::probe_count() - probes));
  return out;
}

// ------------------------------------------------------------------ refine

/// The refining schedulers at each instance's medium budget.  Algorithm 5
/// (HEFTBUDG+, MINMINBUDG+) runs on every instance of a panel of 24-task
/// CYBERSHAKE workflows drawn from the seed; CG+ runs on one pinned 32-task
/// CYBERSHAKE (instance seed 1), because its cost swings up to 25x between
/// instances and would make round_ms measure the seed (README.md).  One op
/// kind is one (algorithm, instance) pair.
class RefineWorkload final : public Workload {
 public:
  static constexpr std::size_t kPanel = 8;
  static constexpr std::size_t kPanelTasks = 24;
  static constexpr std::size_t kCgTasks = 32;
  static constexpr std::uint64_t kCgInstanceSeed = 1;
  static constexpr std::array<std::string_view, 3> kAlgorithms = {
      "heft-budg-plus", "minmin-budg-plus", "cg-plus"};

  explicit RefineWorkload(std::uint64_t seed) : seed_(seed), platform_(platform::paper_platform()) {
    for (const std::string_view name : kAlgorithms)
      schedulers_.push_back(sched::make_scheduler(name));
    plain_cg_ = sched::make_scheduler("cg");
  }

  /// Instances 0..kPanel-1 are the seed's panel; the last one is CG+'s.
  void setup(Tracer* tracer) override {
    instances_.clear();
    for (std::size_t i = 0; i < kPanel; ++i)
      instances_.push_back(
          build_instance(tracer, pegasus::WorkflowType::cybershake,
                         pegasus::GeneratorConfig{kPanelTasks, seed_ * kPanel + i, 0.5}, platform_));
    instances_.push_back(build_instance(tracer, pegasus::WorkflowType::cybershake,
                                        pegasus::GeneratorConfig{kCgTasks, kCgInstanceSeed, 0.5},
                                        platform_));
  }
  [[nodiscard]] std::vector<std::string> kinds() const override {
    std::vector<std::string> out;
    for (std::size_t i = 0; i < kPanel; ++i)
      for (std::size_t a = 0; a < 2; ++a)
        out.push_back(std::string(kAlgorithms[a]) + "/" + std::to_string(i));
    out.emplace_back(kAlgorithms[2]);
    return out;
  }
  std::string run(std::size_t kind) override {
    return digest_of(schedulers_[algorithm(kind)]->schedule(input(kind)));
  }

  std::string run_traced(std::size_t kind, Tracer& tracer) override {
    const sched::SchedulerInput in = input(kind);
    if (algorithm(kind) == 2) return traced_cg_plus(tracer, in);
    std::vector<dag::TaskId> order;
    sim::Schedule schedule = traced_list_pass(tracer, in, /*heft=*/algorithm(kind) == 0, order);
    {
      const ScopedSpan span(tracer.spans, "sched.refine", tracer.round);
      const ProfileSnapshot before = profile_snapshot();
      const std::size_t applied = sched::refine_by_resimulation(in, schedule, order);
      const double resims = profile_delta(before, profile_snapshot(), "sim.event_loop").calls;
      count(tracer, "sim.resims", resims);
      count(tracer, "refine.alg5_resims", resims);
      count(tracer, "refine.alg5_applied", static_cast<double>(applied));
    }
    return digest_of(traced_predict(tracer, in, std::move(schedule)));
  }

  [[nodiscard]] std::string_view work_unit() const override { return "schedules"; }
  [[nodiscard]] double work_per_op(std::size_t) const override { return 1; }

 private:
  [[nodiscard]] static std::size_t algorithm(std::size_t kind) {
    return kind == 2 * kPanel ? 2 : kind % 2;
  }
  [[nodiscard]] sched::SchedulerInput input(std::size_t kind) const {
    const Instance& instance = instances_[kind / 2];
    return sched::make_input(*instance.wf, platform_, instance.levels.medium);
  }

  /// CG+ is one call; its refinement is measured as cg-plus minus cg.  The
  /// plain CG pass is replayed after the op, and its list and prediction
  /// become derived children of the cg-plus span.
  std::string traced_cg_plus(Tracer& tracer, const sched::SchedulerInput& in) {
    std::optional<sched::SchedulerOutput> output;
    int span_id = -1;
    ProfileSnapshot before;
    ProfileSnapshot after;
    {
      const ScopedSpan span(tracer.spans, "sched.refine", tracer.round);
      span_id = span.id();
      const std::size_t probes = sched::probe_count();
      before = profile_snapshot();
      output.emplace(schedulers_[2]->schedule(in));
      after = profile_snapshot();
      count(tracer, "sched.probes", static_cast<double>(sched::probe_count() - probes));
    }
    const double plus_loops = profile_delta(before, after, "sim.event_loop").calls;
    const double plus_predict_ms = profile_delta(before, after, "sched.predict").total_ms;
    tracer.after_op.push_back([this, &tracer, in, span_id, plus_loops, plus_predict_ms] {
      const ProfileSnapshot b = profile_snapshot();
      const auto t0 = Clock::now();
      static_cast<void>(plain_cg_->schedule(in));
      const double cg_ms = ms_since(t0);
      const ProfileSnapshot a = profile_snapshot();
      const double cg_predict_ms = profile_delta(b, a, "sched.predict").total_ms;
      tracer.spans.add_derived("sched.list", span_id, cg_ms - cg_predict_ms);
      tracer.spans.add_derived("sim.predict", span_id, plus_predict_ms);
      count(tracer, "sim.resims", plus_loops - profile_delta(b, a, "sim.event_loop").calls);
    });
    return digest_of(*output);
  }

  std::uint64_t seed_;
  platform::Platform platform_;
  std::vector<Instance> instances_;
  std::vector<std::unique_ptr<sched::Scheduler>> schedulers_;
  std::unique_ptr<sched::Scheduler> plain_cg_;
};

// ----------------------------------------------------------------- execute

/// `cloudwf simulate`: HEFTBUDG at the medium budget on a 1000-task
/// CYBERSHAKE, executed against 50 sampled realizations.
class ExecuteWorkload final : public Workload {
 public:
  explicit ExecuteWorkload(std::uint64_t seed) : seed_(seed), platform_(platform::paper_platform()) {
    config_.repetitions = kRealizations;
    config_.seed = seed * 7919 + 17;
  }

  void setup(Tracer* tracer) override {
    instance_ = build_instance(tracer, pegasus::WorkflowType::cybershake,
                               pegasus::GeneratorConfig{1000, seed_, 0.5}, platform_);
  }
  [[nodiscard]] std::vector<std::string> kinds() const override { return {"heft-budg"}; }
  std::string run(std::size_t) override {
    return digest_of(
        exp::evaluate(*instance_.wf, platform_, "heft-budg", instance_.levels.medium, config_));
  }

  std::string run_traced(std::size_t, Tracer& tracer) override {
    const dag::Workflow& wf = *instance_.wf;
    const Dollars budget = instance_.levels.medium;
    const sched::SchedulerInput in = sched::make_input(wf, platform_, budget);
    std::vector<dag::TaskId> list;
    sched::SchedulerOutput output =
        traced_predict(tracer, in, traced_list_pass(tracer, in, /*heft=*/true, list));
    exp::EvalResult result;
    int span_id = -1;
    {
      const ScopedSpan span(tracer.spans, "exp.evaluate", tracer.round);
      span_id = span.id();
      result = exp::evaluate_schedule(wf, platform_, output, "heft-budg", budget, config_);
    }
    tracer.after_op.push_back([this, &tracer, &wf, span_id, schedule = output.schedule] {
      replay_realizations(tracer, span_id, wf, platform_, schedule, config_);
    });
    return digest_of(result);
  }

  [[nodiscard]] std::string_view work_unit() const override { return "realizations"; }
  [[nodiscard]] double work_per_op(std::size_t) const override { return kRealizations; }

 private:
  static constexpr std::size_t kRealizations = 50;
  std::uint64_t seed_;
  platform::Platform platform_;
  exp::EvalConfig config_;
  Instance instance_;
};

// ---------------------------------------------------------------- campaign

/// One serial exp::run_campaign: MONTAGE, 90 tasks, 2 instances x 4 budgets
/// x the 6 non-refining algorithms, 10 realizations, fresh journal.
class CampaignWorkload final : public Workload {
 public:
  CampaignWorkload(std::uint64_t seed, fs::path scratch)
      : platform_(platform::paper_platform()), journal_dir_(std::move(scratch) / "journal") {
    config_.type = pegasus::WorkflowType::montage;
    config_.tasks = 90;
    config_.instances = 2;
    config_.budget_points = 4;
    config_.repetitions = 10;
    config_.seed = seed;
    config_.threads = 1;
    config_.checkpoint_dir = journal_dir_.string();
    for (const sched::SchedulerInfo& info : sched::scheduler_registry())
      if (!info.refining) config_.algorithms.emplace_back(info.name);
  }

  /// The campaign's own phase 1: every instance and its budget levels.
  void setup(Tracer* tracer) override {
    instances_.clear();
    for (std::size_t inst = 0; inst < config_.instances; ++inst)
      instances_.push_back(build_instance(
          tracer, config_.type,
          pegasus::GeneratorConfig{config_.tasks, config_.seed + inst, config_.sigma_ratio},
          platform_));
  }
  [[nodiscard]] std::vector<std::string> kinds() const override { return {"campaign"}; }

  std::string run(std::size_t) override {
    fresh_directory(journal_dir_);
    const exp::CampaignResult result = exp::run_campaign(platform_, config_);
    require_clean(result);
    return digest_of(result);
  }

  std::string run_traced(std::size_t, Tracer& tracer) override;
  void after_trace(Tracer& tracer) override;

  [[nodiscard]] std::string_view work_unit() const override { return "cells"; }
  [[nodiscard]] double work_per_op(std::size_t) const override {
    return static_cast<double>(config_.instances * config_.budget_points *
                               config_.algorithms.size());
  }

 private:
  /// A degraded cell, or a cell replayed from a stale journal instead of
  /// computed, fails the op.
  static void require_clean(const exp::CampaignResult& result) {
    if (result.timed_out_cells + result.errored_cells > 0)
      throw std::runtime_error("campaign: " + std::to_string(result.errored_cells) +
                               " errored and " + std::to_string(result.timed_out_cells) +
                               " timed-out cells");
    if (result.replayed_cells > 0)
      throw std::runtime_error("campaign: " + std::to_string(result.replayed_cells) +
                               " cells replayed from a stale journal");
  }

  platform::Platform platform_;
  fs::path journal_dir_;
  exp::CampaignConfig config_;
  std::vector<Instance> instances_;
  std::vector<Instance> traced_instances_;
};

/// exp::run_campaign rebuilt from its public calls, one span per layer:
/// generation and budget levels (phase 1), then per cell the scheduling
/// call with a shared PlanCache, evaluate_schedule and the journal append
/// (phase 2), then the aggregation (phase 3, the exp.campaign self time).
/// Produces the same CampaignResult, so it carries the same digest.
std::string CampaignWorkload::run_traced(std::size_t, Tracer& tracer) {
  const ScopedSpan campaign_span(tracer.spans, "exp.campaign", tracer.round);
  fresh_directory(journal_dir_);
  const exp::CampaignConfig& config = config_;
  exp::CampaignResult result;
  result.config = config;
  result.mean_budgets.assign(config.budget_points, 0);
  result.cells.assign(config.algorithms.size(),
                      std::vector<exp::CampaignCell>(config.budget_points));

  std::vector<Accumulator> budget_acc(config.budget_points);
  // A member, because the deferred replays read these workflows after the
  // op returns.
  std::vector<Instance>& instances = traced_instances_;
  instances.clear();
  std::vector<std::vector<Dollars>> sweeps;
  for (std::size_t inst = 0; inst < config.instances; ++inst) {
    instances.push_back(build_instance(
        &tracer, config.type,
        pegasus::GeneratorConfig{config.tasks, config.seed + inst, config.sigma_ratio},
        platform_));
    const exp::BudgetLevels& levels = instances.back().levels;
    result.min_cost.add(levels.min_cost);
    sweeps.push_back(exp::budget_sweep(levels, config.budget_points));
    for (std::size_t b = 0; b < config.budget_points; ++b) budget_acc[b].add(sweeps.back()[b]);
  }

  sched::PlanCache plans;
  exp::CheckpointJournal journal((journal_dir_ / "campaign-traced.jsonl").string(), false);
  for (std::size_t inst = 0; inst < config.instances; ++inst) {
    const dag::Workflow& wf = *instances[inst].wf;
    for (std::size_t b = 0; b < config.budget_points; ++b) {
      for (std::size_t a = 0; a < config.algorithms.size(); ++a) {
        exp::RunRequest request;
        request.wf = &wf;
        request.algorithm = config.algorithms[a];
        request.budget = sweeps[inst][b];
        request.config.repetitions = config.repetitions;
        request.config.seed = config.seed * 1000003 + inst * 101 + b;
        request.config.measure_cpu_time = true;
        request.config.plan_cache = &plans;
        request.tag = "inst=" + std::to_string(inst) + ";b=" + std::to_string(b);

        std::optional<sched::SchedulerOutput> output;
        int schedule_span = -1;
        {
          const ScopedSpan span(tracer.spans, "sched.list", tracer.round);
          schedule_span = span.id();
          const auto scheduler = sched::make_scheduler(request.algorithm);
          const sched::SchedulerInput in = sched::make_input(
              wf, platform_, request.budget, nullptr, &plans.get(wf, platform_));
          const std::size_t probes = sched::probe_count();
          const ProfileSnapshot before = profile_snapshot();
          output.emplace(scheduler->schedule(in));
          tracer.spans.add_derived(
              "sim.predict", span.id(),
              profile_delta(before, profile_snapshot(), "sched.predict").total_ms);
          count(tracer, "sched.probes", static_cast<double>(sched::probe_count() - probes));
        }
        exp::EvalResult point;
        {
          const ScopedSpan span(tracer.spans, "exp.evaluate", tracer.round);
          point = exp::evaluate_schedule(wf, platform_, *output, request.algorithm,
                                         request.budget, request.config);
          tracer.after_op.push_back([this, &tracer, &wf, id = span.id(),
                                     schedule = output->schedule, eval = request.config] {
            replay_realizations(tracer, id, wf, platform_, schedule, eval);
          });
        }
        if (!point.ok()) throw std::runtime_error("campaign: degraded cell " + request.tag);
        // As evaluate() measures it: the scheduling call's wall time.
        point.schedule_seconds = tracer.spans.duration_ms(schedule_span) / 1e3;
        {
          const ScopedSpan span(tracer.spans, "exp.checkpoint_write", tracer.round);
          journal.record(exp::fingerprint_request(request), point);
        }
        exp::CampaignCell& cell = result.cells[a][b];
        cell.makespan.add(point.makespan.mean());
        cell.cost.add(point.cost.mean());
        cell.used_vms.add(static_cast<double>(point.used_vms));
        cell.valid.add(point.valid_fraction);
        cell.sched_time.add(point.schedule_seconds);
        cell.queue_wait_p95.add(point.queue_wait_p95);
        cell.vm_util.add(point.vm_util_mean);
        cell.transfer_retries.add(point.transfer_retries_mean);
        cell.budget_headroom.add(point.budget_headroom_mean);
      }
    }
  }
  for (std::size_t b = 0; b < config.budget_points; ++b)
    result.mean_budgets[b] = budget_acc[b].mean();
  count(tracer, "exp.checkpoint_records", static_cast<double>(journal.recorded()));
  count(tracer, "exp.checkpoint_bytes", static_cast<double>(fs::file_size(journal.path())));
  // The traced instances must be the ones the workload's set-up built.
  for (std::size_t inst = 0; inst < config.instances; ++inst)
    if (instances[inst].levels.medium != instances_[inst].levels.medium)
      throw std::runtime_error("campaign: traced instance differs from set-up");
  return digest_of(result);
}

/// The read side of the journal: a resumed run over a finished journal.
void CampaignWorkload::after_trace(Tracer& tracer) {
  const std::string expected = run(0);
  exp::CampaignConfig resume = config_;
  resume.resume = true;
  const auto t0 = Clock::now();
  const exp::CampaignResult replayed = exp::run_campaign(platform_, resume);
  tracer.counters["exp.checkpoint_replay_ms"] = ms_since(t0);
  const auto cells = static_cast<std::size_t>(work_per_op(0));
  if (replayed.replayed_cells != cells || digest_of(replayed) != expected)
    throw std::runtime_error("campaign: resume did not replay the journal bit-identically");
}

}  // namespace

std::unique_ptr<Workload> make_workload(std::string_view name, std::uint64_t seed,
                                        const fs::path& scratch) {
  if (name == "refine") return std::make_unique<RefineWorkload>(seed);
  if (name == "execute") return std::make_unique<ExecuteWorkload>(seed);
  if (name == "campaign") return std::make_unique<CampaignWorkload>(seed, scratch);
  throw std::invalid_argument("unknown workload '" + std::string(name) + "'");
}

}  // namespace perfbench
