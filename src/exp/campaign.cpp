#include "exp/campaign.hpp"

#include <algorithm>
#include <bit>
#include <filesystem>
#include <memory>
#include <ostream>

#include "common/error.hpp"
#include "common/fnv1a.hpp"
#include "common/table.hpp"
#include "dag/stochastic.hpp"
#include "exp/checkpoint.hpp"
#include "exp/runner.hpp"

namespace cloudwf::exp {

namespace {

/// Hash of every result-affecting campaign parameter (threads and the
/// checkpoint knobs are deliberately excluded: they do not change the
/// numbers).  Names the journal file, and salts request fingerprints so a
/// journal can never be replayed against a different configuration.
std::uint64_t campaign_config_hash(const CampaignConfig& config) {
  Fnv1a hash;
  const auto mix = [&hash](std::uint64_t v) {
    for (std::size_t i = 0; i < sizeof v; ++i, v >>= 8) {
      const auto byte = static_cast<unsigned char>(v & 0xFF);
      hash.mix(&byte, 1);
    }
  };
  const auto mix_double = [&](double d) { mix(std::bit_cast<std::uint64_t>(d)); };
  mix(static_cast<std::uint64_t>(config.type));
  mix(config.tasks);
  mix(config.instances);
  mix_double(config.sigma_ratio);
  mix(config.budget_points);
  mix(config.repetitions);
  mix(config.seed);
  mix_double(config.low_budget_factor);
  mix_double(config.high_budget_cap_factor);
  mix(config.algorithms.size());
  for (const std::string& algorithm : config.algorithms) {
    for (const char c : algorithm) mix(static_cast<unsigned char>(c));
    mix(0x1F);  // separator: {"a","bc"} != {"ab","c"}
  }
  return hash.value();
}

}  // namespace

CampaignResult run_campaign(const platform::Platform& platform, const CampaignConfig& config) {
  require(!config.algorithms.empty(), "run_campaign: no algorithms listed");
  // Unknown algorithm names are deliberately NOT rejected here: the runner's
  // crash containment turns them into degraded (errored) cells so one typo
  // cannot void a long campaign.  Interactive entry points (the CLI) validate
  // against the registry up front instead.
  require(config.instances >= 1, "run_campaign: need at least one instance");
  require(config.budget_points >= 2, "run_campaign: need at least two budget points");
  require(config.low_budget_factor > 0, "run_campaign: low_budget_factor must be positive");
  require(config.run_timeout >= 0, "run_campaign: run_timeout must be non-negative");
  require(!config.resume || !config.checkpoint_dir.empty(),
          "run_campaign: resume requires a checkpoint_dir");

  CampaignResult result;
  result.config = config;
  result.mean_budgets.assign(config.budget_points, 0);
  result.cells.assign(config.algorithms.size(),
                      std::vector<CampaignCell>(config.budget_points));

  std::vector<Accumulator> budget_acc(config.budget_points);

  // Phase 1 (serial): instances and their budget sweeps.
  std::vector<dag::Workflow> instances;
  instances.reserve(config.instances);
  std::vector<std::vector<Dollars>> sweeps;
  for (std::size_t inst = 0; inst < config.instances; ++inst) {
    const pegasus::GeneratorConfig gen{config.tasks, config.seed + inst, config.sigma_ratio};
    instances.push_back(pegasus::generate(config.type, gen));

    BudgetLevels levels = compute_budget_levels(instances.back(), platform);
    result.min_cost.add(levels.min_cost);
    levels.low *= config.low_budget_factor;
    if (config.high_budget_cap_factor > 0)
      levels.high = std::max(levels.low * 1.01,
                             std::min(levels.high, config.high_budget_cap_factor *
                                                       levels.min_cost));
    sweeps.push_back(budget_sweep(levels, config.budget_points));
    for (std::size_t b = 0; b < config.budget_points; ++b) budget_acc[b].add(sweeps.back()[b]);
  }

  // Phase 2: the evaluation matrix, optionally across a thread pool.  The
  // tag pins each request to its (instance, budget-index) cell so journal
  // fingerprints are unique across the matrix.
  std::vector<RunRequest> requests;
  requests.reserve(config.instances * config.budget_points * config.algorithms.size());
  for (std::size_t inst = 0; inst < config.instances; ++inst) {
    for (std::size_t b = 0; b < config.budget_points; ++b) {
      for (const std::string& algorithm : config.algorithms) {
        RunRequest request;
        request.wf = &instances[inst];
        request.algorithm = algorithm;
        request.budget = sweeps[inst][b];
        request.config.repetitions = config.repetitions;
        request.config.seed = config.seed * 1000003 + inst * 101 + b;
        request.config.measure_cpu_time = true;
        request.config.run_timeout = config.run_timeout;
        request.tag = "inst=" + std::to_string(inst) + ";b=" + std::to_string(b);
        requests.push_back(std::move(request));
      }
    }
  }

  RunPolicy policy;
  std::unique_ptr<CheckpointJournal> journal;
  if (!config.checkpoint_dir.empty()) {
    std::filesystem::create_directories(config.checkpoint_dir);
    policy.fingerprint_salt = campaign_config_hash(config);
    const std::filesystem::path path =
        std::filesystem::path(config.checkpoint_dir) /
        ("campaign-" + std::string(pegasus::to_string(config.type)) + "-" +
         hex64(policy.fingerprint_salt) + ".jsonl");
    journal = std::make_unique<CheckpointJournal>(path.string(), config.resume);
    policy.journal = journal.get();
    result.journal_path = path.string();
  }

  const std::vector<EvalResult> results =
      run_requests(platform, requests, config.threads, policy);
  // Phase 3: aggregation (deterministic request order).  Degraded cells
  // carry no sample data; they are counted, not averaged.
  std::size_t index = 0;
  for (std::size_t inst = 0; inst < config.instances; ++inst) {
    for (std::size_t b = 0; b < config.budget_points; ++b) {
      for (std::size_t a = 0; a < config.algorithms.size(); ++a, ++index) {
        const EvalResult& point = results[index];
        CampaignCell& cell = result.cells[a][b];
        if (!point.ok()) {
          if (point.status == RunStatus::timed_out) {
            ++cell.timed_out;
            ++result.timed_out_cells;
          } else {
            ++cell.errored;
            ++result.errored_cells;
          }
          continue;
        }
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

  // Fresh completions were recorded, degraded cells never enter the
  // journal — everything else was replayed from a previous run.
  if (journal)
    result.replayed_cells = requests.size() - journal->recorded() - result.timed_out_cells -
                            result.errored_cells;

  for (std::size_t b = 0; b < config.budget_points; ++b)
    result.mean_budgets[b] = budget_acc[b].mean();
  return result;
}

void print_campaign_table(std::ostream& out, const CampaignResult& result,
                          const std::string& metric, const std::string& title) {
  const auto pick = [&](const CampaignCell& cell) -> const Accumulator& {
    if (metric == "makespan") return cell.makespan;
    if (metric == "cost") return cell.cost;
    if (metric == "vms") return cell.used_vms;
    if (metric == "valid") return cell.valid;
    if (metric == "sched_time") return cell.sched_time;
    if (metric == "queue_wait_p95") return cell.queue_wait_p95;
    if (metric == "util") return cell.vm_util;
    if (metric == "retries") return cell.transfer_retries;
    if (metric == "headroom") return cell.budget_headroom;
    throw InvalidArgument("print_campaign_table: unknown metric '" + metric + "'");
  };

  TablePrinter table(title);
  std::vector<std::string> columns{"budget($)"};
  for (const std::string& algorithm : result.config.algorithms)
    columns.push_back(algorithm);
  table.columns(std::move(columns));

  for (std::size_t b = 0; b < result.mean_budgets.size(); ++b) {
    std::vector<std::string> cells{TablePrinter::num(result.mean_budgets[b], 4)};
    for (std::size_t a = 0; a < result.config.algorithms.size(); ++a) {
      const CampaignCell& cell = result.cells[a][b];
      const Accumulator& acc = pick(cell);
      const int precision = metric == "cost" ? 4 : 2;
      // A degraded instance leaves the cell with fewer (possibly zero)
      // observations; mark it so the table never silently averages less
      // data than the clean cells.
      std::string text = acc.count() == 0
                             ? std::string("n/a")
                             : TablePrinter::pm(acc.mean(), acc.stddev(), precision);
      if (cell.degraded() > 0) text += " [-" + std::to_string(cell.degraded()) + "]";
      cells.push_back(std::move(text));
    }
    table.row(std::move(cells));
  }
  table.print(out);
  if (result.timed_out_cells + result.errored_cells > 0)
    out << "degraded cells excluded from aggregates: " << result.timed_out_cells
        << " timed_out, " << result.errored_cells << " errored\n";
  if (metric == "makespan")
    out << "min_cost reference (all tasks on one cheapest VM): $"
        << TablePrinter::num(result.min_cost.mean(), 4) << "\n";
  out << '\n';
}

}  // namespace cloudwf::exp
