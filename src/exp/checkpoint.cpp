#include "exp/checkpoint.hpp"

#include <cerrno>
#include <cstring>
#include <fstream>
#include <optional>
#include <sstream>

#include "common/error.hpp"
#include "common/fnv1a.hpp"

#ifndef _WIN32
#include <fcntl.h>
#include <unistd.h>
#endif

namespace cloudwf::exp {

namespace {

Json summary_to_json(const Summary& summary) {
  Json::Array values;
  values.reserve(summary.count());
  for (const double v : summary.values()) values.emplace_back(v);
  return {std::move(values)};
}

Summary summary_from_json(const Json& json) {
  std::vector<double> values;
  values.reserve(json.as_array().size());
  for (const Json& v : json.as_array()) values.push_back(v.as_number());
  return Summary(std::move(values));
}

}  // namespace

Json eval_result_to_json(const EvalResult& r) {
  Json::Object o;
  o["algorithm"] = r.algorithm;
  o["budget"] = r.budget;
  o["status"] = std::string(to_string(r.status));
  o["error_kind"] = std::string(to_string(r.error_kind));
  o["error_message"] = r.error_message;
  o["predicted_makespan"] = r.predicted_makespan;
  o["predicted_cost"] = r.predicted_cost;
  o["predicted_feasible"] = r.predicted_feasible;
  o["used_vms"] = r.used_vms;
  o["makespan"] = summary_to_json(r.makespan);
  o["cost"] = summary_to_json(r.cost);
  o["valid_fraction"] = r.valid_fraction;
  o["deadline_fraction"] = r.deadline_fraction;
  o["objective_fraction"] = r.objective_fraction;
  o["success_fraction"] = r.success_fraction;
  o["crashes_mean"] = r.crashes_mean;
  o["failed_tasks_mean"] = r.failed_tasks_mean;
  o["recovery_cost_mean"] = r.recovery_cost_mean;
  o["wasted_compute_mean"] = r.wasted_compute_mean;
  o["schedule_seconds"] = r.schedule_seconds;
  Json::Object obs;
  obs["queue_wait_p50"] = r.queue_wait_p50;
  obs["queue_wait_p95"] = r.queue_wait_p95;
  obs["queue_wait_p99"] = r.queue_wait_p99;
  obs["vm_util_mean"] = r.vm_util_mean;
  obs["transfer_retries_mean"] = r.transfer_retries_mean;
  obs["budget_headroom_mean"] = r.budget_headroom_mean;
  o["obs"] = Json(std::move(obs));
  return {std::move(o)};
}

EvalResult eval_result_from_json(const Json& json) {
  EvalResult r;
  r.algorithm = json.at("algorithm").as_string();
  r.budget = json.at("budget").as_number();
  r.status = parse_run_status(json.at("status").as_string());
  r.error_kind = parse_error_kind(json.at("error_kind").as_string());
  r.error_message = json.at("error_message").as_string();
  r.predicted_makespan = json.at("predicted_makespan").as_number();
  r.predicted_cost = json.at("predicted_cost").as_number();
  r.predicted_feasible = json.at("predicted_feasible").as_bool();
  r.used_vms = static_cast<std::size_t>(json.at("used_vms").as_number());
  r.makespan = summary_from_json(json.at("makespan"));
  r.cost = summary_from_json(json.at("cost"));
  r.valid_fraction = json.at("valid_fraction").as_number();
  r.deadline_fraction = json.at("deadline_fraction").as_number();
  r.objective_fraction = json.at("objective_fraction").as_number();
  r.success_fraction = json.at("success_fraction").as_number();
  r.crashes_mean = json.at("crashes_mean").as_number();
  r.failed_tasks_mean = json.at("failed_tasks_mean").as_number();
  r.recovery_cost_mean = json.at("recovery_cost_mean").as_number();
  r.wasted_compute_mean = json.at("wasted_compute_mean").as_number();
  r.schedule_seconds = json.at("schedule_seconds").as_number();
  // Observability aggregates arrived after the journal format shipped;
  // journals written by older builds simply lack the block (fields stay 0).
  if (const Json* obs = json.as_object().find("obs")) {
    r.queue_wait_p50 = obs->at("queue_wait_p50").as_number();
    r.queue_wait_p95 = obs->at("queue_wait_p95").as_number();
    r.queue_wait_p99 = obs->at("queue_wait_p99").as_number();
    r.vm_util_mean = obs->at("vm_util_mean").as_number();
    r.transfer_retries_mean = obs->at("transfer_retries_mean").as_number();
    r.budget_headroom_mean = obs->at("budget_headroom_mean").as_number();
  }
  return r;
}

std::string fingerprint_request(const RunRequest& request, std::uint64_t salt) {
  require(request.wf != nullptr, "fingerprint_request: request without a workflow");
  Fnv1a h;
  h.u64(salt);
  h.str(request.wf->name());
  h.u64(request.wf->task_count());
  h.str(request.algorithm);
  h.f64(request.budget);
  h.str(request.tag);
  const EvalConfig& c = request.config;
  h.u64(c.repetitions);
  h.u64(c.seed);
  h.f64(c.deadline);
  const sim::FaultModel& faults = c.run.faults;
  h.f64(faults.p_boot_fail);
  h.f64(faults.lambda_crash);
  h.f64(faults.p_transfer_fail);
  h.f64(faults.acquisition_delay);
  h.u64(faults.seed);
  const sim::RecoveryPolicy& recovery = c.run.recovery;
  h.u64(recovery.max_boot_attempts);
  h.u64(recovery.max_task_retries);
  h.u64(recovery.max_transfer_retries);
  h.f64(recovery.transfer_backoff_base);
  h.f64(recovery.budget_cap);
  // Mixed in only when set: a request without an online policy keeps the
  // fingerprint it had before the policy was hashed, so old journals resume.
  if (const std::optional<sim::OnlinePolicy>& online = c.run.online) {
    h.f64(online->timeout_sigmas);
    h.u64(online->max_restarts);
    h.f64(online->min_speedup);
    h.f64(online->budget_cap);
  }
  return hex64(h.value());
}

CheckpointJournal::CheckpointJournal(std::string path, bool resume)
    : path_(std::move(path)) {
  if (resume) {
    // Load whatever complete records exist; a torn trailing line (the
    // signature of a mid-append kill) or any other unparseable/incomplete
    // line is skipped and its cell recomputed.
    std::ifstream in(path_, std::ios::binary);
    if (in.good()) {
      std::string line;
      while (std::getline(in, line)) {
        if (line.empty()) continue;
        try {
          const Json record = Json::parse(line);
          cache_.insert_or_assign(record.at("fp").as_string(),
                                  eval_result_from_json(record.at("result")));
        } catch (const Error&) {
          ++skipped_lines_;
        }
      }
    }
  }
#ifndef _WIN32
  const int flags = O_WRONLY | O_CREAT | O_CLOEXEC | (resume ? O_APPEND : O_TRUNC);
  fd_ = ::open(path_.c_str(), flags, 0644);
  if (fd_ < 0)
    throw IoError("CheckpointJournal: cannot open '" + path_ + "': " + std::strerror(errno));
#else
  throw IoError("CheckpointJournal: not supported on this platform");
#endif
}

CheckpointJournal::~CheckpointJournal() {
#ifndef _WIN32
  if (fd_ >= 0) ::close(fd_);
#endif
}

const EvalResult* CheckpointJournal::find(const std::string& fingerprint) const {
  const auto it = cache_.find(fingerprint);
  return it == cache_.end() ? nullptr : &it->second;
}

void CheckpointJournal::record(const std::string& fingerprint, const EvalResult& result) {
  Json::Object record;
  record["fp"] = fingerprint;
  record["result"] = eval_result_to_json(result);
  const std::string line = Json(std::move(record)).dump() + "\n";
#ifndef _WIN32
  const std::lock_guard lock(append_mutex_);
  // One O_APPEND write per record keeps lines contiguous even if another
  // process shares the journal; fsync makes the cell durable before the
  // runner moves on — a SIGKILL can only ever cost the in-flight cell.
  std::size_t written = 0;
  while (written < line.size()) {
    const ::ssize_t n = ::write(fd_, line.data() + written, line.size() - written);
    if (n < 0) {
      if (errno == EINTR) continue;
      throw IoError("CheckpointJournal: write failed for '" + path_ +
                    "': " + std::strerror(errno));
    }
    written += static_cast<std::size_t>(n);
  }
  if (::fsync(fd_) != 0)
    throw IoError("CheckpointJournal: fsync failed for '" + path_ +
                  "': " + std::strerror(errno));
  ++recorded_;
#else
  (void)fingerprint;
  (void)result;
#endif
}

}  // namespace cloudwf::exp
