#include "harness.hpp"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <cstring>

#include "check/auto_check.hpp"
#include "common/log.hpp"
#include "exp/campaign.hpp"
#include "exp/evaluate.hpp"
#include "obs/profile.hpp"
#include "sched/scheduler.hpp"

namespace perfbench {

using cloudwf::Json;

// ---------------------------------------------------------------- statistics

std::optional<double> sum_of_kind_minima(const std::vector<KindSamples>& kinds) {
  if (kinds.empty()) return std::nullopt;
  double sum = 0;
  for (const KindSamples& kind : kinds) {
    if (kind.ms.empty()) return std::nullopt;
    sum += *std::min_element(kind.ms.begin(), kind.ms.end());
  }
  return sum;
}

double median(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid] : 0.5 * (values[mid - 1] + values[mid]);
}

std::optional<Tail> tail_percentile(std::vector<double> values) {
  static constexpr double kPercentiles[] = {99.9, 99, 95, 90, 50};
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  for (const double p : kPercentiles) {
    // Nearest rank: the smallest sample with at least p% of the sample at
    // or below it; everything after it lies beyond the percentile.
    const auto rank = static_cast<std::size_t>(std::ceil(p / 100.0 * static_cast<double>(n)));
    if (rank == 0) continue;
    const std::size_t beyond = n - rank;
    if (beyond >= 10) return Tail{p, values[rank - 1], beyond, n};
  }
  return std::nullopt;
}

// ------------------------------------------------------------------ digests

void Digest::add(std::uint64_t value) {
  for (std::size_t i = 0; i < sizeof value; ++i, value >>= 8) {
    hash_ ^= value & 0xFF;
    hash_ *= 0x100000001B3ULL;
  }
}

void Digest::add(double value) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &value, sizeof bits);
  add(bits);
}

void Digest::add(std::string_view text) {
  add(static_cast<std::uint64_t>(text.size()));
  for (const char c : text) add(static_cast<std::uint64_t>(static_cast<unsigned char>(c)));
}

std::string Digest::hex() const {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string out(16, '0');
  std::uint64_t v = hash_;
  for (int i = 15; i >= 0; --i, v >>= 4) out[static_cast<std::size_t>(i)] = kDigits[v & 0xF];
  return out;
}

std::string digest_of(const cloudwf::sched::SchedulerOutput& output) {
  Digest d;
  const auto& schedule = output.schedule;
  d.add(static_cast<std::uint64_t>(schedule.task_count()));
  for (std::size_t t = 0; t < schedule.task_count(); ++t) {
    const auto task = static_cast<cloudwf::dag::TaskId>(t);
    d.add(static_cast<std::uint64_t>(schedule.vm_of(task)));
    d.add(schedule.priority(task));
  }
  d.add(static_cast<std::uint64_t>(schedule.vm_count()));
  for (std::size_t v = 0; v < schedule.vm_count(); ++v) {
    const auto vm = static_cast<cloudwf::sim::VmId>(v);
    d.add(static_cast<std::uint64_t>(schedule.vm_category(vm)));
    for (const auto task : schedule.vm_tasks(vm)) d.add(static_cast<std::uint64_t>(task));
  }
  d.add(output.predicted_makespan);
  d.add(output.predicted_cost);
  d.add(static_cast<std::uint64_t>(output.budget_feasible));
  return d.hex();
}

std::string digest_of(const cloudwf::exp::EvalResult& r) {
  Digest d;
  d.add(r.algorithm);
  d.add(r.budget);
  d.add(cloudwf::exp::to_string(r.status));
  d.add(static_cast<std::uint64_t>(r.error_kind));
  d.add(r.error_message);
  d.add(r.predicted_makespan);
  d.add(r.predicted_cost);
  d.add(static_cast<std::uint64_t>(r.predicted_feasible));
  d.add(static_cast<std::uint64_t>(r.used_vms));
  for (const double x : r.makespan.values()) d.add(x);
  for (const double x : r.cost.values()) d.add(x);
  for (const double x : {r.valid_fraction, r.deadline_fraction, r.objective_fraction,
                         r.success_fraction, r.crashes_mean, r.failed_tasks_mean,
                         r.recovery_cost_mean, r.wasted_compute_mean, r.queue_wait_p50,
                         r.queue_wait_p95, r.queue_wait_p99, r.vm_util_mean,
                         r.transfer_retries_mean, r.budget_headroom_mean})
    d.add(x);
  return d.hex();
}

std::string digest_of(const cloudwf::exp::CampaignResult& result) {
  Digest d;
  const auto add_acc = [&d](const cloudwf::Accumulator& acc) {
    d.add(static_cast<std::uint64_t>(acc.count()));
    if (acc.count() == 0) return;
    d.add(acc.mean());
    d.add(acc.variance());
    d.add(acc.min());
    d.add(acc.max());
  };
  for (const double b : result.mean_budgets) d.add(b);
  for (const auto& row : result.cells) {
    for (const cloudwf::exp::CampaignCell& cell : row) {
      for (const auto* acc : {&cell.makespan, &cell.cost, &cell.used_vms, &cell.valid,
                              &cell.queue_wait_p95, &cell.vm_util, &cell.transfer_retries,
                              &cell.budget_headroom})
        add_acc(*acc);
      d.add(static_cast<std::uint64_t>(cell.timed_out));
      d.add(static_cast<std::uint64_t>(cell.errored));
    }
  }
  add_acc(result.min_cost);
  d.add(static_cast<std::uint64_t>(result.timed_out_cells));
  d.add(static_cast<std::uint64_t>(result.errored_cells));
  return d.hex();
}

// -------------------------------------------------------------------- spans

SpanRecorder::SpanRecorder() : origin_(Clock::now()) {}

int SpanRecorder::open(std::string name, int round) {
  Span span;
  span.name = std::move(name);
  span.round = round;
  span.parent = stack_.empty() ? -1 : stack_.back();
  span.start_ms = std::chrono::duration<double, std::milli>(Clock::now() - origin_).count();
  spans_.push_back(std::move(span));
  const int id = static_cast<int>(spans_.size()) - 1;
  stack_.push_back(id);
  return id;
}

void SpanRecorder::close(int id) {
  spans_[static_cast<std::size_t>(id)].end_ms =
      std::chrono::duration<double, std::milli>(Clock::now() - origin_).count();
  if (!stack_.empty() && stack_.back() == id) stack_.pop_back();
}

void SpanRecorder::add_derived(std::string name, int parent, double duration_ms) {
  const Span& owner = spans_[static_cast<std::size_t>(parent)];
  Span span;
  span.name = std::move(name);
  span.round = owner.round;
  span.parent = parent;
  span.start_ms = owner.start_ms;
  span.end_ms = owner.start_ms + std::max(0.0, duration_ms);
  span.derived = true;
  spans_.push_back(std::move(span));
}

double SpanRecorder::duration_ms(int id) const {
  const Span& span = spans_[static_cast<std::size_t>(id)];
  return span.end_ms - span.start_ms;
}

Json SpanRecorder::to_json() const {
  Json::Array out;
  out.reserve(spans_.size());
  const std::vector<double> self = self_times_ms(spans_);
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    Json::Object entry;
    entry["name"] = span.name;
    entry["start_ms"] = span.start_ms;
    entry["end_ms"] = span.end_ms;
    entry["parent"] = span.parent;
    entry["round"] = span.round;
    entry["derived"] = span.derived;
    entry["self_ms"] = self[i];
    out.emplace_back(std::move(entry));
  }
  return Json(std::move(out));
}

std::vector<double> self_times_ms(const std::vector<Span>& spans) {
  std::vector<double> self(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) self[i] = spans[i].end_ms - spans[i].start_ms;
  for (const Span& span : spans)
    if (span.parent >= 0) self[static_cast<std::size_t>(span.parent)] -= span.end_ms - span.start_ms;
  return self;
}

std::map<std::string, double> self_time_by_name(const std::vector<Span>& spans, bool in_rounds) {
  const std::vector<double> self = self_times_ms(spans);
  std::map<std::string, double> out;
  for (std::size_t i = 0; i < spans.size(); ++i)
    if ((spans[i].round >= 0) == in_rounds) out[spans[i].name] += self[i];
  return out;
}

// ------------------------------------------------------ profile snapshots

ProfileSnapshot profile_snapshot() {
  ProfileSnapshot out;
  const Json doc = cloudwf::obs::profile_json();
  for (const auto& [name, entry] : doc.at("scopes").as_object())
    out[name] = ProfileScopeTotals{entry.at("calls").as_number(), entry.at("total_ms").as_number()};
  return out;
}

ProfileScopeTotals profile_delta(const ProfileSnapshot& before, const ProfileSnapshot& after,
                                 const std::string& scope) {
  ProfileScopeTotals delta;
  if (const auto it = after.find(scope); it != after.end()) delta = it->second;
  if (const auto it = before.find(scope); it != before.end()) {
    delta.calls -= it->second.calls;
    delta.total_ms -= it->second.total_ms;
  }
  return delta;
}

// --------------------------------------------------------------- switches

bool release_build() {
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  return false;
#else
#if defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) || \
    __has_feature(undefined_behavior_sanitizer)
  return false;
#endif
#endif
#ifdef NDEBUG
  return std::string_view(PERFBENCH_BUILD_TYPE) == "Release";
#else
  return false;
#endif
#endif
}

Json pin_switches(bool profiling) {
  Json::Object found;
  for (const char* name : {"CLOUDWF_CHECK", "CLOUDWF_PROFILE", "CLOUDWF_LOG", "CLOUDWF_LOG_JSON",
                           "CLOUDWF_QUICK", "CLOUDWF_FULL", "CLOUDWF_CHECKPOINT_DIR"}) {
    const char* value = std::getenv(name);
    found[name] = value == nullptr ? Json(nullptr) : Json(std::string(value));
  }
  // Without setters: these are read with getenv at the call site, so the
  // only way to pin them is to take them out of the environment.
  for (const char* name : {"CLOUDWF_QUICK", "CLOUDWF_FULL", "CLOUDWF_CHECKPOINT_DIR"})
    ::unsetenv(name);
  cloudwf::check::uninstall_auto_check();
  cloudwf::obs::set_profiling(profiling);
  cloudwf::obs::profile_reset();
  cloudwf::set_log_threshold(cloudwf::LogLevel::warn);
  cloudwf::set_log_json(false);

  Json::Object pinned;
  pinned["CLOUDWF_CHECK"] = "0 (checker installed only for the reference pass)";
  pinned["CLOUDWF_PROFILE"] = profiling ? "1" : "0";
  pinned["CLOUDWF_LOG"] = "warn";
  pinned["CLOUDWF_LOG_JSON"] = "0";
  pinned["CLOUDWF_QUICK"] = nullptr;
  pinned["CLOUDWF_FULL"] = nullptr;
  pinned["CLOUDWF_CHECKPOINT_DIR"] = nullptr;

  Json::Object out;
  out["environment"] = Json(std::move(found));
  out["pinned"] = Json(std::move(pinned));
  out["build_type"] = PERFBENCH_BUILD_TYPE;
  out["release_build"] = release_build();
  return Json(std::move(out));
}

void fresh_directory(const std::filesystem::path& dir) {
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
}

}  // namespace perfbench
