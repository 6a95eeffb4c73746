#include "sched/registry.hpp"

#include <array>

#include "common/error.hpp"
#include "sched/bdt.hpp"
#include "sched/cg.hpp"
#include "sched/heft.hpp"
#include "sched/heft_budg_plus.hpp"
#include "sched/minmin.hpp"

namespace cloudwf::sched {

namespace {

using Factory = std::unique_ptr<Scheduler> (*)();

struct Entry {
  SchedulerInfo info;
  Factory make;
};

// Paper presentation order; SchedulerInfo::name views into these literals
// (static storage, so scheduler_registry() spans stay valid forever).
constexpr std::size_t registry_size = 10;
const std::array<Entry, registry_size>& entries() {
  static const std::array<Entry, registry_size> table{{
      {{"minmin", false, false},
       []() -> std::unique_ptr<Scheduler> { return std::make_unique<MinMinScheduler>(false); }},
      {{"heft", false, false},
       []() -> std::unique_ptr<Scheduler> { return std::make_unique<HeftScheduler>(false); }},
      {{"minmin-budg", true, false},
       []() -> std::unique_ptr<Scheduler> { return std::make_unique<MinMinScheduler>(true); }},
      {{"heft-budg", true, false},
       []() -> std::unique_ptr<Scheduler> { return std::make_unique<HeftScheduler>(true); }},
      {{"minmin-budg-plus", true, true},
       []() -> std::unique_ptr<Scheduler> { return std::make_unique<MinMinBudgPlusScheduler>(); }},
      {{"heft-budg-plus", true, true},
       []() -> std::unique_ptr<Scheduler> {
         return std::make_unique<HeftBudgPlusScheduler>(false);
       }},
      {{"heft-budg-plus-inv", true, true},
       []() -> std::unique_ptr<Scheduler> {
         return std::make_unique<HeftBudgPlusScheduler>(true);
       }},
      {{"bdt", true, false},
       []() -> std::unique_ptr<Scheduler> { return std::make_unique<BdtScheduler>(); }},
      {{"cg", true, false},
       []() -> std::unique_ptr<Scheduler> { return std::make_unique<CgScheduler>(false); }},
      {{"cg-plus", true, true},
       []() -> std::unique_ptr<Scheduler> { return std::make_unique<CgScheduler>(true); }},
  }};
  return table;
}

const Entry* find_entry(std::string_view name) {
  for (const Entry& entry : entries())
    if (entry.info.name == name) return &entry;
  return nullptr;
}

}  // namespace

std::span<const SchedulerInfo> scheduler_registry() {
  // A parallel static view keeps the public span free of factory pointers.
  static const std::array<SchedulerInfo, registry_size> infos = [] {
    std::array<SchedulerInfo, registry_size> out{};
    for (std::size_t i = 0; i < registry_size; ++i) out[i] = entries()[i].info;
    return out;
  }();
  return infos;
}

const SchedulerInfo* find_scheduler(std::string_view name) {
  const Entry* entry = find_entry(name);
  return entry != nullptr ? &entry->info : nullptr;
}

const SchedulerInfo& scheduler_info(std::string_view name) {
  const SchedulerInfo* info = find_scheduler(name);
  if (info == nullptr)
    throw InvalidArgument("make_scheduler: unknown algorithm '" + std::string(name) + "'");
  return *info;
}

std::vector<std::string> algorithm_names() {
  std::vector<std::string> names;
  names.reserve(registry_size);
  for (const SchedulerInfo& info : scheduler_registry()) names.emplace_back(info.name);
  return names;
}

std::unique_ptr<Scheduler> make_scheduler(std::string_view name) {
  const Entry* entry = find_entry(name);
  if (entry == nullptr)
    throw InvalidArgument("make_scheduler: unknown algorithm '" + std::string(name) + "'");
  return entry->make();
}

}  // namespace cloudwf::sched
