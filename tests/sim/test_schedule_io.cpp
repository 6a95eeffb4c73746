/// \file test_schedule_io.cpp
/// \brief JSON round-trip fidelity for schedules (sim/schedule_io).

#include "sim/schedule_io.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>

#include "common/error.hpp"
#include "sched/registry.hpp"
#include "testing/helpers.hpp"

namespace cloudwf::sim {
namespace {

namespace fs = std::filesystem;

/// Assignment, per-VM order, categories and priorities all survive the trip.
void expect_equal(const Schedule& a, const Schedule& b, const dag::Workflow& wf) {
  ASSERT_EQ(a.vm_count(), b.vm_count());
  for (VmId v = 0; v < a.vm_count(); ++v) {
    EXPECT_EQ(a.vm_category(v), b.vm_category(v));
    const auto lhs = a.vm_tasks(v);
    const auto rhs = b.vm_tasks(v);
    ASSERT_EQ(lhs.size(), rhs.size()) << "vm " << v;
    for (std::size_t i = 0; i < lhs.size(); ++i)
      EXPECT_EQ(lhs[i], rhs[i]) << "vm " << v << " slot " << i;
  }
  for (dag::TaskId t = 0; t < wf.task_count(); ++t)
    EXPECT_DOUBLE_EQ(a.priority(t), b.priority(t)) << "task " << t;
}

TEST(ScheduleIo, HeftScheduleRoundTrips) {
  const dag::Workflow wf = testing::diamond();
  const platform::Platform cloud = testing::toy_platform();
  const auto out = sched::make_scheduler("heft")->schedule(sched::make_input(wf, cloud, 10.0));

  const Json json = schedule_to_json(out.schedule, wf);
  const Schedule loaded = schedule_from_json(json, wf);
  expect_equal(out.schedule, loaded, wf);
}

TEST(ScheduleIo, TiedPrioritiesKeepStoredOrder) {
  const dag::Workflow wf = testing::bag2();
  Schedule schedule(wf.task_count());
  const VmId vm = schedule.add_vm(0);
  // Both tasks share a priority: insertion order breaks the tie, and the
  // JSON stores the resolved order, so the trip must preserve B-before-A.
  schedule.set_priority(1, 5.0);
  schedule.set_priority(0, 5.0);
  schedule.assign(1, vm);
  schedule.assign(0, vm);

  const Schedule loaded = schedule_from_json(schedule_to_json(schedule, wf), wf);
  expect_equal(schedule, loaded, wf);
  ASSERT_EQ(loaded.vm_tasks(vm).size(), 2u);
  EXPECT_EQ(loaded.vm_tasks(vm)[0], 1u);
  EXPECT_EQ(loaded.vm_tasks(vm)[1], 0u);
}

TEST(ScheduleIo, FileRoundTrip) {
  const dag::Workflow wf = testing::chain3();
  const platform::Platform cloud = testing::toy_platform();
  const auto out = sched::make_scheduler("minmin")->schedule(sched::make_input(wf, cloud, 10.0));
  const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
  const fs::path path =
      fs::path(::testing::TempDir()) / (std::string("cloudwf_sched_") + info->name() + ".json");

  save_schedule_json(out.schedule, wf, path.string());
  std::ostringstream text;
  text << std::ifstream(path).rdbuf();
  const Schedule loaded = schedule_from_json(Json::parse(text.str()), wf);
  expect_equal(out.schedule, loaded, wf);
  fs::remove(path);
}

TEST(ScheduleIo, RejectsMalformedDocuments) {
  const dag::Workflow wf = testing::bag2();
  const auto parse = [&](const std::string& text) {
    return schedule_from_json(Json::parse(text), wf);
  };
  // Wrong schema marker.
  EXPECT_THROW((void)parse(R"({"schema":"other","task_count":2,"vms":[]})"), ValidationError);
  // Task count mismatch.
  EXPECT_THROW(
      (void)parse(R"({"schema":"cloudwf-schedule","version":1,"task_count":7,"vms":[]})"),
      ValidationError);
  // Unknown task name.
  EXPECT_THROW((void)parse(R"({"schema":"cloudwf-schedule","version":1,"task_count":2,
      "vms":[{"category":0,"tasks":["Z"],"priorities":[1]}]})"),
               ValidationError);
  // Task assigned twice.
  EXPECT_THROW((void)parse(R"({"schema":"cloudwf-schedule","version":1,"task_count":2,
      "vms":[{"category":0,"tasks":["A","A"],"priorities":[1,2]}]})"),
               ValidationError);
  // Priorities not parallel to tasks.
  EXPECT_THROW((void)parse(R"({"schema":"cloudwf-schedule","version":1,"task_count":2,
      "vms":[{"category":0,"tasks":["A"],"priorities":[]}]})"),
               ValidationError);
}

}  // namespace
}  // namespace cloudwf::sim
