/// \file test_schedule.cpp
/// \brief Unit tests for the schedule representation (sim/schedule).

#include "sim/schedule.hpp"

#include <gtest/gtest.h>

#include "common/error.hpp"
#include "testing/helpers.hpp"

namespace cloudwf::sim {
namespace {

TEST(Schedule, AssignAndQuery) {
  Schedule s(3);
  const VmId vm = s.add_vm(0);
  s.assign(0, vm);
  s.assign(2, vm);
  EXPECT_TRUE(s.assigned(0));
  EXPECT_FALSE(s.assigned(1));
  EXPECT_FALSE(s.complete());
  EXPECT_EQ(s.vm_of(0), vm);
  EXPECT_EQ(s.vm_tasks(vm).size(), 2u);
  s.assign(1, s.add_vm(1));
  EXPECT_TRUE(s.complete());
}

TEST(Schedule, DefaultPriorityIsAssignmentOrder) {
  Schedule s(3);
  const VmId vm = s.add_vm(0);
  s.assign(2, vm);
  s.assign(0, vm);
  s.assign(1, vm);
  const auto tasks = s.vm_tasks(vm);
  EXPECT_EQ(tasks[0], 2u);
  EXPECT_EQ(tasks[1], 0u);
  EXPECT_EQ(tasks[2], 1u);
}

TEST(Schedule, ExplicitPrioritiesOrderVmLists) {
  Schedule s(3);
  const VmId vm = s.add_vm(0);
  s.set_priority(0, 1.0);
  s.set_priority(1, 3.0);
  s.set_priority(2, 2.0);
  s.assign(0, vm);
  s.assign(1, vm);
  s.assign(2, vm);
  const auto tasks = s.vm_tasks(vm);
  EXPECT_EQ(tasks[0], 1u);  // highest priority first
  EXPECT_EQ(tasks[1], 2u);
  EXPECT_EQ(tasks[2], 0u);
}

TEST(Schedule, MoveKeepsPriorityOrder) {
  Schedule s(3);
  const VmId a = s.add_vm(0);
  const VmId b = s.add_vm(0);
  s.set_priority(0, 3.0);
  s.set_priority(1, 2.0);
  s.set_priority(2, 1.0);
  s.assign(0, a);
  s.assign(1, b);
  s.assign(2, a);
  s.move(1, a);  // priority 2.0 lands between 3.0 and 1.0
  const auto tasks = s.vm_tasks(a);
  ASSERT_EQ(tasks.size(), 3u);
  EXPECT_EQ(tasks[0], 0u);
  EXPECT_EQ(tasks[1], 1u);
  EXPECT_EQ(tasks[2], 2u);
  EXPECT_TRUE(s.vm_tasks(b).empty());
}

TEST(Schedule, UsedVmCountSkipsEmpty) {
  Schedule s(2);
  const VmId a = s.add_vm(0);
  (void)s.add_vm(1);
  s.assign(0, a);
  s.assign(1, a);
  EXPECT_EQ(s.vm_count(), 2u);
  EXPECT_EQ(s.used_vm_count(), 1u);
}

TEST(Schedule, CompactedDropsEmptyVms) {
  Schedule s(2);
  (void)s.add_vm(0);          // empty
  const VmId b = s.add_vm(1);  // used
  s.assign(0, b);
  s.assign(1, b);
  const Schedule c = s.compacted();
  EXPECT_EQ(c.vm_count(), 1u);
  EXPECT_EQ(c.vm_category(0), 1u);
  EXPECT_EQ(c.vm_of(0), 0u);
  EXPECT_EQ(c.vm_tasks(0).size(), 2u);
}

TEST(Schedule, ValidatePassesForConsistentOrder) {
  const auto wf = testing::chain3();
  const auto platform = testing::toy_platform();
  Schedule s(3);
  const VmId vm = s.add_vm(0);
  for (dag::TaskId t : wf.topological_order()) s.assign(t, vm);
  EXPECT_NO_THROW(s.validate(wf, platform));
}

TEST(Schedule, ValidateRejectsIncomplete) {
  const auto wf = testing::chain3();
  const auto platform = testing::toy_platform();
  Schedule s(3);
  s.assign(0, s.add_vm(0));
  EXPECT_THROW(s.validate(wf, platform), ValidationError);
}

TEST(Schedule, ValidateRejectsInvertedSameVmOrder) {
  const auto wf = testing::chain3();
  const auto platform = testing::toy_platform();
  Schedule s(3);
  const VmId vm = s.add_vm(0);
  s.set_priority(0, 1.0);  // A low priority -> placed after B
  s.set_priority(1, 2.0);
  s.set_priority(2, 0.5);
  s.assign(0, vm);
  s.assign(1, vm);
  s.assign(2, vm);
  EXPECT_THROW(s.validate(wf, platform), ValidationError);
}

TEST(Schedule, ValidateRejectsBadCategory) {
  const auto wf = testing::bag2();
  const auto platform = testing::toy_platform();  // 2 categories
  Schedule s(2);
  const VmId vm = s.add_vm(7);
  s.assign(0, vm);
  s.assign(1, vm);
  EXPECT_THROW(s.validate(wf, platform), ValidationError);
}

TEST(Schedule, DoubleAssignRejected) {
  Schedule s(1);
  const VmId vm = s.add_vm(0);
  s.assign(0, vm);
  EXPECT_THROW(s.assign(0, vm), InvalidArgument);
}

TEST(Schedule, MoveUnassignedRejected) {
  Schedule s(1);
  const VmId vm = s.add_vm(0);
  EXPECT_THROW(s.move(0, vm), InvalidArgument);
}

TEST(Schedule, PriorityAfterAssignRejected) {
  Schedule s(1);
  s.assign(0, s.add_vm(0));
  EXPECT_THROW(s.set_priority(0, 1.0), InvalidArgument);
}

TEST(Schedule, MisorderedSameVmEdgeKeepsItsMessage) {
  // chain3 is A -> B -> C; B is listed before its producer A on one VM.
  const auto wf = testing::chain3();
  const auto platform = testing::toy_platform();
  Schedule s(3);
  const VmId v0 = s.add_vm(0);
  const VmId v1 = s.add_vm(1);
  s.set_priority(0, 1.0);
  s.set_priority(1, 2.0);
  s.assign(0, v0);
  s.assign(1, v0);
  s.assign(2, v1);
  EXPECT_EQ(testing::exact_error<ValidationError>([&] { s.validate(wf, platform); }),
            "Schedule::validate: task B ordered before its same-VM predecessor A");
}

}  // namespace
}  // namespace cloudwf::sim
