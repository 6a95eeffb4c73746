/// \file test_cli_args.cpp
/// \brief Unit tests for the command-line parser (tools/cli_args.hpp).

#include "cli_args.hpp"

#include <gtest/gtest.h>

#include "common/error.hpp"

namespace cloudwf::cli {
namespace {

Args parse(std::vector<const char*> argv, const std::set<std::string>& switches = {}) {
  argv.insert(argv.begin(), "cloudwf");
  return Args(static_cast<int>(argv.size()), const_cast<char**>(argv.data()), switches);
}

TEST(CliArgs, ParsesCommandAndPositionals) {
  const Args args = parse({"convert", "in.json", "out.dax"});
  EXPECT_EQ(args.command(), "convert");
  ASSERT_EQ(args.positional().size(), 2u);
  EXPECT_EQ(args.positional_at(0, "in"), "in.json");
  EXPECT_EQ(args.positional_at(1, "out"), "out.dax");
}

TEST(CliArgs, ParsesFlagsWithValues) {
  const Args args = parse({"generate", "--type", "ligo", "--tasks", "60", "--sigma", "0.75"});
  EXPECT_EQ(args.get("type", "x"), "ligo");
  EXPECT_EQ(args.get_size("tasks", 0), 60u);
  EXPECT_DOUBLE_EQ(args.get_double("sigma", 0), 0.75);
  EXPECT_TRUE(args.has("type"));
  EXPECT_FALSE(args.has("seed"));
}

TEST(CliArgs, DefaultsApplyWhenAbsent) {
  const Args args = parse({"generate"});
  EXPECT_EQ(args.get("type", "montage"), "montage");
  EXPECT_EQ(args.get_size("tasks", 90), 90u);
  EXPECT_DOUBLE_EQ(args.get_double("sigma", 0.5), 0.5);
}

TEST(CliArgs, SwitchesTakeNoValue) {
  const Args args = parse({"simulate", "wf.json", "--online", "--reps", "5"}, {"online"});
  EXPECT_TRUE(args.has("online"));
  EXPECT_EQ(args.get_size("reps", 0), 5u);
  EXPECT_EQ(args.positional_at(0, "wf"), "wf.json");
}

TEST(CliArgs, MissingValueRejected) {
  EXPECT_THROW(parse({"generate", "--type"}), InvalidArgument);
}

TEST(CliArgs, MissingPositionalRejected) {
  const Args args = parse({"info"});
  EXPECT_THROW((void)args.positional_at(0, "workflow"), InvalidArgument);
}

TEST(CliArgs, GetListSplitsOnCommas) {
  const Args args = parse({"sweep", "wf.json", "--algorithms", "heft,heft-budg,cg"});
  const auto list = args.get_list("algorithms", "");
  ASSERT_EQ(list.size(), 3u);
  EXPECT_EQ(list[0], "heft");
  EXPECT_EQ(list[2], "cg");
}

TEST(CliArgs, GetListDefaultAndEmptyEntries) {
  const Args args = parse({"sweep", "wf.json"});
  EXPECT_EQ(args.get_list("algorithms", "a,b").size(), 2u);
  const Args trailing = parse({"sweep", "--algorithms", "a,,b,"});
  EXPECT_EQ(trailing.get_list("algorithms", "").size(), 2u);  // empties dropped
}

TEST(CliArgs, UnknownFlagRejected) {
  const Args args = parse({"schedule", "wf.json", "--budgte", "3"});
  EXPECT_THROW(args.require_known({"budget", "algorithm"}), InvalidArgument);
  EXPECT_NO_THROW(parse({"schedule", "--budget", "3"}).require_known({"budget"}));
}

TEST(CliArgs, FlagsListsEveryGivenFlag) {
  const Args args = parse({"simulate", "--online", "--fault-seed", "3"}, {"online"});
  EXPECT_EQ(args.flags(), (std::set<std::string>{"online", "fault-seed"}));
}

TEST(CliArgs, NumbersMustParseInFull) {
  const Args args = parse({"schedule", "--budget", "abc", "--deadline", "3x", "--sigma", "",
                           "--tasks", "12.5", "--reps", "-1", "--threads", " 4"});
  EXPECT_THROW((void)args.get_double("budget", 0), InvalidArgument);
  EXPECT_THROW((void)args.get_double("deadline", 0), InvalidArgument);
  EXPECT_THROW((void)args.get_double("sigma", 0), InvalidArgument);
  EXPECT_THROW((void)args.get_size("tasks", 0), InvalidArgument);
  EXPECT_THROW((void)args.get_size("reps", 0), InvalidArgument);  // not wrapped to 2^64-1
  EXPECT_THROW((void)args.get_size("threads", 0), InvalidArgument);
}

TEST(CliArgs, WellFormedNumbersParse) {
  const Args args = parse({"simulate", "--budget", "2.5e1", "--deadline", "-3", "--reps", "7",
                           "--fault-seed", "18446744073709551615"});
  EXPECT_DOUBLE_EQ(args.get_double("budget", 0), 25.0);
  EXPECT_DOUBLE_EQ(args.get_double("deadline", 0), -3.0);
  EXPECT_EQ(args.get_size("reps", 0), 7u);
  EXPECT_EQ(args.get_size("fault-seed", 0), 18446744073709551615u);
}

TEST(CliArgs, EmptyCommandLine) {
  const Args args = parse({});
  EXPECT_TRUE(args.command().empty());
}

}  // namespace
}  // namespace cloudwf::cli
