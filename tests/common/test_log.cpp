/// \file test_log.cpp
/// \brief Unit tests for leveled logging (common/log).

#include "common/log.hpp"

#include <gtest/gtest.h>

#include <sstream>
#include <vector>

#include "common/json.hpp"

namespace cloudwf {
namespace {

class LogTest : public ::testing::Test {
 protected:
  void SetUp() override {
    previous_ = log_threshold();
    previous_json_ = log_json();
  }
  void TearDown() override {
    set_log_threshold(previous_);
    set_log_json(previous_json_);
  }
  LogLevel previous_{};
  bool previous_json_ = false;
};

TEST_F(LogTest, ThresholdIsProgrammable) {
  set_log_threshold(LogLevel::debug);
  EXPECT_EQ(log_threshold(), LogLevel::debug);
  set_log_threshold(LogLevel::error);
  EXPECT_EQ(log_threshold(), LogLevel::error);
}

TEST_F(LogTest, MessagesBelowThresholdAreSuppressed) {
  set_log_threshold(LogLevel::off);
  ::testing::internal::CaptureStderr();
  log_message(LogLevel::error, "", "must not appear");
  log_message(LogLevel::warn, "", "nor this");
  EXPECT_TRUE(::testing::internal::GetCapturedStderr().empty());
}

TEST_F(LogTest, MessagesAtOrAboveThresholdAreEmitted) {
  set_log_threshold(LogLevel::info);
  ::testing::internal::CaptureStderr();
  log_message(LogLevel::debug, "", "hidden");
  log_info_c("", "shown ", 42);
  log_message(LogLevel::error, "", "also shown");
  const std::string captured = ::testing::internal::GetCapturedStderr();
  EXPECT_EQ(captured.find("hidden"), std::string::npos);
  EXPECT_NE(captured.find("shown 42"), std::string::npos);
  EXPECT_NE(captured.find("also shown"), std::string::npos);
  EXPECT_NE(captured.find("[cloudwf INFO]"), std::string::npos);
  EXPECT_NE(captured.find("[cloudwf ERROR]"), std::string::npos);
}

TEST_F(LogTest, FormattingConcatenatesArguments) {
  set_log_threshold(LogLevel::debug);
  ::testing::internal::CaptureStderr();
  log_info_c("", "x=", 1.5, " y=", "z");
  EXPECT_NE(::testing::internal::GetCapturedStderr().find("x=1.5 y=z"), std::string::npos);
}

TEST_F(LogTest, ComponentTagPrefixesPlainMessages) {
  set_log_threshold(LogLevel::info);
  set_log_json(false);
  ::testing::internal::CaptureStderr();
  log_info_c("runner", "cell ", 3, "/", 8);
  const std::string captured = ::testing::internal::GetCapturedStderr();
  EXPECT_NE(captured.find("[cloudwf INFO] runner: cell 3/8"), std::string::npos);
}

/// Splits captured stderr into non-empty lines.
std::vector<std::string> lines_of(const std::string& text) {
  std::vector<std::string> lines;
  std::istringstream stream(text);
  for (std::string line; std::getline(stream, line);)
    if (!line.empty()) lines.push_back(line);
  return lines;
}

TEST_F(LogTest, JsonModeEmitsOneParsableObjectPerLine) {
  set_log_threshold(LogLevel::info);
  set_log_json(true);
  ::testing::internal::CaptureStderr();
  log_info_c("runner", "first record");
  log_message(LogLevel::warn, "", "plain \"quoted\" message\nwith newline");
  const std::vector<std::string> lines =
      lines_of(::testing::internal::GetCapturedStderr());
  ASSERT_EQ(lines.size(), 2u);

  const Json first = Json::parse(lines[0]);
  EXPECT_EQ(first.at("level").as_string(), "info");
  EXPECT_EQ(first.at("component").as_string(), "runner");
  EXPECT_EQ(first.at("msg").as_string(), "first record");
  // ISO-8601 UTC timestamp: "YYYY-MM-DDTHH:MM:SS.mmmZ".
  const std::string ts = first.at("ts").as_string();
  ASSERT_EQ(ts.size(), 24u);
  EXPECT_EQ(ts[10], 'T');
  EXPECT_EQ(ts.back(), 'Z');

  // Quotes and newlines are escaped, so the record stays one line.
  const Json second = Json::parse(lines[1]);
  EXPECT_EQ(second.at("level").as_string(), "warn");
  EXPECT_FALSE(second.as_object().contains("component"));
  EXPECT_EQ(second.at("msg").as_string(), "plain \"quoted\" message\nwith newline");
}

TEST_F(LogTest, JsonModeHonoursTheThreshold) {
  set_log_threshold(LogLevel::error);
  set_log_json(true);
  ::testing::internal::CaptureStderr();
  log_info_c("", "suppressed");
  log_message(LogLevel::error, "", "kept");
  const std::vector<std::string> lines =
      lines_of(::testing::internal::GetCapturedStderr());
  ASSERT_EQ(lines.size(), 1u);
  EXPECT_EQ(Json::parse(lines[0]).at("msg").as_string(), "kept");
}

}  // namespace
}  // namespace cloudwf
