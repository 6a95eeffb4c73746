#pragma once

/// \file cli_args.hpp
/// \brief Tiny command-line parser for the cloudwf tools, plus the workflow
/// and platform loaders that cloudwf and cloudwf-lint share.
///
/// Grammar: `cloudwf <command> [positional...] [--flag value | --switch]`.
/// Flags may appear anywhere after the command; unknown flags
/// (require_known()) and values that do not parse in full are errors, so
/// typos fail loudly.

#include <charconv>
#include <filesystem>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "dag/dax.hpp"
#include "dag/io.hpp"
#include "platform/io.hpp"
#include "platform/platform.hpp"

namespace cloudwf::cli {

/// Parsed command line.
class Args {
 public:
  /// \p switches lists flags that take no value.
  Args(int argc, char** argv, const std::set<std::string>& switches) {
    for (int i = 1; i < argc; ++i) args_.emplace_back(argv[i]);
    if (!args_.empty()) command_ = args_.front();
    for (std::size_t i = 1; i < args_.size(); ++i) {
      const std::string& arg = args_[i];
      if (arg.rfind("--", 0) == 0) {
        const std::string name = arg.substr(2);
        if (switches.contains(name)) {
          flags_[name] = "true";
        } else {
          require(i + 1 < args_.size(), "missing value for --" + name);
          flags_[name] = args_[++i];
        }
        seen_.insert(name);
      } else {
        positional_.push_back(arg);
      }
    }
  }

  [[nodiscard]] const std::string& command() const { return command_; }
  [[nodiscard]] const std::vector<std::string>& positional() const { return positional_; }

  [[nodiscard]] std::string positional_at(std::size_t index, const std::string& what) const {
    require(index < positional_.size(), "missing argument: " + what);
    return positional_[index];
  }

  [[nodiscard]] bool has(const std::string& name) const { return seen_.contains(name); }

  /// Every flag given on the command line, switches included.
  [[nodiscard]] const std::set<std::string>& flags() const { return seen_; }

  /// Throws InvalidArgument naming the first given flag not in \p known.
  void require_known(const std::set<std::string>& known) const {
    for (const std::string& name : seen_)
      require(known.contains(name), "unknown flag --" + name + " for '" + command_ + "'");
  }

  [[nodiscard]] std::string get(const std::string& name, const std::string& fallback) const {
    const auto it = flags_.find(name);
    return it == flags_.end() ? fallback : it->second;
  }

  [[nodiscard]] double get_double(const std::string& name, double fallback) const {
    return parse(name, fallback);
  }

  /// A non-negative decimal integer: "-1" is rejected, not wrapped.
  [[nodiscard]] std::size_t get_size(const std::string& name, std::size_t fallback) const {
    return parse(name, fallback);
  }

  /// Splits a comma-separated flag into entries.
  [[nodiscard]] std::vector<std::string> get_list(const std::string& name,
                                                  const std::string& fallback) const {
    const std::string value = get(name, fallback);
    std::vector<std::string> items;
    std::size_t start = 0;
    while (start <= value.size()) {
      const std::size_t comma = value.find(',', start);
      const std::string item = value.substr(start, comma - start);
      if (!item.empty()) items.push_back(item);
      if (comma == std::string::npos) break;
      start = comma + 1;
    }
    return items;
  }

 private:
  /// The value of flag \p name, which must parse in full as a T.
  template <typename T>
  [[nodiscard]] T parse(const std::string& name, T fallback) const {
    const auto it = flags_.find(name);
    if (it == flags_.end()) return fallback;
    const std::string& text = it->second;
    T value{};
    const auto [end, error] = std::from_chars(text.data(), text.data() + text.size(), value);
    require(error == std::errc() && end == text.data() + text.size(),
            "invalid value '" + text + "' for --" + name);
    return value;
  }

  std::vector<std::string> args_;
  std::string command_;
  std::vector<std::string> positional_;
  std::map<std::string, std::string> flags_;
  std::set<std::string> seen_;
};

/// Loads the workflow at \p path by extension: .json (cloudwf schema) or
/// .dax/.xml (Pegasus DAX, whose weights get --sigma as their stddev ratio,
/// default 0.5).  A .json workflow carries its own stddevs, so --sigma with
/// one is an error rather than a silently ignored flag.
inline dag::Workflow load_workflow(const Args& args, const std::string& path) {
  const std::string ext = std::filesystem::path(path).extension().string();
  if (ext == ".json") {
    require(!args.has("sigma"), "--sigma applies only to .dax/.xml workflows, not " + path);
    return dag::load_json(path);
  }
  if (ext == ".dax" || ext == ".xml")
    return dag::load_dax(path,
                         {.reference_speed = 1.0, .stddev_ratio = args.get_double("sigma", 0.5)});
  throw InvalidArgument("unrecognized workflow extension '" + ext + "' (use .json or .dax)");
}

/// The offer of --platform FILE.json, else the reconstructed Table II
/// platform (finite-datacenter mode with --contention FACTOR > 0).
inline platform::Platform make_platform(const Args& args) {
  if (args.has("platform")) return platform::load_json(args.get("platform", ""));
  const double contention = args.get_double("contention", 0.0);
  return contention > 0 ? platform::paper_platform_with_contention(contention)
                        : platform::paper_platform();
}

}  // namespace cloudwf::cli
