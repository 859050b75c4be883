#pragma once
// Declarative command-line option tables shared by the perftrack tools.
//
// Each tool lists its flags once in an OptionTable; the table drives both
// the parser and the generated usage text, so the two cannot drift (the old
// hand-rolled argv loops kept growing flags that the usage string forgot).
// Value parsing is strict: a numeric flag must consume its operand in full
// and satisfy its per-flag range, so "--eps banana" or "--min-pts -3" is a
// usage error (exit code 2) rather than an unhandled std::stod exception or
// a silent unsigned wraparound.
//
// Usage pattern:
//
//   cli::OptionTable table;
//   table.tool = "perftrack";
//   table.commands = {"track [options] A.ptt B.ptt [...]"};
//   table.add("--eps", "X", "DBSCAN radius (0.025)",
//             [&](const std::string& v) { eps = cli::parse_double("--eps", v); });
//   table.add_switch("--lenient", "tolerate malformed records",
//                    [&] { lenient = true; });
//   std::vector<std::string> inputs;
//   table.parse(argc, argv, 2, inputs);   // throws cli::UsageError
//
// UsageError is deliberately not a perftrack::Error: the tools print the
// message plus the generated usage text and exit 2, distinct from internal
// errors (1), parse failures (3) and I/O failures (4).

#include <cmath>
#include <functional>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

namespace perftrack::cli {

/// A command-line mistake: unknown flag, missing operand, or an operand
/// that fails its flag's validation. Callers print usage and exit 2.
class UsageError : public std::runtime_error {
public:
  using std::runtime_error::runtime_error;
};

/// Parse a full-string finite double for `flag`; UsageError otherwise.
inline double parse_double(const std::string& flag, const std::string& text) {
  double value = 0.0;
  std::size_t used = 0;
  try {
    value = std::stod(text, &used);
  } catch (const std::exception&) {
    used = 0;
  }
  if (used != text.size() || text.empty() || !std::isfinite(value))
    throw UsageError("invalid value for " + flag + ": '" + text +
                     "' (expected a number)");
  return value;
}

/// Parse a non-negative integer count for `flag`. A leading sign is
/// rejected outright: "-3" must be a usage error, not the 2^64-3 that
/// std::stoul would happily produce. `min_value` and `max_value` enforce
/// per-flag bounds (e.g. --min-pts needs at least 1).
inline std::size_t parse_count(
    const std::string& flag, const std::string& text,
    std::size_t min_value = 0,
    std::size_t max_value = std::numeric_limits<std::size_t>::max()) {
  unsigned long long value = 0;
  std::size_t used = 0;
  if (!text.empty() && text[0] != '-' && text[0] != '+') {
    try {
      value = std::stoull(text, &used);
    } catch (const std::exception&) {
      used = 0;
    }
  }
  if (used != text.size() || text.empty())
    throw UsageError("invalid value for " + flag + ": '" + text +
                     "' (expected a non-negative integer)");
  if (value < min_value)
    throw UsageError("invalid value for " + flag + ": '" + text +
                     "' (must be at least " + std::to_string(min_value) + ")");
  if (value > max_value)
    throw UsageError("invalid value for " + flag + ": '" + text +
                     "' (must be at most " + std::to_string(max_value) + ")");
  return static_cast<std::size_t>(value);
}

/// One command-line flag: a value option ("--eps X") or, with an empty
/// value_name, a switch ("--lenient").
struct Option {
  std::string flag;
  std::string value_name;  ///< empty = switch, no operand
  std::string help;
  std::function<void(const std::string&)> apply;  ///< operand ("" for switches)
};

struct OptionTable {
  std::string tool;                   ///< "perftrack"
  std::vector<std::string> commands;  ///< usage lines, tool name omitted
  std::string footer;                 ///< e.g. the exit-code legend

  void add(std::string flag, std::string value_name, std::string help,
           std::function<void(const std::string&)> apply) {
    options.push_back({std::move(flag), std::move(value_name),
                       std::move(help), std::move(apply)});
  }

  void add_switch(std::string flag, std::string help,
                  std::function<void()> apply) {
    options.push_back({std::move(flag), "", std::move(help),
                       [apply = std::move(apply)](const std::string&) {
                         apply();
                       }});
  }

  /// Usage text generated from the table (commands, one option per line
  /// with aligned help, then the footer).
  std::string usage() const {
    std::string text;
    std::string prefix = "usage: ";
    for (const std::string& command : commands) {
      text += prefix + tool + " " + command + "\n";
      prefix = "       ";
    }
    std::size_t width = 0;
    for (const Option& option : options) {
      std::size_t head = option.flag.size();
      if (!option.value_name.empty()) head += 1 + option.value_name.size();
      width = head > width ? head : width;
    }
    if (!options.empty()) text += "options:\n";
    for (const Option& option : options) {
      std::string head = option.flag;
      if (!option.value_name.empty()) head += " " + option.value_name;
      text += "  " + head + std::string(width - head.size() + 2, ' ') +
              option.help + "\n";
    }
    text += footer;
    return text;
  }

  /// Parse argv[begin..argc): flags dispatch through the table, everything
  /// else lands in `positionals` in order. Throws UsageError on an unknown
  /// flag, a missing operand, or a value a parser rejects.
  void parse(int argc, char** argv, int begin,
             std::vector<std::string>& positionals) const {
    for (int i = begin; i < argc; ++i) {
      std::string arg = argv[i];
      const Option* match = nullptr;
      for (const Option& option : options)
        if (option.flag == arg) {
          match = &option;
          break;
        }
      if (match == nullptr) {
        // Unmatched "--" arguments are mistakes; anything else (including
        // short flags a tool chose not to declare) is a positional.
        if (arg.rfind("--", 0) == 0) throw UsageError("unknown option " + arg);
        positionals.push_back(std::move(arg));
        continue;
      }
      std::string value;
      if (!match->value_name.empty()) {
        if (i + 1 >= argc) throw UsageError("missing value for " + arg);
        value = argv[++i];
      }
      match->apply(value);
    }
  }

  std::vector<Option> options;
};

}  // namespace perftrack::cli
