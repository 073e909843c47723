// Declarative command-line argument parsing for the tsufail tool.
//
// Deliberately small: long options only (--name value / --name=value /
// boolean --flag), typed accessors with defaults, positional arguments,
// "--" as the end of options, and generated --help text.  No external
// dependency.
#pragma once

#include <map>
#include <optional>
#include <string>
#include <vector>

#include "util/error.h"

namespace tsufail::cli {

/// Option declaration.
struct OptionSpec {
  std::string name;         ///< long name without the leading "--"
  std::string value_hint;   ///< e.g. "FILE"; empty = boolean flag
  std::string help;
  std::optional<std::string> default_value;  ///< shown in help; applied if absent
};

/// Positional-argument declaration.
struct PositionalSpec {
  std::string name;
  std::string help;
  bool required = true;
};

/// Parsed result: typed access to options and positionals.
class ParsedArgs {
 public:
  bool has(const std::string& name) const noexcept { return values_.contains(name); }

  /// String value (or declared default). Errors: option absent with no default.
  Result<std::string> get(const std::string& name) const;

  /// Integer value. Errors: absent without default, or not an integer.
  Result<long long> get_int(const std::string& name) const;

  /// Double value. Errors: absent without default, or not a number.
  Result<double> get_double(const std::string& name) const;

  /// True iff the boolean flag was given.
  bool flag(const std::string& name) const noexcept { return has(name); }

  const std::vector<std::string>& positionals() const noexcept { return positionals_; }

  /// The tokens after "--", verbatim, for a parser that declared
  /// ArgParser::passthrough(); empty otherwise.
  const std::vector<std::string>& passthrough() const noexcept { return passthrough_; }

 private:
  friend class ArgParser;
  std::map<std::string, std::string> values_;
  std::vector<std::string> positionals_;
  std::vector<std::string> passthrough_;
};

/// Checks that `path` can be opened for writing *now*, without
/// truncating an existing file or leaving a new one behind.  Commands
/// that produce a file at the end of a long run (--trace, --metrics) call
/// this up front so a typo'd directory fails in milliseconds, not after
/// the sweep.
Result<void> validate_writable_path(const std::string& path);

class ArgParser {
 public:
  ArgParser(std::string command, std::string description)
      : command_(std::move(command)), description_(std::move(description)) {}

  ArgParser& option(OptionSpec spec);
  ArgParser& positional(PositionalSpec spec);
  /// Declares a required command line after "--" that this command hands
  /// on (ParsedArgs::passthrough()).  Without it, tokens after "--" are
  /// positionals.
  ArgParser& passthrough(PositionalSpec spec);

  /// Parses argv (excluding the program/command tokens).  "--" ends the
  /// options: every later token is taken verbatim.
  /// Errors: unknown option, missing value, missing required positional
  /// or pass-through command, or excess positionals.
  Result<ParsedArgs> parse(const std::vector<std::string>& args) const;

  /// Usage text for --help.
  std::string help() const;

 private:
  std::string command_;
  std::string description_;
  std::vector<OptionSpec> options_;
  std::vector<PositionalSpec> positionals_;
  std::optional<PositionalSpec> passthrough_;
};

}  // namespace tsufail::cli
