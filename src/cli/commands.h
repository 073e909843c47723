// The tsufail command-line tool's subcommands.
//
// Each subcommand is a pure function from parsed arguments to text on a
// stream, so the whole tool is unit-testable without spawning processes.
// commands() lists them with their one-line summaries (`tsufail --help`
// prints that list).
//
// Every log-consuming command accepts .csv and .tsnap inputs
// interchangeably (sniffed by magic, not extension), and
// `tsufail --version` prints the build-info block (util/build_info.h).
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

#include "cli/args.h"

namespace tsufail::cli {

/// One registered subcommand.
struct Command {
  std::string name;
  std::string summary;
  /// Builds the command's parser (for help and for run()).
  ArgParser (*make_parser)();
  /// Executes with already-parsed args, writing human output to `out`.
  Result<void> (*run)(const ParsedArgs& args, std::ostream& out);
  /// Takes --trace FILE and --metrics FILE, which dispatch adds to the
  /// parser, checks before the run and writes after it.
  bool traced = false;
};

/// All registered subcommands, in help order.
const std::vector<Command>& commands();

/// Top-level entry: dispatches `argv` (without the program name) to a
/// subcommand; handles "help", "--help", and unknown commands.  Returns
/// the process exit code and writes all output/errors to the streams.
/// Every command runs inside a `cli.<command>` span; dispatch leaves the
/// obs switch as it found it.
int dispatch(const std::vector<std::string>& argv, std::ostream& out, std::ostream& err);

}  // namespace tsufail::cli
