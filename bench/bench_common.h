// Shared scaffolding for the bench binaries.
//
// The paper's figures come from one table (report/paper_figures.h), which
// bench_paper walks; the other benches measure the engines around it.
// They share the calibrated synthetic logs at one fixed seed, print
// paper-vs-measured comparisons through print_comparisons() and exit with
// exit_code(), and write BENCH_*.json perf records through PerfJson.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <variant>
#include <vector>

#include "data/log.h"
#include "obs/trace.h"
#include "report/compare.h"
#include "report/paper_figures.h"
#include "sim/tsubame_models.h"

namespace tsufail::bench {

/// The seed every bench uses, so all bench output lines up across binaries.
using report::kBenchSeed;

/// Calibrated synthetic log for one machine (generated once, cached).
const data::FailureLog& bench_log(data::Machine machine);

/// Prints the standard bench banner: what is being reproduced and from what.
void print_banner(const std::string& experiment, const std::string& paper_ref);

/// Prints a comparison set and remembers the verdict for exit_code().
void print_comparisons(const report::ComparisonSet& set);

/// 0 if every printed comparison matched, 1 otherwise.  Benches return
/// this from main() so CI can gate on reproduction quality.
int exit_code();

/// Measured single-core throughput baseline: a fixed integer-mixing loop
/// timed on the calling thread, in operations per second.  Memoized per
/// process (~tens of milliseconds on first call).  Dividing a bench's
/// throughput numbers by this baseline makes BENCH_*.json comparable
/// across hosts of different speeds.
double single_core_ops_per_s();

/// Machine-readable perf record: collects named numeric/string fields and
/// writes them as `BENCH_<name>.json` next to the printed tables, so the
/// perf trajectory (wall time, replicates/sec, thread count) is trackable
/// across commits.  Field order is preserved; numbers are emitted with
/// full round-trip precision.
///
/// Every rendered record automatically carries a bench-environment block
/// (`env_hw_threads`, `env_compiler`, `env_build_type`, `env_flags`,
/// `env_simd_dispatch`, `env_simd_supported`,
/// `env_single_core_ops_per_s`), so results from different machines or
/// build configurations are never compared blind.
class PerfJson {
 public:
  explicit PerfJson(std::string name) : name_(std::move(name)) {}

  void set(const std::string& key, double value);
  void set(const std::string& key, std::int64_t value);
  void set(const std::string& key, const std::string& value);

  /// The serialized JSON object (one field per line).
  std::string render() const;

  /// Writes `<dir>/BENCH_<name>.json`; prints the path on success.
  /// Returns false (and prints the error) if the file cannot be written.
  bool write(const std::string& dir = ".") const;

 private:
  std::string name_;
  std::vector<std::pair<std::string, std::variant<double, std::int64_t, std::string>>> fields_;
};

/// Folds the top `top` spans (by self time) of a trace profile into a
/// perf record as `span_<name>_{count,total_s,self_s}` fields, so the
/// per-phase breakdown rides in the same BENCH_*.json as the wall times.
void add_span_aggregates(PerfJson& perf, const std::vector<obs::ProfileEntry>& entries,
                         std::size_t top = 8);

}  // namespace tsufail::bench
