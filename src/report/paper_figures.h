// The paper's figures as one table.
//
// One entry per figure, table or RQ4 result of the paper, plus six
// extensions: rack concentration, node survival, the simulator's knob
// ablations, and the RQ5 implications (failure prediction, checkpoint
// waste, job goodput).  An entry names the figures/ file each machine
// writes, its CSV columns, how its rows come out of a machine's log,
// index and StudyReport, how the terminal shows them, and the notes and
// paper-vs-measured comparisons the reproduction prints.  bench_paper
// walks the table over both calibrated logs (a Reproduction) and writes
// the committed figures/*.csv; `tsufail figures` walks it over the one
// log a user gives it.
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "analysis/study.h"
#include "data/log.h"
#include "data/log_index.h"
#include "report/compare.h"
#include "report/figure_export.h"
#include "sim/montecarlo.h"

namespace tsufail::report {

/// The seed of the calibrated logs the reproduction measures.
inline constexpr std::uint64_t kBenchSeed = 20210607;  // DSN 2021 vintage

/// The calibrated models with fleetsim knobs switched off, which two
/// extension entries read beside the logs.
struct Ablations {
  /// The Tsubame-2 model, then each of four knobs off, over 5 replicates.
  sim::SweepResult knob_sweep;
  /// A Tsubame-3 log without node heterogeneity: the prediction control.
  data::FailureLog uniform_t3;
};

/// One machine's input to the table: a log, its index and the study run
/// on it.
struct MachineInput {
  const data::FailureLog& log;
  const data::LogIndex& index;
  const analysis::StudyReport& study;
  /// The calibrated model's studies at seeds 1-8, which the Fig 3, 9 and 12
  /// comparisons average over; empty for a user's log.
  std::span<const analysis::StudyReport> seed_studies = {};
  /// The calibrated models' ablations, shared by both machines; null for
  /// a user's log.
  const Ablations* ablations = nullptr;

  data::Machine machine() const noexcept { return index.spec().machine; }
};

/// The machines one walk reads, Tsubame-2 first.
using Machines = std::span<const MachineInput>;

/// Both calibrated models at kBenchSeed, each with its seed-1..8 studies,
/// and their Ablations.  The constructor generates and studies the 18
/// logs and runs the ablations; it throws std::runtime_error if one fails.
/// The ablation sweep runs on every hardware thread; its means are
/// bit-identical at any thread count.
class Reproduction {
 public:
  Reproduction();
  Reproduction(const Reproduction&) = delete;
  Reproduction& operator=(const Reproduction&) = delete;

  /// Tsubame-2 then Tsubame-3.
  Machines machines() const noexcept { return inputs_; }

 private:
  struct Calibrated {
    explicit Calibrated(data::Machine machine);
    data::FailureLog log;
    data::LogIndex index;
    analysis::StudyReport study;
    std::vector<analysis::StudyReport> seed_studies;
  };
  Calibrated t2_, t3_;
  Ablations ablations_;
  std::array<MachineInput, 2> inputs_;
};

/// How the terminal shows an entry's rows.
enum class View {
  kNone,
  kBar,    ///< labels from column 0, lengths from PaperFigure::bar_column
  kCdf,    ///< one curve per distinct column 0, x from column 1, y from column 2
  kTable,  ///< every column
};

using Rows = std::vector<std::vector<std::string>>;

/// What the reproduction prints under an entry's figures.
struct PaperCheck {
  std::string notes;  ///< measured values worth reading beside the comparisons
  std::vector<ComparisonSet> comparisons;
};

/// An entry reads one machine (`rows`, `check`) or compares the two
/// (`pair_rows`, `pair_check`); the pair hooks run only on a walk over both.
struct PaperFigure {
  /// "<label>: <caption>", e.g. "Figure 2: failure category breakdown (RQ1)".
  std::string_view title;
  /// The figures/ stem of each machine, indexed by data::Machine.  An empty
  /// stem skips the machine; machines that share a stem stack their rows.
  std::array<std::string_view, 2> stems;
  std::vector<std::string> columns;
  View view = View::kNone;
  std::size_t bar_column = 0;
  /// Append the rows; false, appending nothing, when an analysis they need
  /// did not run.  An entry sets one of the two.
  bool (*rows)(const MachineInput& machine, Rows& out) = nullptr;
  bool (*pair_rows)(const MachineInput& t2, const MachineInput& t3, Rows& out) = nullptr;
  /// Add notes and comparisons: `check` fills the comparison set
  /// "<label> - <machine>" of each machine with a stem, then `pair_check`
  /// adds its own.  Either may be null.
  void (*check)(const MachineInput& machine, std::string& notes, ComparisonSet& cmp) = nullptr;
  void (*pair_check)(const MachineInput& t2, const MachineInput& t3, PaperCheck& out) = nullptr;
};

/// The table, in the paper's order.
std::span<const PaperFigure> paper_figures();

/// The figures `entry` draws over `machines`: one per stem with rows.
std::vector<FigureData> extract_figures(const PaperFigure& entry, Machines machines);

/// `entry`'s notes and paper comparisons on the calibrated reproduction.
PaperCheck check_figure(const PaperFigure& entry, const Reproduction& repro);

/// `figure` as `entry.view` shows it; empty for View::kNone.
std::string render_view(const PaperFigure& entry, const FigureData& figure);

}  // namespace tsufail::report
