// CSV export of figure series, so a user can replot the reproduction with
// any external tool.  bench_paper and `tsufail figures` write the figures
// of the paper-figure table (report/paper_figures.h) through
// export_figures, one CSV per figure, into an output directory that is
// created on demand.
#pragma once

#include <span>
#include <string>
#include <vector>

#include "util/error.h"

namespace tsufail::report {

/// A rectangular data set destined for one CSV file.
struct FigureData {
  std::string name;                            ///< file stem, e.g. "fig06_tbf_cdf"
  std::vector<std::string> columns;
  std::vector<std::vector<std::string>> rows;
};

/// Writes each figure as <directory>/<name>.csv, creating the directory.
/// Stops at the first failure and returns it; its message names the path.
Result<void> export_figures(std::span<const FigureData> figures, const std::string& directory);

}  // namespace tsufail::report
