// Paper-vs-measured comparison records.
//
// Each entry of the paper-figure table (report/paper_figures.h) reports
// the paper's numbers beside the values measured on the calibrated
// synthetic logs, with a tolerance verdict; bench_paper prints them and
// the figures test gates on them.  The tolerance logic lives here, in one
// place.
#pragma once

#include <string>
#include <vector>

namespace tsufail::report {

struct Comparison {
  std::string metric;
  double paper = 0.0;
  double measured = 0.0;
  /// Relative tolerance for the match verdict.  Interpreted against
  /// max(|paper|, epsilon); a tolerance of 0.15 means within 15%.
  double rel_tolerance = 0.15;
  std::string unit;

  double abs_delta() const noexcept;
  double rel_delta() const noexcept;  ///< |measured - paper| / max(|paper|, 1e-12)
  bool within_tolerance() const noexcept;
};

/// A collection of comparisons for one experiment (one table/figure).
class ComparisonSet {
 public:
  explicit ComparisonSet(std::string experiment_name)
      : name_(std::move(experiment_name)) {}

  void add(std::string metric, double paper, double measured, double rel_tolerance = 0.15,
           std::string unit = "");

  const std::string& name() const noexcept { return name_; }
  const std::vector<Comparison>& rows() const noexcept { return rows_; }

  std::size_t matched() const noexcept;
  bool all_within_tolerance() const noexcept;

  /// Renders as an aligned table with a MATCH/OFF verdict column.
  std::string render() const;

 private:
  std::string name_;
  std::vector<Comparison> rows_;
};

}  // namespace tsufail::report
