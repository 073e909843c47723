#include "report/compare.h"

#include <cmath>

#include "report/table.h"

namespace tsufail::report {

double Comparison::abs_delta() const noexcept { return std::abs(measured - paper); }

double Comparison::rel_delta() const noexcept {
  return abs_delta() / std::max(std::abs(paper), 1e-12);
}

bool Comparison::within_tolerance() const noexcept {
  // For near-zero paper values an absolute criterion is the sane reading:
  // "0%" matched by anything below the tolerance in absolute terms.
  if (std::abs(paper) < 1e-9) return std::abs(measured) <= rel_tolerance;
  return rel_delta() <= rel_tolerance;
}

void ComparisonSet::add(std::string metric, double paper, double measured, double rel_tolerance,
                        std::string unit) {
  rows_.push_back({std::move(metric), paper, measured, rel_tolerance, std::move(unit)});
}

std::size_t ComparisonSet::matched() const noexcept {
  std::size_t count = 0;
  for (const auto& row : rows_) {
    if (row.within_tolerance()) ++count;
  }
  return count;
}

bool ComparisonSet::all_within_tolerance() const noexcept { return matched() == rows_.size(); }

std::string ComparisonSet::render() const {
  Table table({"Metric", "Paper", "Measured", "Delta", "Verdict"});
  table.set_alignment({Align::kLeft, Align::kRight, Align::kRight, Align::kRight, Align::kLeft});
  for (const auto& row : rows_) {
    // Near-zero paper values make a relative delta meaningless; show the
    // absolute deviation instead.
    const std::string delta = std::abs(row.paper) < 1e-9
                                  ? "|" + fmt(row.abs_delta()) + "|"
                                  : fmt_percent(100.0 * row.rel_delta(), 1);
    table.add_row({row.metric + (row.unit.empty() ? "" : " [" + row.unit + "]"),
                   fmt(row.paper), fmt(row.measured), delta,
                   row.within_tolerance() ? "MATCH" : "OFF"});
  }
  std::string out = "== " + name_ + " ==\n" + table.render();
  out += "matched " + std::to_string(matched()) + "/" + std::to_string(rows_.size()) + "\n";
  return out;
}

}  // namespace tsufail::report
