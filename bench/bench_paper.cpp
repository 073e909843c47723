// The paper reproduction: every figure, table and RQ4 result of the paper,
// plus six extensions (racks, survival, the simulator's knob ablations and
// the RQ5 implications), from one table (report::paper_figures()).
//
// Run it from the repository root with no arguments.  For each table
// entry it writes figures/<stem>.csv, shows the figure as terminal text,
// and prints the entry's notes and paper-vs-measured comparisons.  Exits
// non-zero if a comparison is OFF or a CSV cannot be written.
#include <cstdio>
#include <optional>

#include "bench_common.h"
#include "report/paper_figures.h"

using namespace tsufail;

int main() {
  bench::print_banner("bench_paper",
                      "Figures 2-12, Table III and RQ4, plus rack, survival, ablation and "
                      "RQ5-implication extensions");
  const report::Reproduction repro;
  std::optional<Error> write_error;
  for (const auto& entry : report::paper_figures()) {
    std::printf("######## %.*s\n\n", static_cast<int>(entry.title.size()), entry.title.data());
    const auto figures = report::extract_figures(entry, repro.machines());
    if (auto written = report::export_figures(figures, "figures"); !written.ok() && !write_error)
      write_error = written.error();
    for (const auto& figure : figures)
      std::printf("--- %s\n%s\n", figure.name.c_str(), report::render_view(entry, figure).c_str());
    const auto check = report::check_figure(entry, repro);
    std::printf("%s\n", check.notes.c_str());
    for (const auto& set : check.comparisons) bench::print_comparisons(set);
  }
  if (write_error) {
    std::fprintf(stderr, "error: %s\n", write_error->to_string().c_str());
    return 1;
  }
  return bench::exit_code();
}
