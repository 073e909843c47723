// log_triage: the operator-facing report.  Point it at a failure-log CSV
// (or let it generate a demo log) and it prints what an operations team
// wants on Monday morning: category ranking by *impact* (not frequency),
// the repeat-failure node list, and repair-time outliers.
//
//   $ ./log_triage [path/to/log.csv]
#include <algorithm>
#include <cstdio>

#include "analysis/study.h"
#include "data/log_index.h"
#include "data/log_io.h"
#include "ops/availability.h"
#include "report/table.h"
#include "sim/generator.h"
#include "sim/tsubame_models.h"

using namespace tsufail;

namespace {

Result<data::FailureLog> load_or_demo(int argc, char** argv) {
  if (argc > 1) {
    auto report = data::read_log_file(argv[1]);
    if (!report.ok()) return report.error();
    for (const auto& row_error : report.value().row_errors) {
      std::fprintf(stderr, "warning: skipped line %zu: %s\n", row_error.line_number,
                   row_error.message.c_str());
    }
    return std::move(report.value().log);
  }
  std::printf("(no log given; using a calibrated synthetic Tsubame-2 log)\n\n");
  return sim::generate_log(sim::tsubame2_model(), 7);
}

}  // namespace

int main(int argc, char** argv) {
  auto log = load_or_demo(argc, argv);
  if (!log.ok()) {
    std::fprintf(stderr, "error: %s\n", log.error().to_string().c_str());
    return 1;
  }

  const auto availability = ops::analyze_availability(log.value()).value();
  std::printf("== fleet health: %s ==\n", log.value().spec().name.c_str());
  std::printf("failures: %zu | MTBF %.1f h | MTTR %.1f h | unit availability %.4f\n",
              log.value().size(), availability.mtbf_hours, availability.mttr_hours,
              availability.availability);
  std::printf("total downtime %.0f node-hours (%.4f%% of fleet node-hours)\n\n",
              availability.total_downtime_hours,
              100.0 * availability.node_hour_loss_fraction);

  // Impact ranking: categories whose downtime share exceeds their
  // frequency share deserve disproportionate attention.
  std::printf("-- category impact ranking (by downtime, not frequency) --\n");
  report::Table table({"Category", "Failures", "Freq share", "Downtime share", "Mean TTR",
                       "Worst TTR", "Impact ratio"});
  table.set_alignment({report::Align::kLeft, report::Align::kRight, report::Align::kRight,
                       report::Align::kRight, report::Align::kRight, report::Align::kRight,
                       report::Align::kRight});
  for (const auto& impact : availability.by_category) {
    table.add_row({std::string(data::to_string(impact.category)),
                   std::to_string(impact.failures), report::fmt_percent(impact.share_percent, 1),
                   report::fmt_percent(impact.downtime_percent, 1),
                   report::fmt(impact.mean_ttr_hours, 1) + " h",
                   report::fmt(impact.max_ttr_hours, 1) + " h",
                   report::fmt(impact.impact_ratio, 2)});
  }
  std::printf("%s\n", table.render().c_str());

  // Repeat-failure nodes: candidates for proactive service.
  const data::LogIndex index(log.value());
  std::vector<std::pair<int, std::size_t>> repeats;
  for (const auto& group : index.nodes()) repeats.emplace_back(group.node, group.count);
  std::erase_if(repeats, [](const auto& entry) { return entry.second < 3; });
  std::sort(repeats.begin(), repeats.end(),
            [](const auto& a, const auto& b) { return a.second > b.second; });
  std::printf("-- nodes with >= 3 failures (proactive-service candidates) --\n");
  for (std::size_t i = 0; i < std::min<std::size_t>(repeats.size(), 10); ++i) {
    std::printf("  node %4d: %zu failures\n", repeats[i].first, repeats[i].second);
  }
  if (repeats.size() > 10) std::printf("  ... and %zu more\n", repeats.size() - 10);
  std::printf("\n");

  // Repair-time outliers: repairs beyond q3 + 3 IQR of the whole fleet.
  const auto study = analysis::run_study(log.value()).value();
  const double fence = study.ttr.summary.p75 +
                       3.0 * (study.ttr.summary.p75 - study.ttr.summary.p25);
  std::printf("-- repair-time outliers (TTR > %.0f h) --\n", fence);
  std::size_t outliers = 0;
  for (const auto& record : log.value().records()) {
    if (record.ttr_hours <= fence) continue;
    if (++outliers <= 10) {
      std::printf("  %s  node %4d  %-12s  %.0f h\n", format_time(record.time).c_str(),
                  record.node, data::to_string(record.category).data(), record.ttr_hours);
    }
  }
  if (outliers > 10) std::printf("  ... and %zu more\n", outliers - 10);
  std::printf("%zu outliers of %zu failures\n", outliers, log.value().size());
  return 0;
}
