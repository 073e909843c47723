#include "report/markdown_report.h"

#include "analysis/node_survival.h"
#include "analysis/rack_distribution.h"
#include "analysis/rolling.h"
#include "analysis/tbf.h"
#include "data/log_index.h"
#include "report/table.h"

namespace tsufail::report {
namespace {

std::string md_row(std::initializer_list<std::string> cells) {
  std::string out = "|";
  for (const auto& cell : cells) out += " " + cell + " |";
  return out + "\n";
}

std::string md_rule(std::size_t columns) {
  std::string out = "|";
  for (std::size_t i = 0; i < columns; ++i) out += "---|";
  return out + "\n";
}

}  // namespace

Result<std::string> render_markdown_report(const data::FailureLog& log,
                                           const MarkdownOptions& options) {
  const data::LogIndex index(log);  // one index for the study and the extensions
  auto study_result = analysis::run_study(index, analysis::StudyOptions{options.jobs});
  if (!study_result.ok()) return study_result.error();
  const auto& s = study_result.value();

  std::string md;
  const std::string title =
      options.title.empty() ? log.spec().name + " reliability report" : options.title;
  md += "# " + title + "\n\n";
  md += "- fleet: " + std::to_string(log.spec().node_count) + " nodes x " +
        std::to_string(log.spec().gpus_per_node) + " GPUs (" +
        std::to_string(log.spec().rack_count()) + " racks)\n";
  md += "- window: " + format_date(log.spec().log_start) + " .. " +
        format_date(log.spec().log_end) + " (" +
        fmt(log.spec().window_hours() / 24.0, 0) + " days)\n";
  md += "- failures: " + std::to_string(log.size()) + "\n\n";

  // --- headline metrics ----------------------------------------------------
  md += "## Headline reliability\n\n";
  md += md_row({"Metric", "Value"});
  md += md_rule(2);
  if (s.tbf.has_value()) {
    auto ci = analysis::mtbf_confidence_interval(log.size(), log.spec().window_hours());
    std::string mtbf = fmt(s.tbf->exposure_mtbf_hours, 1) + " h";
    if (ci.ok()) {
      mtbf += " (95% CI " + fmt(ci.value().low_hours, 1) + "-" +
              fmt(ci.value().high_hours, 1) + " h)";
    }
    md += md_row({"MTBF", mtbf});
    md += md_row({"p75 time between failures", fmt(s.tbf->p75_hours, 1) + " h"});
  }
  md += md_row({"MTTR", fmt(s.ttr.mttr_hours, 1) + " h (median " +
                            fmt(s.ttr.summary.median, 1) + " h)"});
  md += md_row({"FLOP x MTBF",
                fmt(s.perf_error_prop.pflop_hours_per_failure_free_period, 0) +
                    " PFlop-hours per failure-free period"});
  md += md_row({"nodes with repeat failures",
                fmt_percent(s.node_counts.percent_multi_failure, 1) + " of failed nodes"});
  md += "\n";

  // --- categories ------------------------------------------------------------
  md += "## Failure categories\n\n";
  md += md_row({"Category", "Count", "Share", "Class", "MTTR"});
  md += md_rule(5);
  std::size_t shown = 0;
  for (const auto& share : s.categories.categories) {
    if (share.count == 0 || shown++ >= options.top_categories) continue;
    std::string mttr = "-";
    for (const auto& row : s.ttr_by_category) {
      if (row.category == share.category) mttr = fmt(row.mttr_hours, 1) + " h";
    }
    md += md_row({std::string(data::to_string(share.category)), std::to_string(share.count),
                  fmt_percent(share.percent), std::string(data::to_string(
                      data::classify(share.category))), mttr});
  }
  md += "\n";

  // --- software loci ------------------------------------------------------------
  if (s.software_loci.has_value()) {
    md += "## Software root loci\n\n";
    md += fmt_percent(s.software_loci->gpu_driver_percent, 1) +
          " of software failures are GPU-driver-related; " +
          fmt_percent(s.software_loci->unknown_percent, 1) + " have no recorded cause.\n\n";
    md += md_row({"Locus", "Count", "Share"});
    md += md_rule(3);
    std::size_t loci_shown = 0;
    for (const auto& locus : s.software_loci->top) {
      if (loci_shown++ >= options.top_loci) break;
      md += md_row({locus.locus, std::to_string(locus.count), fmt_percent(locus.percent)});
    }
    md += "\n";
  }

  // --- GPU structure -------------------------------------------------------------
  if (s.multi_gpu.has_value() && s.gpu_slots.has_value()) {
    md += "## GPU failure structure\n\n";
    md += md_row({"GPUs involved", "Count", "Share"});
    md += md_rule(3);
    for (const auto& bucket : s.multi_gpu->buckets) {
      md += md_row({std::to_string(bucket.gpus), std::to_string(bucket.count),
                    fmt_percent(bucket.percent)});
    }
    md += "\nslot involvement: ";
    for (const auto& slot : s.gpu_slots->slots) {
      md += "GPU" + std::to_string(slot.slot) + " " + fmt_percent(slot.percent, 1) + "  ";
    }
    md += "(uniformity p = " + fmt(s.gpu_slots->uniformity_p_value, 4) + ")\n\n";
  }

  // --- skipped analyses ----------------------------------------------------------
  if (!s.skipped.empty()) {
    md += "## Skipped analyses\n\n";
    for (const auto& skipped : s.skipped) {
      md += "- " + skipped.analysis + ": " + skipped.error.message() + "\n";
    }
    md += "\n";
  }

  if (!options.include_extensions) return md;

  // --- extensions ------------------------------------------------------------------
  if (auto survival = analysis::analyze_node_survival(index); survival.ok()) {
    md += "## Node survival\n\n";
    md += "- " + fmt_percent(100.0 * survival.value().fraction_never_failed, 1) +
          " of nodes never failed inside the window\n";
    if (survival.value().median_refailure_hours.has_value()) {
      md += "- median time from first to second failure: " +
            fmt(*survival.value().median_refailure_hours, 0) + " h\n";
    }
    if (survival.value().repeat_offender_test.has_value()) {
      md += std::string("- repeat-offender log-rank: p = ") +
            fmt(survival.value().repeat_offender_test->p_value, 4) +
            (survival.value().failed_nodes_refail_faster
                 ? " (failed nodes re-fail significantly faster)\n"
                 : " (no significant effect)\n");
    }
    md += "\n";
  }

  if (auto trends = analysis::analyze_rolling_trends(index); trends.ok()) {
    md += "## Lifetime trends\n\n";
    md += "- failure-rate slope p = " + fmt(trends.value().rate_trend.slope_p_value, 3) +
          ", early/late quarter rate ratio " +
          fmt(trends.value().early_late_rate_ratio, 2) + "\n";
    md += "- MTTR slope p = " + fmt(trends.value().mttr_trend.slope_p_value, 3) + "\n\n";
  }

  if (auto racks = analysis::analyze_racks(index); racks.ok()) {
    md += "## Rack distribution\n\n";
    md += "- " + std::to_string(racks.value().racks_with_failures) + " of " +
          std::to_string(racks.value().total_racks) + " racks saw failures; Gini " +
          fmt(racks.value().gini, 2) + "; " +
          std::to_string(racks.value().racks_holding_half) + " racks hold half\n";
    md += "- uniformity chi-square p = " + fmt(racks.value().uniformity_p_value, 4) + "\n\n";
  }
  return md;
}

}  // namespace tsufail::report
