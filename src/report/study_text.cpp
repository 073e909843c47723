#include "report/study_text.h"

#include <sstream>

#include "obs/obs.h"
#include "report/table.h"

namespace tsufail::report {
namespace {

std::string render(const data::MachineSpec& spec, std::size_t failures,
                   const analysis::StudyReport& s) {
  OBS_SPAN("report.render");
  std::ostringstream out;
  out << "== " << spec.name << ": " << failures << " failures over "
      << fmt(spec.window_hours() / 24.0, 0) << " days ==\n\n";

  Table categories({"Category", "Count", "Share", "Class"});
  categories.set_alignment({Align::kLeft, Align::kRight, Align::kRight, Align::kLeft});
  for (const auto& share : s.categories.categories) {
    if (share.count == 0) continue;
    categories.add_row({std::string(data::to_string(share.category)),
                        std::to_string(share.count), fmt_percent(share.percent),
                        std::string(data::to_string(data::classify(share.category)))});
  }
  out << categories.render() << "\n";

  if (s.tbf.has_value()) {
    out << "MTBF: " << fmt(s.tbf->exposure_mtbf_hours, 1) << " h (mean gap "
        << fmt(s.tbf->mtbf_hours, 1) << " h, p75 " << fmt(s.tbf->p75_hours, 1) << " h)\n";
  }
  out << "MTTR: " << fmt(s.ttr.mttr_hours, 1) << " h (median " << fmt(s.ttr.summary.median, 1)
      << " h, p95 " << fmt(s.ttr.summary.p95, 1) << " h)\n";
  out << "failed nodes: " << s.node_counts.failed_nodes << " of " << s.node_counts.total_nodes
      << " (" << fmt_percent(s.node_counts.percent_multi_failure, 1)
      << " with repeat failures)\n";
  if (s.multi_gpu.has_value()) {
    out << "multi-GPU failures: " << fmt_percent(s.multi_gpu->percent_multi, 1) << " of "
        << s.multi_gpu->attributed_failures << " attributed GPU failures\n";
  }
  if (s.software_loci.has_value()) {
    out << "software loci: " << fmt_percent(s.software_loci->gpu_driver_percent, 1)
        << " GPU-driver-related, " << fmt_percent(s.software_loci->unknown_percent, 1)
        << " unknown\n";
  }
  if (s.multi_gpu_clustering.has_value()) {
    out << "multi-GPU temporal clustering: CV " << fmt(s.multi_gpu_clustering->cv, 2)
        << (s.multi_gpu_clustering->clustered ? " (clustered)" : " (not clustered)") << "\n";
  }
  out << "performance-error-proportionality: "
      << fmt(s.perf_error_prop.pflop_hours_per_failure_free_period, 0)
      << " PFlop-hours per failure-free period\n";
  for (const auto& skipped : s.skipped) {
    out << "skipped " << skipped.analysis << ": " << skipped.error.message() << "\n";
  }
  return out.str();
}

}  // namespace

std::string render_study_text(const data::LogIndex& index, const analysis::StudyReport& study) {
  return render(index.spec(), index.size(), study);
}

std::string render_study_text(const data::FailureLog& log, const analysis::StudyReport& study) {
  return render(log.spec(), log.size(), study);
}

}  // namespace tsufail::report
