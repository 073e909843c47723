// StudyReport: every analysis in the paper, computed in one call.
//
// This is the convenience entry point for downstream users ("run the
// DSN'21 study on my log").  The study reads one data::LogIndex; the
// FailureLog form only indexes the log first.  The independent analyses
// run on the library's worker pool (util/parallel.h), optionally in
// parallel (StudyOptions::jobs); the assembled report is identical for
// any thread count.  Analyses that are undefined for a given log (e.g.
// multi-GPU clustering on a log with no multi-GPU failures) are carried
// as std::optional and simply absent, with the reason recorded in
// StudyReport::skipped.
#pragma once

#include <optional>
#include <string>

#include "analysis/category_breakdown.h"
#include "analysis/gpu_slots.h"
#include "analysis/multi_gpu.h"
#include "analysis/node_counts.h"
#include "analysis/perf_error_prop.h"
#include "analysis/seasonal.h"
#include "analysis/software_loci.h"
#include "analysis/tbf.h"
#include "analysis/temporal_cluster.h"
#include "analysis/ttr.h"
#include "data/log_index.h"

namespace tsufail::analysis {

struct StudyOptions {
  /// Worker threads for the independent analyses: 1 (the default) runs
  /// everything serially on the calling thread, 0 uses one worker per
  /// hardware thread, n > 1 uses n workers.  The report is bit-identical
  /// for every value.
  std::size_t jobs = 1;
  /// Compute only what the scalar summaries of a report read (the Monte
  /// Carlo sweep's study_metrics): leave out the software-loci ranking
  /// (software_loci stays empty).  Every other field is the same as in
  /// the full study.  Neither study fits a TBF or TTR family (no output
  /// prints one), so tbf->best_family and ttr.best_family stay empty.
  bool scalars_only = false;
};

/// An optional analysis that could not be computed for this log, and why.
struct SkippedAnalysis {
  std::string analysis;  ///< analysis name, e.g. "multi_gpu_clustering"
  Error error;           ///< the domain error that made it undefined
};

struct StudyReport {
  CategoryBreakdown categories;                       // Fig 2
  std::optional<SoftwareLoci> software_loci;          // Fig 3
  NodeCounts node_counts;                             // Fig 4
  std::optional<GpuSlotDistribution> gpu_slots;       // Fig 5
  std::optional<MultiGpuInvolvement> multi_gpu;       // Table III
  std::optional<TbfResult> tbf;                       // Fig 6
  std::vector<CategoryTbf> tbf_by_category;           // Fig 7
  std::optional<TemporalClustering> multi_gpu_clustering;  // Fig 8
  TtrResult ttr;                                      // Fig 9
  std::vector<CategoryTtr> ttr_by_category;           // Fig 10
  SeasonalAnalysis seasonal;                          // Fig 11-12
  PerfErrorProportionality perf_error_prop;           // RQ4 metric
  /// Optional analyses that were undefined for this log, in the order the
  /// study runs them, each with the error explaining why.
  std::vector<SkippedAnalysis> skipped;
};

/// Runs the full study on an indexed log.  Errors only on conditions that
/// make the whole study meaningless (empty log, or a required analysis
/// failing; the error names it); per-analysis impossibilities yield
/// absent optionals / empty vectors and an entry in StudyReport::skipped
/// instead.
Result<StudyReport> run_study(const data::LogIndex& index, const StudyOptions& options = {});

/// Indexes `log` and runs the study on that index.
Result<StudyReport> run_study(const data::FailureLog& log, const StudyOptions& options = {});

}  // namespace tsufail::analysis
