// tsufail::testkit — naive reference implementations of every analysis.
//
// Each ref_* function recomputes one paper analysis from the flat record
// vector with the most obvious algorithm that could possibly be right:
// nested scans instead of the LogIndex's arena spans, O(n^2) insertion
// sorts instead of std::sort, two-pass moments instead of Welford.  They
// share *nothing* with the fast path above the stats-kernel leaves —
// selection, grouping, ordering, differencing, truncation, tie-breaking,
// and normalization are all re-derived here — so a bug in the data plane
// or the analysis plane cannot cancel itself out of a differential test.
//
// What IS shared, deliberately: transcendental stats kernels
// (stats::chi_square_gof, stats::pearson/spearman) and the leaves the
// family fits are built from (stats::RunningStats, the distribution
// types' CDFs, ln Gamma).  They are pure functions of sample values with
// their own unit suites; the oracle feeds them independently-derived
// inputs and targets the analysis plane, not the special-function
// library.  Family selection itself is not shared: ref_tbf and ref_ttr
// call reference_select_family (reference_fit.h), a frozen copy that
// sorts, fits and scans on its own, and the fast stats::select_family
// is pinned to that copy bit for bit.
//
// Agreement contract (asserted by the oracle in oracle.h): integers,
// enums, strings, orderings, and doubles produced by identical arithmetic
// match the fast path exactly; doubles whose computation reassociates
// floating-point ops (Welford vs two-pass moments, chunked vs day-walk
// exposure) match within a tight ULP/relative bound.  Error cases match
// kind and message verbatim.
#pragma once

#include "analysis/perf_error_prop.h"
#include "analysis/study.h"
#include "analysis/temporal_cluster.h"
#include "data/log.h"

namespace tsufail::testkit {

// --- the twelve study analyses ------------------------------------------

Result<analysis::CategoryBreakdown> ref_categories(const data::FailureLog& log);
Result<analysis::SoftwareLoci> ref_software_loci(const data::FailureLog& log,
                                                 std::size_t top_n = 16);
Result<analysis::NodeCounts> ref_node_counts(const data::FailureLog& log);
Result<analysis::GpuSlotDistribution> ref_gpu_slots(const data::FailureLog& log);
Result<analysis::MultiGpuInvolvement> ref_multi_gpu(const data::FailureLog& log);
Result<analysis::TbfResult> ref_tbf(const data::FailureLog& log, bool fit_family = true);
Result<std::vector<analysis::CategoryTbf>> ref_tbf_by_category(const data::FailureLog& log,
                                                               std::size_t min_failures = 3);
Result<analysis::TemporalClustering> ref_multi_gpu_clustering(const data::FailureLog& log);
Result<analysis::TtrResult> ref_ttr(const data::FailureLog& log, bool fit_family = true);
Result<std::vector<analysis::CategoryTtr>> ref_ttr_by_category(const data::FailureLog& log,
                                                               std::size_t min_failures = 2);
Result<analysis::SeasonalAnalysis> ref_seasonal(const data::FailureLog& log);
Result<analysis::PerfErrorProportionality> ref_perf_error_prop(const data::FailureLog& log);

// --- restricted-stream variants (same cores, caller-selected streams) ----

Result<analysis::TbfResult> ref_tbf_category(const data::FailureLog& log,
                                             data::Category category);
Result<analysis::TbfResult> ref_tbf_class(const data::FailureLog& log, data::FailureClass cls);
Result<analysis::TtrResult> ref_ttr_category(const data::FailureLog& log,
                                             data::Category category);
Result<analysis::TtrResult> ref_ttr_class(const data::FailureLog& log, data::FailureClass cls);
Result<std::vector<analysis::CategoryBurstiness>> ref_category_burstiness(
    const data::FailureLog& log, std::size_t min_failures = 5);

// --- the study itself ----------------------------------------------------

/// Sequential reference re-computation of run_study: every slot filled
/// from the ref_* implementations above, skipped entries in the same
/// registration order with the same error kinds and messages.  Like
/// run_study, it fits no family: its TBF and TTR carry no best_family.
Result<analysis::StudyReport> ref_run_study(const data::FailureLog& log);

}  // namespace tsufail::testkit
