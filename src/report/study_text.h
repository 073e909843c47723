// Plain-text rendering of a StudyReport — the `tsufail analyze` output.
//
// Extracted from the CLI so the fleet service's "study" query serves the
// byte-identical text an operator would get from the one-shot command;
// the serve-smoke CI job diffs the two.
#pragma once

#include <string>

#include "analysis/study.h"
#include "data/log.h"
#include "data/log_index.h"

namespace tsufail::report {

/// Renders the headline study text: banner, category table, MTBF/MTTR
/// lines, node/multi-GPU/clustering summaries, and any skipped analyses.
std::string render_study_text(const data::LogIndex& index, const analysis::StudyReport& study);

/// The same text for a log held as records.
std::string render_study_text(const data::FailureLog& log, const analysis::StudyReport& study);

}  // namespace tsufail::report
