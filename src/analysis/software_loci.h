// Figure 3: root loci of software failures on Tsubame-3.
//
// The paper breaks the "Software" category's 171 reported root loci into
// the top-16 causes; ~43% are GPU-driver-related and ~20% have no known
// cause.  A "root locus" here is the free-text label the operators
// recorded; records without one are counted as "unknown".
#pragma once

#include <string>
#include <vector>

#include "data/log_index.h"

namespace tsufail::analysis {

struct RootLocusShare {
  std::string locus;       ///< normalized label ("unknown" if none recorded)
  std::size_t count = 0;
  double percent = 0.0;    ///< of all software-class failures
};

struct SoftwareLoci {
  std::size_t software_failures = 0;    ///< software-class records considered
  std::size_t distinct_loci = 0;        ///< distinct labels (incl. "unknown")
  std::vector<RootLocusShare> top;      ///< descending by count, truncated
  double gpu_driver_percent = 0.0;      ///< loci containing "driver" or "cuda"
  double unknown_percent = 0.0;         ///< unlabelled records

  double percent_of(std::string_view locus) const noexcept;
};

/// Computes the Figure 3 breakdown over software-class failures.
/// `top_n` truncates the list (16 in the paper).  Errors: the log has no
/// software-class failures.
Result<SoftwareLoci> analyze_software_loci(const data::LogIndex& index, std::size_t top_n = 16);

}  // namespace tsufail::analysis
