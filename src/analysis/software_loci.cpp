#include "analysis/software_loci.h"

#include <algorithm>
#include <map>

#include "util/strings.h"

namespace tsufail::analysis {
namespace {

bool is_gpu_driver_locus(std::string_view locus) {
  const std::string lower = to_lower(locus);
  return lower.find("driver") != std::string::npos || lower.find("cuda") != std::string::npos ||
         lower.find("gpu direct") != std::string::npos;
}

}  // namespace

double SoftwareLoci::percent_of(std::string_view locus) const noexcept {
  for (const auto& share : top) {
    if (share.locus == locus) return share.percent;
  }
  return 0.0;
}

Result<SoftwareLoci> analyze_software_loci(const data::LogIndex& index, std::size_t top_n) {
  const auto software = index.by_class(data::FailureClass::kSoftware);
  if (software.empty())
    return Error(ErrorKind::kDomain, "analyze_software_loci: no software-class failures in log");

  std::map<std::string, std::size_t> counts;
  std::size_t gpu_driver = 0;
  std::size_t unknown = 0;
  for (std::uint32_t position : software) {
    std::string locus = to_lower(trim(index.columns().root_locus_of(position)));
    if (locus.empty() || locus == "unknown") {
      locus = "unknown";
      ++unknown;
    } else if (is_gpu_driver_locus(locus)) {
      ++gpu_driver;
    }
    ++counts[locus];
  }

  SoftwareLoci result;
  result.software_failures = software.size();
  result.distinct_loci = counts.size();
  const double total = static_cast<double>(software.size());
  result.gpu_driver_percent = 100.0 * static_cast<double>(gpu_driver) / total;
  result.unknown_percent = 100.0 * static_cast<double>(unknown) / total;

  for (const auto& [locus, count] : counts) {
    result.top.push_back({locus, count, 100.0 * static_cast<double>(count) / total});
  }
  std::stable_sort(result.top.begin(), result.top.end(),
                   [](const RootLocusShare& a, const RootLocusShare& b) { return a.count > b.count; });
  if (result.top.size() > top_n) result.top.resize(top_n);
  return result;
}

}  // namespace tsufail::analysis
