// Generative models for fleetsim, the synthetic failure-log generator.
//
// The paper's raw operator logs are proprietary; fleetsim substitutes them
// with synthetic logs drawn from models calibrated to every statistic the
// paper reports (DESIGN.md section 4-5).  A MachineModel is the complete
// recipe for one machine's log:
//
//   * per-category event counts + temporal placement (seasonal intensity,
//     optional burst clustering),
//   * per-category repair-time distributions with monthly modulation,
//   * spatial structure: "lemon node" hazard mix and GPU slot weights,
//   * GPU involvement counts (Table III) and slot attribution probability,
//   * software root-locus vocabulary (Figure 3).
#pragma once

#include <array>
#include <string>
#include <vector>

#include "data/category.h"
#include "data/machine.h"
#include "stats/distribution.h"

namespace tsufail::sim {

/// How a category's events are placed in time.
enum class ArrivalKind {
  kIid,      ///< i.i.d. draws from the seasonal intensity (Poissonian)
  kBursty,   ///< Neyman-Scott clusters: events arrive in temporal bursts
};

/// Burst (Neyman-Scott cluster) parameters for ArrivalKind::kBursty.
struct BurstParams {
  double mean_cluster_size = 3.0;      ///< mean events per burst (>= 1)
  double cluster_spread_hours = 24.0;  ///< exponential spread of a burst
};

/// Repair-time model: lognormal with an optional hard cap emulating the
/// longest repairs the paper reports (e.g. 290 h for Tsubame-2 SSD).
struct RepairModel {
  stats::LogNormal ttr;
  double cap_hours = 0.0;  ///< 0 = uncapped; otherwise resample above cap
};

/// One failure category's generative recipe.
struct CategoryModel {
  data::Category category = data::Category::kUnknown;
  double share_percent = 0.0;          ///< of the machine's total failures
  ArrivalKind arrival = ArrivalKind::kIid;
  BurstParams burst;                   ///< used when arrival == kBursty
  RepairModel repair;
  /// Events of this category follow the heterogeneous (gamma) node hazard;
  /// otherwise they land uniformly.  On Tsubame-2 only hardware failures
  /// recur on the same nodes (352 HW vs 1 SW repeat failures), so its
  /// software categories set this false.
  bool hazard_affinity = false;
};

/// Heterogeneous per-node hazard producing the repeat-failure ("lemon
/// node") mass in Figure 4.  Each node draws a hazard weight from
/// Gamma(shape, 1); affine events pick nodes proportionally to weight,
/// giving negative-binomially over-dispersed per-node failure counts.
/// Smaller shape = heavier dispersion; shape <= 0 disables (uniform).
///
/// rack_gamma_shape adds a rack-level multiplier shared by all nodes of
/// one rack (drawn from Gamma(shape, 1/shape), mean 1): the paper's
/// "non-uniform distribution of failures among racks" observation.
/// Larger shape = milder rack effect; <= 0 disables.
struct NodeHazardModel {
  double gamma_shape = 0.0;
  double rack_gamma_shape = 0.0;
};

/// Table III model: distribution of #GPUs involved per attributed GPU
/// failure, slot-selection weights, and the fraction of GPU failures that
/// carry slot attribution at all.
struct GpuInvolvementModel {
  std::vector<double> involvement_weights;  ///< index 0 -> 1 GPU, ...
  std::vector<double> slot_weights;         ///< one per slot (Figure 5)
  double attribution_probability = 1.0;     ///< P[record carries slot info]
  /// Multi-GPU events are placed as temporal bursts (Figure 8) when true.
  bool cluster_multi_gpu_in_time = true;
  BurstParams multi_gpu_burst{2.5, 96.0};
};

/// Seasonal structure: relative failure intensity and multiplicative TTR
/// modulation per calendar month (index 0 = January).
struct SeasonalModel {
  std::array<double, 12> failure_intensity{1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1};
  std::array<double, 12> ttr_multiplier{1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1};
};

/// A weighted software root-locus vocabulary entry (Figure 3).
struct RootLocusEntry {
  std::string label;
  double weight = 1.0;
};

/// Feature switches for ablation studies (the ext_ablation entry of
/// report/paper_figures.cpp).
struct SimKnobs {
  bool enable_bursts = true;            ///< temporal clustering of bursty categories
  bool enable_node_heterogeneity = true;///< non-uniform per-node hazard
  bool enable_slot_weights = true;      ///< non-uniform GPU slot selection
  bool enable_seasonal = true;          ///< monthly intensity + TTR modulation
};

/// Complete generative description of one machine's failure log.
struct MachineModel {
  data::MachineSpec spec;
  std::size_t total_failures = 0;     ///< calibration target (897 / 338)
  std::vector<CategoryModel> categories;
  NodeHazardModel node_hazard;
  GpuInvolvementModel gpu;
  SeasonalModel seasonal;
  std::vector<RootLocusEntry> software_loci;  ///< empty if not recorded
  SimKnobs knobs;
};

/// Validates internal consistency (shares sum to ~100, weights sized to
/// the spec, probabilities in range, positive distribution parameters).
Result<void> validate_model(const MachineModel& model);

}  // namespace tsufail::sim
