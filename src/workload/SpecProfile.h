//===- workload/SpecProfile.h - SPEC2000int workload profiles ---*- C++ -*-===//
//
// Part of the ssalive project, released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Per-benchmark profiles of the paper's evaluation corpus: the ten
/// SPEC2000 integer programs the LAO compiler built (Tables 1 and 2). Since
/// neither LAO nor its SPEC builds are available, the profiles drive the
/// synthetic workload: procedure counts and block-count distributions are
/// matched per benchmark, and every paper-reported number is carried along
/// as the reference value the harnesses print next to the measured one.
/// The harnesses thus reproduce the paper's shapes and ratios, not its
/// absolute figures.
///
//===----------------------------------------------------------------------===//

#ifndef SSALIVE_WORKLOAD_SPECPROFILE_H
#define SSALIVE_WORKLOAD_SPECPROFILE_H

#include "support/RandomEngine.h"

#include <cstdint>
#include <vector>

namespace ssalive {

/// One benchmark row of Tables 1 and 2.
struct SpecProfile {
  const char *Name;

  /// \name Table 1 (quantitative) reference values.
  /// @{
  unsigned Procedures;     ///< Compiled procedures (Table 2 "# Proc.").
  double AvgBlocks;        ///< Average basic blocks per procedure.
  unsigned SumBlocks;      ///< Total basic blocks.
  double PctBlocksLe32;    ///< % procedures with <= 32 blocks.
  double PctBlocksLe64;    ///< % procedures with <= 64 blocks.
  unsigned MaxUses;        ///< Table 1 "Maximum": most uses of one
                           ///< variable (620 in 186.crafty; the prose puts
                           ///< the largest *block* count at 2240).
  double PctUsesLe1;       ///< % variables with <= 1 use (cumulative).
  double PctUsesLe2;
  double PctUsesLe3;
  double PctUsesLe4;
  /// @}

  /// \name Table 2 (runtime) reference values.
  /// @{
  double PaperPrecompNative; ///< Avg cycles/proc, native data-flow.
  double PaperPrecompNew;    ///< Avg cycles/proc, the paper's technique.
  double PaperPrecompSpdup;
  std::uint64_t PaperQueries;
  double PaperQueryNative; ///< Avg cycles/query, native.
  double PaperQueryNew;
  double PaperQuerySpdup;
  double PaperBothSpdup; ///< Combined precomputation + queries speedup.
  /// @}
};

/// The ten benchmark profiles in Table order (164.gzip ... 300.twolf).
const std::vector<SpecProfile> &spec2000Profiles();

/// Aggregate "Total" row reference values from the paper.
const SpecProfile &spec2000TotalRow();

/// Samples a per-procedure block count whose distribution matches the
/// profile's %<=32 and %<=64 columns (log-normal fitted through the two
/// quantiles, clamped to [4, 2240] — the paper's largest observed
/// procedure, Section 6.1).
unsigned sampleBlockCount(const SpecProfile &P, RandomEngine &Rng);

/// The largest procedure the paper's corpus contained (Section 6.1).
constexpr unsigned MaxBlocksObserved = 2240;

/// Inverse standard normal CDF (Acklam's rational approximation); exposed
/// for tests of the sampler calibration.
double inverseNormalCDF(double P);

} // namespace ssalive

#endif // SSALIVE_WORKLOAD_SPECPROFILE_H
