//===- ssa/SSADestruction.h - Sreedhar III out-of-SSA -----------*- C++ -*-===//
//
// Part of the ssalive project, released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Translation out of SSA form in the style of Sreedhar, Ju, Gillies &
/// Santhanam ("Translating Out of Static Single Assignment Form", SAS
/// 1999), Method III: φ resources join congruence classes unless a
/// liveness-driven interference test (Budimlić et al., see
/// InterferenceCheck.h) forbids it, in which case an isolating copy is
/// inserted — in the predecessor block for arguments, after the φ prefix
/// for results. This pass is the paper's measured query workload: Table 2
/// times exactly the liveness queries it issues.
///
/// Faithfulness note: Sreedhar's full Method III refines pairwise
/// interference with an "unresolved neighbor" analysis to insert fewer
/// copies. We keep the pairwise liveness tests (the measured quantity) and
/// fall back to full isolation of a φ (Method I style, always correct) in
/// the rare constellation where merging copies could clobber a value that
/// is live through the predecessor. Isolation only adds copies, so the
/// output stays correct and the pass issues the same kind of queries.
///
//===----------------------------------------------------------------------===//

#ifndef SSALIVE_SSA_SSADESTRUCTION_H
#define SSALIVE_SSA_SSADESTRUCTION_H

#include "core/LivenessInterface.h"
#include "ir/Function.h"

#include <cstdint>
#include <vector>

namespace ssalive {

/// How φ resources are coalesced.
enum class DestructionMethod {
  /// Sreedhar Method I: isolate every φ completely (copies for the result
  /// and every argument). No liveness queries; the naive baseline.
  CopyAll,
  /// Sreedhar Method III: insert copies only where the interference test
  /// demands. This issues the liveness queries the paper measures.
  Coalescing,
};

/// One recorded liveness query, for replay-based benchmarking: the harness
/// re-runs the identical query stream against different backends.
struct RecordedQuery {
  unsigned ValueId;
  unsigned BlockId;
  bool IsLiveOut; ///< false = live-in query.
};

/// Counters and the optional query trace.
struct DestructionStats {
  unsigned PhisEliminated = 0;
  unsigned CopiesInserted = 0;
  unsigned ResourcesCoalesced = 0; ///< φ resources merged without a copy.
  unsigned FullIsolationFallbacks = 0;
  std::uint64_t LivenessQueries = 0;
  std::vector<RecordedQuery> Trace; ///< Filled when RecordTrace is set.
};

/// Options for the pass.
struct DestructionOptions {
  DestructionMethod Method = DestructionMethod::Coalescing;
  /// Record every liveness query into DestructionStats::Trace.
  bool RecordTrace = false;
};

/// Destroys SSA form in place: φs are replaced by copies and congruence-
/// class renaming. \p Liveness answers the interference queries; it must
/// have been built for \p F *before* the call (the paper's point is that
/// the fast engine's precomputation survives the pass's edits). The result
/// is a φ-free, generally non-SSA function with unchanged CFG and
/// unchanged observable behaviour.
DestructionStats destructSSA(Function &F, LivenessQueries &Liveness,
                             DestructionOptions Opts = {});

} // namespace ssalive

#endif // SSALIVE_SSA_SSADESTRUCTION_H
