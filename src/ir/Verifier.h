//===- ir/Verifier.h - IR structural and SSA invariants ---------*- C++ -*-===//
//
// Part of the ssalive project, released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Structural checks (edge/terminator/φ consistency) plus the strict-SSA
/// invariants the paper assumes: each variable has a single definition and
/// every use is dominated by it ("the program is in SSA form and the
/// dominance property must hold", Section 1). The dominance check uses the
/// production dominator tree's preorder intervals; the naive dominator
/// computation below stays as the independent reference the dominator-tree
/// tests compare against.
///
//===----------------------------------------------------------------------===//

#ifndef SSALIVE_IR_VERIFIER_H
#define SSALIVE_IR_VERIFIER_H

#include <string>
#include <vector>

namespace ssalive {

class Function;
class CFG;

/// Verification report: empty Errors means the function checks out.
struct VerifyResult {
  std::vector<std::string> Errors;
  bool ok() const { return Errors.empty(); }
  /// All errors joined with newlines (handy for gtest messages).
  std::string message() const;
};

/// Checks structural well-formedness: mirrored succ/pred lists, exactly one
/// terminator per block ending it, terminator arity matching successor
/// count, φs forming a block prefix with operands matching predecessors,
/// entry without predecessors, all blocks reachable.
VerifyResult verifyStructure(const Function &F);

/// Checks strict SSA form on top of the structural checks: single def per
/// used value, defs before uses within a block, and the dominance property
/// under the paper's Definition 1 placement of φ uses.
VerifyResult verifySSA(const Function &F);

/// Naive quadratic dominance computation by iterated set intersection;
/// Doms[V] holds the ids of all dominators of V. Exposed for cross-checking
/// the DomTree implementations.
std::vector<std::vector<unsigned>> computeDominatorsNaive(const CFG &G);

} // namespace ssalive

#endif // SSALIVE_IR_VERIFIER_H
