//===- tests/core/LiveCheckPropertyTest.cpp -------------------------------===//
//
// Part of the ssalive project, released under the MIT license.
//
//===----------------------------------------------------------------------===//
//
// The load-bearing correctness tests: on random CFGs (structured reducible
// and goto-mangled irreducible) with random variable placements, every
// (variable, block) live-in and live-out answer of the fast engine — with
// and without subtree skipping — must equal the brute-force oracle that
// implements the paper's Definitions 2 and 3 by graph search.
//
//===----------------------------------------------------------------------===//

#include "core/LiveCheck.h"

#include "TestUtil.h"
#include "liveness/LivenessOracle.h"
#include "workload/CFGGenerator.h"

#include <gtest/gtest.h>

#include <set>

using namespace ssalive;
using namespace ssalive::testutil;

namespace {

/// One synthetic variable for CFG-level checks: a def block and use blocks
/// placed in the def's dominance subtree (as strict SSA guarantees).
struct SyntheticVar {
  unsigned Def;
  std::vector<unsigned> Uses;
};

std::vector<SyntheticVar> placeVariables(const CFG &G, const DomTree &DT,
                                         RandomEngine &Rng,
                                         unsigned Count) {
  std::vector<SyntheticVar> Vars;
  unsigned N = G.numNodes();
  for (unsigned I = 0; I != Count; ++I) {
    SyntheticVar V;
    V.Def = Rng.nextBelow(N);
    // Dominated blocks form the interval [num, maxnum].
    unsigned Lo = DT.num(V.Def), Hi = DT.maxnum(V.Def);
    unsigned NumUses = 1 + Rng.nextBelow(4);
    for (unsigned U = 0; U != NumUses; ++U)
      V.Uses.push_back(DT.nodeAtNum(Rng.nextInRange(Lo, Hi)));
    Vars.push_back(std::move(V));
  }
  return Vars;
}

struct Config {
  const char *Name;
  unsigned MinBlocks;
  unsigned MaxBlocks;
  unsigned GotoEdges;
  unsigned Seeds;
};

class LiveCheckProperty : public ::testing::TestWithParam<Config> {};

using BoolMatrix = std::vector<std::vector<bool>>;

/// Definition 4 by brute force: R[v][w] iff w is reachable from v by BFS
/// over the CFG minus the DFS back edges.
BoolMatrix bruteReducedReach(const CFG &G, const DFS &D) {
  const std::set<std::pair<unsigned, unsigned>> Back(D.backEdges().begin(),
                                                     D.backEdges().end());
  unsigned N = G.numNodes();
  BoolMatrix R(N, std::vector<bool>(N, false));
  for (unsigned V = 0; V != N; ++V) {
    std::vector<unsigned> Work{V};
    R[V][V] = true;
    while (!Work.empty()) {
      unsigned X = Work.back();
      Work.pop_back();
      for (unsigned Y : G.successors(X))
        if (!Back.count({X, Y}) && !R[V][Y]) {
          R[V][Y] = true;
          Work.push_back(Y);
        }
    }
  }
  return R;
}

/// Definition 5 by brute force: the least fixpoint of
///   T_v = {v} ∪ ⋃ T_t over t ∈ T↑_v,
///   T↑_v = { t ∉ R_v | some back edge (s, t) has s ∈ R_v }.
BoolMatrix bruteTargetSets(const CFG &G, const DFS &D, const BoolMatrix &R) {
  unsigned N = G.numNodes();
  BoolMatrix T(N, std::vector<bool>(N, false));
  for (unsigned V = 0; V != N; ++V)
    T[V][V] = true;
  for (bool Changed = true; Changed;) {
    Changed = false;
    for (unsigned V = 0; V != N; ++V)
      for (auto [S, Tgt] : D.backEdges()) {
        if (!R[V][S] || R[V][Tgt])
          continue;
        for (unsigned W = 0; W != N; ++W)
          if (T[Tgt][W] && !T[V][W]) {
            T[V][W] = true;
            Changed = true;
          }
      }
  }
  return T;
}

} // namespace

TEST_P(LiveCheckProperty, AllQueriesMatchOracle) {
  const Config &C = GetParam();
  for (std::uint64_t Seed = 0; Seed != C.Seeds; ++Seed) {
    RandomEngine Rng(Seed * 7919 + 13);
    CFGGenOptions Opts;
    Opts.TargetBlocks = C.MinBlocks + Rng.nextBelow(C.MaxBlocks -
                                                    C.MinBlocks + 1);
    Opts.GotoEdges = C.GotoEdges;
    CFG G = generateCFG(Opts, Rng);
    DFS D(G);
    DomTree DT(G, D);

    // Engine variants under test: the default and the subtree-skip
    // ablation.
    LiveCheck Propagated(G, D, DT);
    LiveCheck NoSkip(G, D, DT, {.SubtreeSkip = false});
    const std::pair<const char *, const LiveCheck *> Engines[] = {
        {"propagated", &Propagated}, {"noskip", &NoSkip}};

    auto Vars = placeVariables(G, DT, Rng, 12);
    for (const SyntheticVar &V : Vars) {
      for (unsigned Q = 0; Q != G.numNodes(); ++Q) {
        bool WantIn = LivenessOracle::liveInSearch(G, V.Def, V.Uses, Q);
        bool WantOut = LivenessOracle::liveOutSearch(G, V.Def, V.Uses, Q);
        for (const auto &[Name, E] : Engines) {
          EXPECT_EQ(E->isLiveIn(V.Def, Q, V.Uses), WantIn)
              << C.Name << " " << Name << " seed " << Seed << " def "
              << V.Def << " q " << Q;
          EXPECT_EQ(E->isLiveOut(V.Def, Q, V.Uses), WantOut)
              << C.Name << " " << Name << " seed " << Seed << " def "
              << V.Def << " q " << Q;
        }
      }
    }
  }
}

/// Definition-4/5 invariants of the precomputed sets themselves, checked on
/// random graphs against brute-force references that share no code with
/// the engine.
TEST_P(LiveCheckProperty, PrecomputedSetInvariants) {
  const Config &C = GetParam();
  for (std::uint64_t Seed = 0; Seed != std::min(C.Seeds, 8u); ++Seed) {
    RandomEngine Rng(Seed * 104729 + 7);
    CFGGenOptions Opts;
    Opts.TargetBlocks = C.MinBlocks + Rng.nextBelow(C.MaxBlocks -
                                                    C.MinBlocks + 1);
    Opts.GotoEdges = C.GotoEdges;
    CFG G = generateCFG(Opts, Rng);
    DFS D(G);
    DomTree DT(G, D);
    LiveCheck Propagated(G, D, DT);
    const BoolMatrix R = bruteReducedReach(G, D);
    const BoolMatrix T = bruteTargetSets(G, D, R);

    for (unsigned V = 0; V != G.numNodes(); ++V) {
      // v ∈ R_v and v ∈ T_v.
      EXPECT_TRUE(Propagated.isReducedReachable(V, V));
      EXPECT_TRUE(Propagated.isInT(V, V));
      for (unsigned W = 0; W != G.numNodes(); ++W) {
        EXPECT_EQ(Propagated.isReducedReachable(V, W), bool(R[V][W]))
            << "R_" << V << " vs Definition 4 at " << W << ", seed "
            << Seed;
        // Propagated sets are Definition 5 plus extra members only.
        if (T[V][W]) {
          EXPECT_TRUE(Propagated.isInT(V, W))
              << "propagated must be a superset of Definition 5: T_" << V
              << " lacks " << W << ", seed " << Seed;
        }
        // Every T member other than the node itself is a back-edge target.
        if (W != V && Propagated.isInT(V, W)) {
          EXPECT_TRUE(D.isBackEdgeTarget(W)) << "seed " << Seed;
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, LiveCheckProperty,
    ::testing::Values(Config{"TinyReducible", 2, 8, 0, 40},
                      Config{"SmallReducible", 8, 24, 0, 25},
                      Config{"MediumReducible", 24, 64, 0, 10},
                      Config{"TinyIrreducible", 3, 10, 2, 40},
                      Config{"SmallIrreducible", 8, 24, 3, 25},
                      Config{"MediumIrreducible", 24, 64, 5, 10},
                      Config{"LargeMixed", 64, 128, 3, 4}),
    [](const auto &Info) { return Info.param.Name; });
