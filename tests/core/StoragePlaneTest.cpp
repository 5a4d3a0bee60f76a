//===- tests/core/StoragePlaneTest.cpp ------------------------------------===//
//
// Part of the ssalive project, released under the MIT license.
//
//===----------------------------------------------------------------------===//
//
// The query-plane contract of LiveCheck: the arena engine under both T
// modes and the subtree-skip / fast-path ablations must answer every query
// identically through every entry point — the block-id wrappers, prepared
// variables backed by a use span (sorted or raw: any order, duplicates
// allowed) or a use mask, each asked at every block — and all of them
// must match the brute-force oracle on random reducible and
// irreducible CFGs.
//
//===----------------------------------------------------------------------===//

#include "core/LiveCheck.h"

#include "TestUtil.h"
#include "liveness/LivenessOracle.h"
#include "workload/CFGGenerator.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <utility>
#include <vector>

using namespace ssalive;
using namespace ssalive::testutil;

namespace {

struct SyntheticVar {
  unsigned Def;
  std::vector<unsigned> Uses; ///< Block ids, duplicates possible.
};

std::vector<SyntheticVar> placeVariables(const CFG &G, const DomTree &DT,
                                         RandomEngine &Rng, unsigned Count) {
  std::vector<SyntheticVar> Vars;
  unsigned N = G.numNodes();
  for (unsigned I = 0; I != Count; ++I) {
    SyntheticVar V;
    V.Def = Rng.nextBelow(N);
    unsigned Lo = DT.num(V.Def), Hi = DT.maxnum(V.Def);
    // Mix small and large use sets so both the span and the mask paths of
    // the prepared plane get exercised (the mask threshold in
    // FunctionLiveness is ~max(8, N/64)).
    unsigned NumUses = 1 + Rng.nextBelow(I % 3 == 0 ? 12 : 3);
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

class StoragePlane : public ::testing::TestWithParam<Config> {};

} // namespace

TEST_P(StoragePlane, AllBackendsAllEntryPointsMatchOracle) {
  const Config &C = GetParam();
  for (std::uint64_t Seed = 0; Seed != C.Seeds; ++Seed) {
    RandomEngine Rng(Seed * 52361 + 19);
    CFGGenOptions Opts;
    Opts.TargetBlocks =
        C.MinBlocks + Rng.nextBelow(C.MaxBlocks - C.MinBlocks + 1);
    Opts.GotoEdges = C.GotoEdges;
    CFG G = generateCFG(Opts, Rng);
    DFS D(G);
    DomTree DT(G, D);
    unsigned N = G.numNodes();

    // The default engine and the subtree-skip ablation.
    std::vector<std::unique_ptr<LiveCheck>> Engines;
    for (LiveCheckOptions EOpts :
         {LiveCheckOptions{}, LiveCheckOptions{.SubtreeSkip = false}})
      Engines.push_back(std::make_unique<LiveCheck>(G, D, DT, EOpts));

    auto Vars = placeVariables(G, DT, Rng, 10);
    BitVector Mask(N);
    for (const SyntheticVar &V : Vars) {
      // The prepared-plane inputs. RawNums keeps the translation order
      // (with duplicates) — the span contract allows any order — while
      // Nums is the sorted/deduped form a batching caller would prepare.
      std::vector<unsigned> RawNums = V.Uses;
      for (unsigned &U : RawNums)
        U = DT.num(U);
      RawNums.push_back(RawNums.front()); // At least one duplicate.
      std::vector<unsigned> Nums = RawNums;
      std::sort(Nums.begin(), Nums.end());
      Nums.erase(std::unique(Nums.begin(), Nums.end()), Nums.end());
      Mask.reset();
      for (unsigned U : Nums)
        Mask.set(U);
      std::vector<bool> WantIn(N), WantOut(N);
      for (unsigned Q = 0; Q != N; ++Q) {
        WantIn[Q] = LivenessOracle::liveInSearch(G, V.Def, V.Uses, Q);
        WantOut[Q] = LivenessOracle::liveOutSearch(G, V.Def, V.Uses, Q);
      }

      for (const auto &E : Engines) {
        LiveCheck::PreparedVar PVSpan;
        E->prepareDef(V.Def, PVSpan);
        PVSpan.NumsBegin = Nums.data();
        PVSpan.NumsEnd = Nums.data() + Nums.size();
        LiveCheck::PreparedVar PVRaw = PVSpan;
        PVRaw.NumsBegin = RawNums.data();
        PVRaw.NumsEnd = RawNums.data() + RawNums.size();
        LiveCheck::PreparedVar PVMask = PVSpan;
        PVMask.setMask(Mask);

        auto Ctx = [&](unsigned Q, const char *Entry) {
          return ::testing::Message()
                 << C.Name << " seed " << Seed << " def " << V.Def << " q "
                 << Q << " entry " << Entry << " skip "
                 << E->options().SubtreeSkip;
        };
        for (unsigned Q = 0; Q != N; ++Q) {
          EXPECT_EQ(E->isLiveIn(V.Def, Q, V.Uses), WantIn[Q])
              << Ctx(Q, "blocks");
          EXPECT_EQ(E->isLiveOut(V.Def, Q, V.Uses), WantOut[Q])
              << Ctx(Q, "blocks");
          EXPECT_EQ(E->isLiveInPrepared(PVSpan, Q), WantIn[Q])
              << Ctx(Q, "prepared-span");
          EXPECT_EQ(E->isLiveOutPrepared(PVSpan, Q), WantOut[Q])
              << Ctx(Q, "prepared-span");
          EXPECT_EQ(E->isLiveInPrepared(PVRaw, Q), WantIn[Q])
              << Ctx(Q, "prepared-raw-span");
          EXPECT_EQ(E->isLiveOutPrepared(PVRaw, Q), WantOut[Q])
              << Ctx(Q, "prepared-raw-span");
          EXPECT_EQ(E->isLiveInPrepared(PVMask, Q), WantIn[Q])
              << Ctx(Q, "prepared-mask");
          EXPECT_EQ(E->isLiveOutPrepared(PVMask, Q), WantOut[Q])
              << Ctx(Q, "prepared-mask");
        }
      }
    }
  }
}

TEST(StoragePlane, MemoryAccountingIsArenaPlusSideTables) {
  // A non-incremental engine holds the two packed N x N matrices and the
  // O(N) side tables, nothing else — the update-only state its compute
  // pass used is released, outer buffers included: memoryBytes() must
  // equal that analytic size exactly. The incremental engine additionally
  // retains its update snapshot, which the accounting must show.
  RandomEngine Rng(99);
  CFGGenOptions Opts;
  Opts.TargetBlocks = 200;
  CFG G = generateCFG(Opts, Rng);
  DFS D(G);
  DomTree DT(G, D);
  unsigned N = G.numNodes();
  std::size_t RowWords = (N + 63) / 64;
  std::size_t Analytic = 2 * std::size_t(N) * RowWords * 8 +
                         std::size_t(N) * (sizeof(unsigned) + 1) +
                         2 * sizeof(BitMatrix);
  LiveCheck Plain(G, D, DT);
  EXPECT_EQ(Plain.memoryBytes(), Analytic);
  LiveCheckOptions IncOpts;
  IncOpts.Incremental = true;
  LiveCheck Inc(G, D, DT, IncOpts);
  EXPECT_GT(Inc.memoryBytes(), Analytic);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, StoragePlane,
    ::testing::Values(Config{"TinyReducible", 2, 8, 0, 12},
                      Config{"SmallReducible", 8, 24, 0, 8},
                      Config{"MediumReducible", 24, 56, 0, 3},
                      Config{"TinyIrreducible", 3, 10, 2, 12},
                      Config{"SmallIrreducible", 8, 24, 3, 8},
                      Config{"MediumIrreducible", 24, 56, 5, 3}),
    [](const auto &Info) { return Info.param.Name; });
