//===- tests/pipeline/AnalysisManagerTest.cpp -----------------------------===//
//
// Part of the ssalive project, released under the MIT license.
//
//===----------------------------------------------------------------------===//
//
// The epoch-keyed analysis cache: repeated lookups hit, structural edits
// (edge insert/remove, block creation) invalidate exactly the edited
// function, and instruction/value edits invalidate nothing — the paper's
// Section 7 stability property enforced by the system.
//
//===----------------------------------------------------------------------===//

#include "pipeline/AnalysisManager.h"

#include "TestUtil.h"
#include "core/UseInfo.h"
#include "ir/IRBuilder.h"

#include <gtest/gtest.h>

using namespace ssalive;
using namespace ssalive::testutil;

namespace {

/// b0: %v = param; branch %c, b1, b2
/// b1: opaque %v; ret        (the only use of %v)
/// b2: ret
struct DiamondFixture {
  std::unique_ptr<Function> F;
  Value *V = nullptr;
  BasicBlock *B0 = nullptr, *B1 = nullptr, *B2 = nullptr;

  DiamondFixture() : F(std::make_unique<Function>("diamond")) {
    IRBuilder B(*F);
    B0 = F->createBlock("b0");
    B1 = F->createBlock("b1");
    B2 = F->createBlock("b2");
    B.setInsertBlock(B0);
    V = B.createParam(0, "v");
    Value *C = B.createParam(1, "c");
    B.createBranch(C, B1, B2);
    B.setInsertBlock(B1);
    B.createOpaque({V});
    B.createRetVoid();
    B.setInsertBlock(B2);
    B.createRetVoid();
  }
};

} // namespace

TEST(AnalysisManager, RepeatedGetHitsCache) {
  DiamondFixture Fix;
  AnalysisManager AM;
  FunctionAnalyses &First = AM.get(*Fix.F);
  const LiveCheck &Engine = First.liveCheck();
  FunctionAnalyses &Second = AM.get(*Fix.F);
  EXPECT_EQ(&First, &Second) << "same epoch must reuse the entry";
  EXPECT_EQ(&Engine, &Second.liveCheck());
  AnalysisManager::CacheCounters C = AM.counters();
  EXPECT_EQ(C.Misses, 1u);
  EXPECT_EQ(C.Hits, 1u);
  EXPECT_EQ(C.Invalidations, 0u);
  EXPECT_EQ(AM.numCachedFunctions(), 1u);
}

TEST(AnalysisManager, DistinctFunctionsGetDistinctEntries) {
  DiamondFixture A, B;
  AnalysisManager AM;
  EXPECT_NE(&AM.get(*A.F), &AM.get(*B.F));
  EXPECT_EQ(AM.numCachedFunctions(), 2u);
  EXPECT_EQ(AM.counters().Misses, 2u);
}

TEST(AnalysisManager, EdgeInsertInvalidatesAndChangesAnswers) {
  DiamondFixture Fix;
  AnalysisManager AM;
  std::vector<unsigned> Uses{Fix.B1->id()};
  const LiveCheck &Before = AM.get(*Fix.F).liveCheck();
  EXPECT_FALSE(Before.isLiveIn(Fix.B0->id(), Fix.B2->id(), Uses))
      << "no path from b2 to the use yet";

  // Structural edit: new edge b2 -> b1. The manager must rebuild and the
  // rebuilt engine must see the new path.
  std::uint64_t EpochBefore = Fix.F->cfgVersion();
  Fix.B2->addSuccessor(Fix.B1);
  EXPECT_GT(Fix.F->cfgVersion(), EpochBefore);

  const LiveCheck &After = AM.get(*Fix.F).liveCheck();
  AnalysisManager::CacheCounters C = AM.counters();
  EXPECT_EQ(C.Invalidations, 1u);
  EXPECT_EQ(C.Misses, 1u);
  EXPECT_TRUE(After.isLiveIn(Fix.B0->id(), Fix.B2->id(), Uses))
      << "b2 now reaches the use in b1";
}

TEST(AnalysisManager, EdgeRemoveInvalidatesAndRestoresAnswers) {
  DiamondFixture Fix;
  AnalysisManager AM;
  std::vector<unsigned> Uses{Fix.B1->id()};
  Fix.B2->addSuccessor(Fix.B1);
  EXPECT_TRUE(
      AM.get(*Fix.F).liveCheck().isLiveIn(Fix.B0->id(), Fix.B2->id(), Uses));

  std::uint64_t EpochBefore = Fix.F->cfgVersion();
  Fix.B2->removeSuccessor(Fix.B1);
  EXPECT_GT(Fix.F->cfgVersion(), EpochBefore);
  EXPECT_FALSE(
      AM.get(*Fix.F).liveCheck().isLiveIn(Fix.B0->id(), Fix.B2->id(), Uses));
  EXPECT_EQ(AM.counters().Invalidations, 1u);
}

TEST(AnalysisManager, RemoveSuccessorDropsPhiOperand) {
  // b0 branches to b1/b2, both jump to b3 which merges through a φ.
  auto F = std::make_unique<Function>("phimerge");
  IRBuilder B(*F);
  BasicBlock *B0 = F->createBlock("b0");
  BasicBlock *B1 = F->createBlock("b1");
  BasicBlock *B2 = F->createBlock("b2");
  BasicBlock *B3 = F->createBlock("b3");
  B.setInsertBlock(B0);
  Value *C = B.createParam(0, "c");
  B.createBranch(C, B1, B2);
  B.setInsertBlock(B1);
  Value *X = B.createConst(1, "x");
  B.createJump(B3);
  B.setInsertBlock(B2);
  Value *Y = B.createConst(2, "y");
  B.createJump(B3);
  B.setInsertBlock(B3);
  Value *Merged = B.createPhi({X, Y}, "m");
  B.createRet(Merged);

  Instruction *Phi = Merged->ssaDef();
  ASSERT_EQ(Phi->numOperands(), 2u);
  unsigned B2Index = B3->predecessorIndex(B2);
  Value *Removed = Phi->operand(B2Index);
  Value *Kept = Phi->operand(1 - B2Index);
  B2->removeSuccessor(B3);
  ASSERT_EQ(Phi->numOperands(), 1u);
  EXPECT_EQ(Phi->operand(0), Kept)
      << "the operand of the removed predecessor must go away";
  EXPECT_EQ(B3->numPredecessors(), 1u);
  EXPECT_FALSE(Removed->hasUses());
  EXPECT_TRUE(Kept->hasUses());
  (void)X;
  (void)Y;
}

TEST(AnalysisManager, InstructionEditsDoNotInvalidate) {
  DiamondFixture Fix;
  AnalysisManager AM;
  FunctionAnalyses &Entry = AM.get(*Fix.F);
  const LiveCheck &Engine = Entry.liveCheck();
  std::uint64_t EpochBefore = Fix.F->cfgVersion();

  // Non-structural edits: a new value, a new instruction using %v in b2,
  // then erasing it again. None of these may touch the epoch or the cache.
  Value *W = Fix.F->createValue("w");
  Instruction *Copy = Fix.B2->insertBeforeTerminator(
      std::make_unique<Instruction>(Opcode::Copy, W, std::vector<Value *>{
                                                         Fix.V}));
  EXPECT_EQ(Fix.F->cfgVersion(), EpochBefore);
  EXPECT_EQ(&AM.get(*Fix.F), &Entry);
  EXPECT_EQ(&AM.get(*Fix.F).liveCheck(), &Engine)
      << "Section 7: instruction edits keep the precomputation valid";

  // The cached engine answers the *new* use correctly without a rebuild,
  // because uses enter a query from the def-use chain at query time.
  std::vector<unsigned> Uses;
  appendLiveUseBlocks(*Fix.V, Uses);
  EXPECT_TRUE(Engine.isLiveIn(Fix.B0->id(), Fix.B2->id(), Uses));

  Fix.B2->erase(Copy);
  EXPECT_EQ(Fix.F->cfgVersion(), EpochBefore);
  EXPECT_EQ(&AM.get(*Fix.F), &Entry);
  EXPECT_EQ(AM.counters().Invalidations, 0u);
}

TEST(AnalysisManager, BlockCreationInvalidates) {
  DiamondFixture Fix;
  AnalysisManager AM;
  FunctionAnalyses &Entry = AM.get(*Fix.F);
  Fix.F->createBlock("late");
  EXPECT_NE(&AM.get(*Fix.F), &Entry);
  EXPECT_EQ(AM.counters().Invalidations, 1u);
}

TEST(AnalysisManager, ExplicitInvalidateAndClear) {
  DiamondFixture Fix;
  AnalysisManager AM;
  AM.get(*Fix.F);
  AM.invalidate(*Fix.F);
  EXPECT_EQ(AM.numCachedFunctions(), 0u);
  AM.get(*Fix.F);
  AM.clear();
  EXPECT_EQ(AM.numCachedFunctions(), 0u);
  EXPECT_EQ(AM.counters().Misses, 2u);
}

TEST(AnalysisManager, LazyAnalysesShareStructures) {
  auto F = randomSSAFunction(0xA11CE, {});
  AnalysisManager AM;
  FunctionAnalyses &Entry = AM.get(*F);
  // The accessors are independent entry points into one shared build chain.
  const DomTree &DT = Entry.domTree();
  const LiveCheck &Engine = Entry.liveCheck();
  EXPECT_EQ(DT.numNodes(), F->numBlocks());
  (void)Engine;
  EXPECT_EQ(&Entry.dfs(), &Entry.dfs());
}
