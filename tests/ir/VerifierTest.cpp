//===- tests/ir/VerifierTest.cpp ------------------------------------------===//
//
// Part of the ssalive project, released under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "ir/Verifier.h"

#include "TestUtil.h"
#include "ir/IRBuilder.h"
#include "ir/IRParser.h"

#include <gtest/gtest.h>

#include <chrono>

using namespace ssalive;
using namespace ssalive::testutil;

static std::unique_ptr<Function> parseOk(const char *Text) {
  ParseResult R = parseFunction(Text);
  EXPECT_TRUE(R.Func) << R.Error;
  return std::move(R.Func);
}

TEST(Verifier, AcceptsWellFormedSSA) {
  auto F = parseOk(R"(
func @ok {
e:
  %a = param 0
  %c = const 1
  branch %a, l, r
l:
  %x = add %a, %c
  jump j
r:
  %y = sub %a, %c
  jump j
j:
  %m = phi [%x, l], [%y, r]
  ret %m
}
)");
  EXPECT_TRUE(verifyStructure(*F).ok());
  EXPECT_TRUE(verifySSA(*F).ok()) << verifySSA(*F).message();
}

TEST(Verifier, RejectsUseNotDominatedByDef) {
  // %x is defined only on the left path but used at the join.
  auto F = parseOk(R"(
func @bad {
e:
  %a = param 0
  branch %a, l, j
l:
  %x = const 1
  jump j
j:
  ret %x
}
)");
  EXPECT_TRUE(verifyStructure(*F).ok());
  VerifyResult R = verifySSA(*F);
  ASSERT_FALSE(R.ok());
  EXPECT_NE(R.message().find("not dominated"), std::string::npos);
}

TEST(Verifier, RejectsMultipleDefinitions) {
  auto F = parseOk(R"(
func @multi {
e:
  %x = const 1
  %x = const 2
  ret %x
}
)");
  VerifyResult R = verifySSA(*F);
  ASSERT_FALSE(R.ok());
  EXPECT_NE(R.message().find("multiple definitions"), std::string::npos);
}

TEST(Verifier, RejectsUseBeforeDefInBlock) {
  Function F("order");
  BasicBlock *E = F.createBlock();
  Value *X = F.createValue("x");
  // ret %x placed before %x = const 1 — build by hand since the parser
  // cannot express instructions after a terminator.
  E->append(std::make_unique<Instruction>(Opcode::Copy, F.createValue("y"),
                                          std::vector<Value *>{X}));
  E->append(std::make_unique<Instruction>(Opcode::Const, X,
                                          std::vector<Value *>{}, 1));
  E->append(std::make_unique<Instruction>(Opcode::Ret, nullptr,
                                          std::vector<Value *>{X}));
  VerifyResult R = verifySSA(F);
  ASSERT_FALSE(R.ok());
  EXPECT_NE(R.message().find("before its definition"), std::string::npos);
}

TEST(Verifier, RejectsPhiArityMismatch) {
  auto F = parseOk(R"(
func @phi {
e:
  %a = param 0
  branch %a, l, j
l:
  %x = const 1
  jump j
j:
  %m = phi [%x, l]
  ret %m
}
)");
  VerifyResult R = verifySSA(*F);
  ASSERT_FALSE(R.ok());
  EXPECT_NE(R.message().find("operands for"), std::string::npos);
}

TEST(Verifier, PhiUseCheckedAtPredecessorBlock) {
  // Definition 1: the phi operand from 'l' is a use at 'l', which %x's
  // definition in 'l' dominates — valid SSA even though 'l' does not
  // dominate the join.
  auto F = parseOk(R"(
func @phiuse {
e:
  %a = param 0
  branch %a, l, r
l:
  %x = const 1
  jump j
r:
  %y = const 2
  jump j
j:
  %m = phi [%x, l], [%y, r]
  ret %m
}
)");
  EXPECT_TRUE(verifySSA(*F).ok()) << verifySSA(*F).message();
}

TEST(Verifier, DetectsUnreachableBlock) {
  Function F("unreachable");
  BasicBlock *E = F.createBlock("e");
  BasicBlock *Dead = F.createBlock("dead");
  IRBuilder B(F);
  B.setInsertBlock(E);
  B.createRetVoid();
  B.setInsertBlock(Dead);
  B.createRetVoid();
  VerifyResult R = verifyStructure(F);
  ASSERT_FALSE(R.ok());
  EXPECT_NE(R.message().find("unreachable"), std::string::npos);
}

TEST(Verifier, DetectsMissingTerminator) {
  Function F("noterm");
  BasicBlock *E = F.createBlock("e");
  IRBuilder B(F);
  B.setInsertBlock(E);
  B.createConst(1);
  VerifyResult R = verifyStructure(F);
  ASSERT_FALSE(R.ok());
  EXPECT_NE(R.message().find("terminator"), std::string::npos);
}

/// Wall-clock seconds of one verifySSA call; \p Ok receives its verdict.
static double timeVerifySSA(const Function &F, bool &Ok, std::string &Msg) {
  auto Start = std::chrono::steady_clock::now();
  VerifyResult R = verifySSA(F);
  double Secs = std::chrono::duration<double>(
                    std::chrono::steady_clock::now() - Start)
                    .count();
  Ok = R.ok();
  Msg = R.message();
  return Secs;
}

TEST(Verifier, LongBlockChainIsVerifiedInNearLinearTime) {
  // A 20k-block straight-line chain: every block's dominator set is its
  // whole prefix, so any per-block dominator list is quadratic in memory
  // and time. Each block uses the entry's value and the previous block's.
  Function F("chain");
  IRBuilder B(F);
  B.setInsertBlock(F.createBlock("b0"));
  Value *A = B.createParam(0, "a");
  Value *Prev = A;
  for (unsigned I = 1; I != 20000; ++I) {
    BasicBlock *Next = F.createBlock("b" + std::to_string(I));
    B.createJump(Next);
    B.setInsertBlock(Next);
    Prev = B.createBinary(Opcode::Add, Prev, A);
  }
  B.createRet(Prev);
  bool Ok = false;
  std::string Msg;
  double Secs = timeVerifySSA(F, Ok, Msg);
  EXPECT_TRUE(Ok) << Msg;
  EXPECT_LT(Secs, 0.5) << "verifySSA took " << Secs << " s on 20k blocks";
}

TEST(Verifier, LongSingleBlockIsVerifiedInNearLinearTime) {
  // 40k instructions in one block, each using its predecessor: every use
  // is a same-block use, so per-use position scans are quadratic.
  Function F("flat");
  IRBuilder B(F);
  B.setInsertBlock(F.createBlock("e"));
  Value *C = B.createConst(1, "c");
  Value *Prev = C;
  for (unsigned I = 1; I != 40000; ++I)
    Prev = B.createBinary(Opcode::Add, Prev, C);
  B.createRet(Prev);
  bool Ok = false;
  std::string Msg;
  double Secs = timeVerifySSA(F, Ok, Msg);
  EXPECT_TRUE(Ok) << Msg;
  EXPECT_LT(Secs, 0.5) << "verifySSA took " << Secs
                       << " s on a 40k-instruction block";
}

TEST(NaiveDominators, MatchesHandComputedDiamond) {
  CFG G = makeCFG(4, {{0, 1}, {0, 2}, {1, 3}, {2, 3}});
  auto Doms = computeDominatorsNaive(G);
  EXPECT_EQ(Doms[0], (std::vector<unsigned>{0}));
  EXPECT_EQ(Doms[1], (std::vector<unsigned>{0, 1}));
  EXPECT_EQ(Doms[2], (std::vector<unsigned>{0, 2}));
  EXPECT_EQ(Doms[3], (std::vector<unsigned>{0, 3}));
}

TEST(NaiveDominators, LoopBody) {
  // 0 -> 1 -> 2 -> 1, 2 -> 3.
  CFG G = makeCFG(4, {{0, 1}, {1, 2}, {2, 1}, {2, 3}});
  auto Doms = computeDominatorsNaive(G);
  EXPECT_EQ(Doms[2], (std::vector<unsigned>{0, 1, 2}));
  EXPECT_EQ(Doms[3], (std::vector<unsigned>{0, 1, 2, 3}));
}
