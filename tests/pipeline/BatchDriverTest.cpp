//===- tests/pipeline/BatchDriverTest.cpp ---------------------------------===//
//
// Part of the ssalive project, released under the MIT license.
//
//===----------------------------------------------------------------------===//
//
// The module-level batch driver: N-thread execution must produce answers
// byte-identical to the single-threaded run (queries are read-only against
// shared engines; every answer has its own slot), every backend must agree
// with every other, and the analysis cache must amortize across runs. The
// LiveCheck backend validates prepared-cache entries on read and defers
// stale ones to the calling thread; its answers must match the 1-thread
// dataflow baseline and its cache counters a sequential ensure() pass.
//
//===----------------------------------------------------------------------===//

#include "pipeline/BatchLivenessDriver.h"

#include "core/PreparedCache.h"
#include "support/RandomEngine.h"
#include "support/Telemetry.h"
#include "workload/CFGMutator.h"

#include "TestUtil.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

using namespace ssalive;
using namespace ssalive::testutil;

namespace {

struct Module {
  std::vector<std::unique_ptr<Function>> Owned;
  std::vector<const Function *> Funcs;

  explicit Module(unsigned Count, std::uint64_t Seed = 0xD00D) {
    for (unsigned I = 0; I != Count; ++I) {
      RandomFunctionConfig Cfg;
      Cfg.TargetBlocks = 12 + 4 * (I % 5);
      // A couple of goto-edge functions so irreducible CFGs are covered.
      if (I % 7 == 3)
        Cfg.GotoEdges = 3;
      Owned.push_back(randomSSAFunction(Seed + I, Cfg));
      Funcs.push_back(Owned.back().get());
    }
  }
};

} // namespace

TEST(BatchDriver, MultiThreadMatchesSingleThreadByteForByte) {
  Module M(10);
  std::vector<BatchQuery> Workload =
      BatchLivenessDriver::generateWorkload(M.Funcs, 0xBEEF, 20000);
  ASSERT_FALSE(Workload.empty());

  BatchOptions Single;
  Single.Threads = 1;
  BatchResult Reference = BatchLivenessDriver(M.Funcs, Single).run(Workload);
  ASSERT_EQ(Reference.Answers.size(), Workload.size());

  for (unsigned Threads : {2u, 4u, 8u}) {
    BatchOptions Opts;
    Opts.Threads = Threads;
    BatchLivenessDriver Driver(M.Funcs, Opts);
    EXPECT_EQ(Driver.numThreads(), Threads);
    BatchResult R = Driver.run(Workload);
    EXPECT_EQ(R.Answers, Reference.Answers)
        << Threads << "-thread answers diverge from the 1-thread oracle";
    EXPECT_EQ(R.checksum(), Reference.checksum());
  }
}

TEST(BatchDriver, AllBackendsAgree) {
  Module M(6, 0xCAFE);
  std::vector<BatchQuery> Workload =
      BatchLivenessDriver::generateWorkload(M.Funcs, 0x5EED, 6000);
  ASSERT_FALSE(Workload.empty());

  std::vector<std::uint8_t> Reference;
  for (BatchBackend B : AllBatchBackends) {
    BatchOptions Opts;
    Opts.Backend = B;
    Opts.Threads = 4;
    BatchResult R = BatchLivenessDriver(M.Funcs, Opts).run(Workload);
    if (Reference.empty())
      Reference = R.Answers;
    else
      EXPECT_EQ(R.Answers, Reference)
          << "backend " << batchBackendName(B) << " disagrees";
  }
}

TEST(BatchDriver, SecondRunIsCacheWarm) {
  Module M(5);
  std::vector<BatchQuery> Workload =
      BatchLivenessDriver::generateWorkload(M.Funcs, 1, 2000);
  BatchOptions Opts;
  Opts.Threads = 2;
  BatchLivenessDriver Driver(M.Funcs, Opts);
  BatchResult Cold = Driver.run(Workload);
  AnalysisManager::CacheCounters AfterCold =
      Driver.analysisManager().counters();
  EXPECT_EQ(AfterCold.Misses, M.Funcs.size());
  EXPECT_EQ(AfterCold.Invalidations, 0u);

  BatchResult Warm = Driver.run(Workload);
  AnalysisManager::CacheCounters AfterWarm =
      Driver.analysisManager().counters();
  EXPECT_EQ(AfterWarm.Misses, M.Funcs.size())
      << "nothing changed, nothing may rebuild";
  EXPECT_EQ(AfterWarm.Invalidations, 0u);
  EXPECT_GT(AfterWarm.Hits, AfterCold.Hits);
  EXPECT_EQ(Warm.Answers, Cold.Answers);
}

TEST(BatchDriver, CfgEditBetweenRunsIsPickedUp) {
  Module M(3);
  std::vector<BatchQuery> Workload =
      BatchLivenessDriver::generateWorkload(M.Funcs, 2, 1000);
  BatchOptions Opts;
  Opts.Threads = 2;
  BatchLivenessDriver Driver(M.Funcs, Opts);
  Driver.run(Workload);

  // Structural edit on one function: exactly one entry rebuilds. Insert a
  // fresh edge (removal could disconnect nodes from the entry, which the
  // analyses reject by contract).
  Function &Edited = *M.Owned[1];
  BasicBlock *From = Edited.block(Edited.numBlocks() - 1);
  BasicBlock *To = nullptr;
  for (unsigned I = 0; I != Edited.numBlocks() && !To; ++I) {
    BasicBlock *Cand = Edited.block(I);
    const auto &Succs = From->successors();
    if (std::find(Succs.begin(), Succs.end(), Cand) == Succs.end())
      To = Cand;
  }
  ASSERT_NE(To, nullptr);
  From->addSuccessor(To);
  Driver.run(Workload);
  EXPECT_EQ(Driver.analysisManager().counters().Invalidations, 1u);
}

TEST(BatchDriver, PerThreadStatsCoverTheWholeWorkload) {
  Module M(4);
  std::vector<BatchQuery> Workload =
      BatchLivenessDriver::generateWorkload(M.Funcs, 3, 5000);

  // Under the stealing default the per-worker distribution depends on
  // timing, but the totals must cover the workload exactly: each chunk is
  // claimed by exactly one worker, and every query hits the engine exactly
  // once (the generator never draws no-use/no-def values).
  BatchOptions Opts;
  Opts.Threads = 4;
  BatchLivenessDriver Driver(M.Funcs, Opts);
  BatchResult R = Driver.run(Workload);
  ASSERT_EQ(R.PerThread.size(), 4u);
  std::uint64_t EngineQueries = 0, Chunks = 0;
  for (const BatchThreadStats &S : R.PerThread) {
    EngineQueries += S.Engine.LiveInQueries + S.Engine.LiveOutQueries;
    Chunks += S.ChunksClaimed;
    EXPECT_LE(S.ChunksStolen, S.ChunksClaimed);
  }
  EXPECT_EQ(EngineQueries, std::uint64_t(Workload.size()));
  // Adaptive chunking: 5000 queries / (4 workers * 8) clamps to the
  // 256-query floor, so the chunk count is the exact ceiling division.
  EXPECT_EQ(Chunks, (Workload.size() + 255) / 256)
      << "every chunk must be claimed exactly once";
  LiveCheckStats Total = R.totalEngineStats();
  EXPECT_EQ(Total.LiveInQueries + Total.LiveOutQueries,
            std::uint64_t(Workload.size()))
      << "only no-use/no-def values skip the engine, and the generator "
         "never draws those";
}

TEST(BatchDriver, ThreadCountsAreByteIdenticalToTheDataflowOracle) {
  // The scheduler-equivalence suite: a skewed workload (hot values
  // repeated across many chunks) and a uniform one, answered by the
  // LiveCheck backend at 1 and N threads — all byte-identical to the
  // 1-thread dataflow baseline, which shares no engine, cache or repair
  // code with it. The adaptive chunk
  // rule gives 33 chunks over 4 queues for both the 9000- and the
  // 18000-query workload, so steals actually happen; this suite runs under
  // TSan in CI, so the atomic chunk-cursor claiming is race-checked here,
  // not just argued.
  Module M(6, 0x5C4ED);
  std::vector<BatchQuery> Uniform =
      BatchLivenessDriver::generateWorkload(M.Funcs, 0xD1CE, 9000);
  ASSERT_FALSE(Uniform.empty());

  // Skew: replay a handful of hot queries many times, then deterministic
  // Fisher-Yates so the repeats are scattered over every chunk.
  std::vector<BatchQuery> Skewed = Uniform;
  for (unsigned I = 0; I != 9000; ++I)
    Skewed.push_back(Uniform[I % 11]);
  RandomEngine Shuffle(0x5381);
  for (std::size_t I = Skewed.size(); I > 1; --I)
    std::swap(Skewed[I - 1], Skewed[Shuffle.nextBelow(unsigned(I))]);

  for (const std::vector<BatchQuery> *Workload : {&Uniform, &Skewed}) {
    BatchOptions Ref;
    Ref.Backend = BatchBackend::Dataflow;
    Ref.Threads = 1;
    BatchResult Oracle = BatchLivenessDriver(M.Funcs, Ref).run(*Workload);
    ASSERT_EQ(Oracle.Answers.size(), Workload->size());

    for (unsigned Threads : {1u, 4u}) {
      BatchOptions Opts;
      Opts.Threads = Threads;
      BatchResult R = BatchLivenessDriver(M.Funcs, Opts).run(*Workload);
      EXPECT_EQ(R.Answers, Oracle.Answers)
          << Threads << " threads diverges from the 1-thread dataflow "
          << "oracle";
    }
  }

  // The baselines ride the same work-stealing scheduler; pin them on the
  // skewed workload too.
  for (BatchBackend B :
       {BatchBackend::Dataflow, BatchBackend::PathExploration}) {
    BatchOptions Ref;
    Ref.Backend = B;
    Ref.Threads = 1;
    BatchResult Oracle = BatchLivenessDriver(M.Funcs, Ref).run(Skewed);
    BatchOptions Opts;
    Opts.Backend = B;
    Opts.Threads = 4;
    BatchResult R = BatchLivenessDriver(M.Funcs, Opts).run(Skewed);
    EXPECT_EQ(R.Answers, Oracle.Answers)
        << "backend " << batchBackendName(B)
        << " diverges under stealing from its 1-thread run";
  }
}

TEST(BatchDriver, DeferredMissesAfterARenumberingEditMatchTheOracle) {
  // A 4-thread batch after an in-place refresh: the edited
  // function's entries are stale under the new preorder, so its queries
  // are deferred by the workers and answered by the calling thread, while
  // every other function's queries are read concurrently. This runs under
  // TSan in CI.
  Module M(8, 0xDEFE);
  std::vector<BatchQuery> Workload =
      BatchLivenessDriver::generateWorkload(M.Funcs, 0x5EA5, 20000);
  ASSERT_EQ(Workload.size(), 20000u);
  BatchOptions Opts;
  Opts.Threads = 4;
  BatchLivenessDriver Driver(M.Funcs, Opts);
  (void)Driver.run(Workload);

  // Reference caches over the same analyses, filled by one sequential
  // ensure() pass per run over the queries the driver answers through the
  // cache (an edit can strip a value's last use; such queries are dead
  // without a lookup).
  AnalysisManager &AM = Driver.analysisManager();
  std::vector<std::unique_ptr<PreparedCache>> Ref;
  for (const Function *F : M.Funcs) {
    FunctionAnalyses &FA = AM.get(*F);
    Ref.push_back(std::make_unique<PreparedCache>(*F, FA.liveCheck(),
                                                  FA.domTree()));
    Ref.back()->sizeToFunction();
  }
  auto SequentialPass = [&] {
    for (const BatchQuery &Q : Workload) {
      const Value &V = *M.Funcs[Q.FuncIndex]->value(Q.ValueId);
      if (V.hasSingleDef() && V.hasUses())
        Ref[Q.FuncIndex]->ensure(V);
    }
  };
  SequentialPass();

  // Edit function 2 until its dominance preorder shifts, refreshing the
  // analyses in place after every edit (the server's CFG-edit path).
  Function &Edited = *M.Owned[2];
  FunctionAnalyses &FA = AM.get(Edited);
  std::vector<unsigned> NumsBefore;
  for (unsigned B = 0; B != Edited.numBlocks(); ++B)
    NumsBefore.push_back(FA.domTree().num(B));
  RandomEngine Rng(0xED17);
  // The dataflow oracle below agrees with LiveCheck only on strict SSA.
  CFGMutatorOptions MOpts;
  MOpts.PreserveStrictSSA = true;
  bool Renumbered = false;
  for (unsigned Try = 0; Try != 20 && !Renumbered; ++Try) {
    if (!mutateFunctionCFG(Edited, Rng, MOpts))
      continue;
    ASSERT_EQ(&AM.refresh(Edited), &FA) << "refresh must repair in place";
    for (unsigned B = 0; B != NumsBefore.size(); ++B)
      Renumbered |= FA.domTree().num(B) != NumsBefore[B];
  }
  ASSERT_TRUE(Renumbered) << "no edit shifted the preorder";

  BatchResult R = Driver.run(Workload);
  SequentialPass();

  BatchOptions OracleOpts;
  OracleOpts.Backend = BatchBackend::Dataflow;
  OracleOpts.Threads = 1;
  BatchResult Oracle = BatchLivenessDriver(M.Funcs, OracleOpts).run(Workload);
  EXPECT_EQ(R.Answers, Oracle.Answers)
      << "4-thread answers diverge from the 1-thread dataflow oracle "
         "after the edit";

  std::uint64_t EditedDrops = 0;
  for (std::size_t FI = 0; FI != M.Funcs.size(); ++FI) {
    SCOPED_TRACE("function " + std::to_string(FI));
    ASSERT_NE(Driver.preparedCache(FI), nullptr);
    PreparedCacheStats Got = Driver.preparedCache(FI)->stats();
    PreparedCacheStats Want = Ref[FI]->stats();
    EXPECT_EQ(Got.Hits, Want.Hits);
    EXPECT_EQ(Got.Builds, Want.Builds);
    EXPECT_EQ(Got.Rebuilds, Want.Rebuilds);
    EXPECT_EQ(Got.EpochDrops, Want.EpochDrops);
    if (FI == 2)
      EditedDrops = Got.EpochDrops;
    else
      EXPECT_EQ(Got.EpochDrops, 0u) << "only the edited function drops";
  }
  EXPECT_GT(EditedDrops, 0u) << "the edit must drop prepared entries";
}

TEST(BatchDriver, WarmSmallBatchStaysOnTheCallingThread) {
  // A warm batch of at most one maximal chunk (4,096 queries) submits no
  // pool task and answers exactly like the same queries inside a larger
  // batch that fans out.
  Module M(6, 0x1A1E);
  std::vector<BatchQuery> Large =
      BatchLivenessDriver::generateWorkload(M.Funcs, 0x5A11, 12000);
  ASSERT_EQ(Large.size(), 12000u);
  std::vector<BatchQuery> Small(Large.begin(), Large.begin() + 4096);

  BatchOptions Opts;
  Opts.Threads = 4;
  BatchLivenessDriver Driver(M.Funcs, Opts);
  BatchResult Fanned = Driver.run(Large);
  ASSERT_GT(Fanned.PerThread.size(), 1u);

  const telemetry::Registry &Reg = telemetry::Registry::global();
  std::uint64_t Before = Reg.value("ssalive_pool_tasks_total");
  BatchResult Inline = Driver.run(Small);
  EXPECT_EQ(Reg.value("ssalive_pool_tasks_total"), Before)
      << "a warm small batch must not reach the pool";
  EXPECT_EQ(Inline.Answers,
            std::vector<std::uint8_t>(Fanned.Answers.begin(),
                                      Fanned.Answers.begin() + 4096));
  EXPECT_EQ(Inline.PerThread[0].ChunksClaimed, 1u);
  LiveCheckStats Engine = Inline.totalEngineStats();
  EXPECT_EQ(Engine.LiveInQueries + Engine.LiveOutQueries, Small.size());
}

TEST(BatchDriver, WorkloadGenerationIsDeterministic) {
  Module M(4);
  auto A = BatchLivenessDriver::generateWorkload(M.Funcs, 77, 500);
  auto B = BatchLivenessDriver::generateWorkload(M.Funcs, 77, 500);
  ASSERT_EQ(A.size(), B.size());
  for (std::size_t I = 0; I != A.size(); ++I) {
    EXPECT_EQ(A[I].FuncIndex, B[I].FuncIndex);
    EXPECT_EQ(A[I].ValueId, B[I].ValueId);
    EXPECT_EQ(A[I].BlockId, B[I].BlockId);
    EXPECT_EQ(A[I].IsLiveOut, B[I].IsLiveOut);
  }
}
