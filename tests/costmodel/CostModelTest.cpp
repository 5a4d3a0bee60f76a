//===- tests/costmodel/CostModelTest.cpp ----------------------------------===//
//
// Part of the ssalive project, released under the MIT license.
//
//===----------------------------------------------------------------------===//
//
// The deterministic cost model. The paper's query cost is a count, not a
// time: a query visits the targets of T_q inside sdom(def) and runs an R_t
// membership test per use, and R/T cost n²/8 bytes each. For a fixed input
// those counts are exact, so this suite pins them on fixed seeds — scan
// work per ablation variant, the driver's engine counters at 1
// and 4 threads, resident bytes per size tier, prepared-cache hit/build/
// drop counts, incremental repair counts, and the pool fan-out of a warm
// driver run. Any change to the engine's work moves a pin; a change that
// moves one on purpose re-records it in the same diff and says why.
//
// The byte pins assume a 64-bit libstdc++ (struct sizes and its vector
// growth policy).
//
//===----------------------------------------------------------------------===//

#include "core/FunctionLiveness.h"
#include "core/PreparedCache.h"
#include "ir/Clone.h"
#include "pipeline/BatchLivenessDriver.h"
#include "ssa/SSADestruction.h"
#include "support/Telemetry.h"
#include "workload/CFGMutator.h"

#include "TestUtil.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

using namespace ssalive;
using namespace ssalive::testutil;

namespace {

constexpr unsigned Tiers[] = {32, 256, 1024};

std::unique_ptr<Function> tierFunction(unsigned Blocks,
                                       unsigned GotoEdges = 0) {
  RandomFunctionConfig Cfg;
  Cfg.TargetBlocks = Blocks;
  Cfg.GotoEdges = GotoEdges;
  return randomSSAFunction(0xC0570000ull + Blocks * 8 + GotoEdges, Cfg);
}

/// Each tier once reducible and once with goto edges (irreducible shapes,
/// where the Theorem-2 fast path stays off).
struct Module {
  std::vector<std::unique_ptr<Function>> Owned;
  std::vector<const Function *> Funcs;

  Module() {
    for (unsigned Gotos : {0u, 2u})
      for (unsigned Blocks : Tiers) {
        Owned.push_back(tierFunction(Blocks, Gotos));
        Funcs.push_back(Owned.back().get());
      }
  }
};

} // namespace

TEST(CostModel, ScanWorkPerAblationVariant) {
  // bench_ablation's variants over one fixed query stream: the
  // queries SSA destruction issues on every function of the module.
  struct Pin {
    const char *Name;
    LiveCheckOptions Opts;
    std::uint64_t Targets, UseTests;
  };
  const Pin Pins[] = {
      {"propagated+skip", {}, 5513, 25933},
      {"propagated-noskip", {.SubtreeSkip = false}, 119636, 583004},
  };
  const std::uint64_t PinnedQueries = 7195, PinnedLive = 1109;

  Module M;
  std::vector<std::vector<RecordedQuery>> Traces;
  std::uint64_t Queries = 0;
  for (const Function *F : M.Funcs) {
    auto Clone = cloneFunction(*F);
    FunctionLiveness Live(*Clone);
    DestructionOptions Opts;
    Opts.RecordTrace = true;
    Traces.push_back(destructSSA(*Clone, Live, Opts).Trace);
    Queries += Traces.back().size();
  }
  EXPECT_EQ(Queries, PinnedQueries);

  std::vector<std::uint8_t> Reference;
  for (const Pin &P : Pins) {
    LiveCheckStats Stats;
    std::vector<std::uint8_t> Answers;
    std::vector<unsigned> Uses;
    for (std::size_t I = 0; I != M.Funcs.size(); ++I) {
      const Function &F = *M.Funcs[I];
      CFG G = CFG::fromFunction(F);
      DFS D(G);
      DomTree DT(G, D);
      LiveCheck Engine(G, D, DT, P.Opts);
      for (const RecordedQuery &Q : Traces[I]) {
        const Value &V = *F.value(Q.ValueId);
        Uses.clear();
        appendLiveUseBlocks(V, Uses);
        Answers.push_back(
            Q.IsLiveOut
                ? Engine.isLiveOut(defBlockId(V), Q.BlockId, Uses, &Stats)
                : Engine.isLiveIn(defBlockId(V), Q.BlockId, Uses, &Stats));
      }
    }
    EXPECT_EQ(Stats.TargetsVisited, P.Targets) << P.Name;
    EXPECT_EQ(Stats.UseTests, P.UseTests) << P.Name;
    std::uint64_t Live = 0;
    for (std::uint8_t A : Answers)
      Live += A;
    EXPECT_EQ(Live, PinnedLive) << P.Name;
    if (Reference.empty())
      Reference = Answers;
    EXPECT_EQ(Answers, Reference) << P.Name << " answers differently";
  }
}

TEST(CostModel, ThreadCountsDoEqualWork) {
  // The query pass runs one scan per query over the same interval at any
  // thread count, so 1 and 4 threads visit the same targets, run the same
  // use tests (the prepared cache sorts and dedups each use span and masks
  // high-use-count values: one test per target) and give the same answers.
  const std::uint64_t PinnedIn = 25046, PinnedOut = 24954,
                      PinnedTargets = 21340, PinnedUseTests = 35031;
  const std::uint64_t PinnedChecksum = 0x2432290f00777eb5ull;

  Module M;
  std::vector<BatchQuery> Workload =
      BatchLivenessDriver::generateWorkload(M.Funcs, 0xC057, 50000);
  ASSERT_EQ(Workload.size(), 50000u);
  for (unsigned Threads : {1u, 4u}) {
    BatchOptions Opts;
    Opts.Threads = Threads;
    BatchResult R = BatchLivenessDriver(M.Funcs, Opts).run(Workload);
    LiveCheckStats S = R.totalEngineStats();
    SCOPED_TRACE(std::to_string(Threads) + " threads");
    EXPECT_EQ(S.LiveInQueries, PinnedIn);
    EXPECT_EQ(S.LiveOutQueries, PinnedOut);
    EXPECT_EQ(S.TargetsVisited, PinnedTargets);
    EXPECT_EQ(S.UseTests, PinnedUseTests);
    EXPECT_EQ(R.checksum(), PinnedChecksum);
  }
}

TEST(CostModel, ResidentBytesPerTier) {
  // LiveCheck::memoryBytes() with and without the incremental snapshot,
  // and PreparedCache::memoryBytes() after one pass over a random-order
  // stream of 4 queries per block.
  struct Pin {
    unsigned Blocks;
    std::size_t Engine, IncrementalEngine, Cache;
  };
  const Pin Pins[] = {
      {32, 710, 3558, 20432},
      {256, 17606, 42562, 164016},
      {1024, 266822, 393990, 660064},
  };
  for (const Pin &P : Pins) {
    auto F = tierFunction(P.Blocks);
    CFG G = CFG::fromFunction(*F);
    DFS D(G);
    DomTree DT(G, D);
    LiveCheck Engine(G, D, DT);
    LiveCheckOptions IncOpts;
    IncOpts.Incremental = true;
    LiveCheck IncEngine(G, D, DT, IncOpts);
    EXPECT_EQ(Engine.memoryBytes(), P.Engine) << P.Blocks << " blocks";
    EXPECT_EQ(IncEngine.memoryBytes(), P.IncrementalEngine)
        << P.Blocks << " blocks";

    PreparedCache Cache(*F, Engine, DT);
    Cache.sizeToFunction();
    for (const BatchQuery &Q : BatchLivenessDriver::generateWorkload(
             {F.get()}, 0xB17E5 + P.Blocks, 4 * P.Blocks))
      Cache.ensure(*F->value(Q.ValueId));
    EXPECT_EQ(Cache.memoryBytes(), P.Cache) << P.Blocks << " blocks";
  }
}

TEST(CostModel, PreparedCacheCountsFollowTheStream) {
  // Cold: one build per distinct value, a hit for every other query.
  // Warm: all hits. After a renumbering edit: one epoch drop per value
  // queried again, and no first-time builds.
  const std::size_t PinnedDistinct = 1188;

  auto F = tierFunction(256);
  AnalysisManager AM;
  FunctionAnalyses &FA = AM.get(*F);
  PreparedCache Cache(*F, FA.liveCheck(), FA.domTree());
  Cache.sizeToFunction();
  std::vector<BatchQuery> Stream =
      BatchLivenessDriver::generateWorkload({F.get()}, 0xCAC4E, 4096);
  std::set<std::uint32_t> Distinct;
  for (const BatchQuery &Q : Stream)
    Distinct.insert(Q.ValueId);
  const std::uint64_t N = Stream.size(), DV = Distinct.size();
  EXPECT_EQ(DV, PinnedDistinct);

  auto Pass = [&] {
    PreparedCacheStats Before = Cache.stats();
    for (const BatchQuery &Q : Stream)
      Cache.ensure(*F->value(Q.ValueId));
    PreparedCacheStats After = Cache.stats();
    return PreparedCacheStats{After.Hits - Before.Hits,
                              After.Builds - Before.Builds,
                              After.Rebuilds - Before.Rebuilds,
                              After.EpochDrops - Before.EpochDrops};
  };

  PreparedCacheStats Cold = Pass();
  EXPECT_EQ(Cold.Builds, DV);
  EXPECT_EQ(Cold.Hits, N - DV);
  EXPECT_EQ(Cold.Rebuilds, 0u);
  EXPECT_EQ(Cold.EpochDrops, 0u);

  PreparedCacheStats Warm = Pass();
  EXPECT_EQ(Warm.Hits, N);
  EXPECT_EQ(Warm.Builds, 0u);
  EXPECT_EQ(Warm.Rebuilds, 0u);
  EXPECT_EQ(Warm.EpochDrops, 0u);

  // One edit that shifts the dominance preorder, repaired in place.
  std::vector<unsigned> NumsBefore;
  for (unsigned B = 0; B != F->numBlocks(); ++B)
    NumsBefore.push_back(FA.domTree().num(B));
  RandomEngine Rng(0xED17);
  ASSERT_TRUE(mutateFunctionCFG(*F, Rng));
  FunctionAnalyses &FA2 = AM.refresh(*F);
  ASSERT_EQ(&FA2, &FA) << "refresh must repair in place";
  ASSERT_EQ(F->numBlocks(), NumsBefore.size())
      << "want a single-edge edit";
  bool Renumbered = false;
  for (unsigned B = 0; B != F->numBlocks(); ++B)
    Renumbered |= FA2.domTree().num(B) != NumsBefore[B];
  ASSERT_TRUE(Renumbered) << "the edit must shift the preorder numbering";
  Cache.rebind(FA2.liveCheck(), FA2.domTree());

  PreparedCacheStats Edited = Pass();
  EXPECT_EQ(Edited.EpochDrops, DV);
  EXPECT_EQ(Edited.Hits, N - DV);
  EXPECT_EQ(Edited.Builds, 0u);
  EXPECT_EQ(Edited.Rebuilds, 0u);
}

TEST(CostModel, IncrementalRepairCountsOnAFixedEditStream) {
  // 40 single-edge edits of the kind bench_incremental measures (localized,
  // reducibility-preserving adds, removes and retargets), each followed by
  // AnalysisManager::refresh.
  auto F = tierFunction(64);
  AnalysisManager AM;
  FunctionAnalyses *FA = &AM.get(*F);
  (void)FA->liveCheck();

  CFGMutatorOptions MOpts;
  MOpts.AddEdgePercent = 40;
  MOpts.RemoveEdgePercent = 30;
  MOpts.RetargetPercent = 30;
  MOpts.PreserveReducibility = true;
  MOpts.LocalityWindow = 12;
  RandomEngine Rng(0x1DC4);
  unsigned Edits = 0;
  for (unsigned Try = 0; Edits != 40 && Try != 400; ++Try) {
    if (!mutateFunctionCFG(*F, Rng, MOpts))
      continue;
    ++Edits;
    FA = &AM.refresh(*F);
    (void)FA->liveCheck();
  }
  ASSERT_EQ(Edits, 40u);
  EXPECT_EQ(AM.counters().Refreshes, 40u);
  EXPECT_EQ(AM.counters().JournalGaps, 0u);

  const DomTree::UpdateStats &DS = FA->domTree().updateStats();
  EXPECT_EQ(DS.ScopedRepairs, 14u);
  EXPECT_EQ(DS.FullRebuilds, 4u);
  const LiveCheckUpdateStats &LS = FA->liveCheck().updateStats();
  EXPECT_EQ(LS.IncrementalRepatches, 39u);
  EXPECT_EQ(LS.FullRecomputes, 1u);
  EXPECT_EQ(LS.RRowsRepatched, 36u);
  EXPECT_EQ(LS.TRowsRepatched, 663u);
}

TEST(CostModel, WarmRunPoolFanOut) {
  // Pool tasks one warm run() submits at 4 threads. Every engine is
  // already built, so precompute submits nothing. A batch of at most one
  // maximal chunk (4,096 queries) is answered on the calling thread; a
  // larger one adds the query phase's runPerWorker, one task per worker.
  Module M;
  BatchOptions Opts;
  Opts.Threads = 4;
  BatchLivenessDriver Driver(M.Funcs, Opts);
  const telemetry::Registry &Reg = telemetry::Registry::global();
  for (auto [Queries, Tasks] : {std::pair<std::size_t, std::uint64_t>{4096, 0},
                                {50000, 4}}) {
    std::vector<BatchQuery> Workload =
        BatchLivenessDriver::generateWorkload(M.Funcs, 0xFA90, Queries);
    (void)Driver.run(Workload);
    std::uint64_t Before = Reg.value("ssalive_pool_tasks_total");
    (void)Driver.run(Workload);
    EXPECT_EQ(Reg.value("ssalive_pool_tasks_total") - Before, Tasks)
        << Queries << " queries";
  }
}
