//===- bench/bench_micro.cpp - Component microbenchmarks ------------------===//
//
// Part of the ssalive project, released under the MIT license.
//
//===----------------------------------------------------------------------===//
//
// google-benchmark microbenchmarks for the individual components: DFS,
// dominator tree, the R/T precomputation (both T modes), single queries on
// both backends, and the data-flow solve. These are the per-component
// numbers behind the Table 2 aggregates.
//
//===----------------------------------------------------------------------===//

#include "Harness.h"

#include "analysis/DFS.h"
#include "analysis/DomTree.h"
#include "core/FunctionLiveness.h"
#include "core/LiveCheck.h"
#include "ir/CFG.h"
#include "ir/Clone.h"
#include "liveness/DataflowLiveness.h"
#include "ssa/SSADestruction.h"
#include "workload/CFGGenerator.h"

#include <benchmark/benchmark.h>

using namespace ssalive;
using namespace ssalive::bench;

namespace {

/// A fixed procedure of roughly the paper's average shape (~36 blocks)
/// with a non-trivial φ/query workload, shared by the single-procedure
/// microbenchmarks. The block-count sampler is heavy-tailed, so candidate
/// seeds are drawn until one lands in the representative band.
const Function &averageProcedure() {
  static std::unique_ptr<Function> F = [] {
    for (std::uint64_t Seed = 42;; ++Seed) {
      RandomEngine Rng(Seed);
      auto Candidate = synthesizeProcedure(spec2000Profiles()[2], Rng);
      if (Candidate->numBlocks() < 30 || Candidate->numBlocks() > 48)
        continue;
      auto Clone = cloneFunction(*Candidate);
      FunctionLiveness Live(*Clone);
      DestructionOptions Opts;
      Opts.RecordTrace = true;
      if (destructSSA(*Clone, Live, Opts).Trace.size() >= 50)
        return Candidate;
    }
  }();
  return *F;
}

/// The SSA-destruction query trace for averageProcedure().
const std::vector<RecordedQuery> &averageTrace() {
  static std::vector<RecordedQuery> Trace = [] {
    auto Clone = cloneFunction(averageProcedure());
    FunctionLiveness Live(*Clone);
    DestructionOptions Opts;
    Opts.RecordTrace = true;
    return destructSSA(*Clone, Live, Opts).Trace;
  }();
  return Trace;
}

void BM_DFS(benchmark::State &State) {
  CFG G = CFG::fromFunction(averageProcedure());
  for (auto _ : State) {
    DFS D(G);
    benchmark::DoNotOptimize(D.backEdges().size());
  }
}
BENCHMARK(BM_DFS);

void BM_DomTree(benchmark::State &State) {
  CFG G = CFG::fromFunction(averageProcedure());
  DFS D(G);
  for (auto _ : State) {
    DomTree DT(G, D);
    benchmark::DoNotOptimize(DT.maxnum(0));
  }
}
BENCHMARK(BM_DomTree);

void BM_PrecomputePropagated(benchmark::State &State) {
  CFG G = CFG::fromFunction(averageProcedure());
  DFS D(G);
  DomTree DT(G, D);
  for (auto _ : State) {
    LiveCheck Engine(G, D, DT);
    benchmark::DoNotOptimize(Engine.memoryBytes());
  }
}
BENCHMARK(BM_PrecomputePropagated);

void BM_PrecomputeDataflowPhiOnly(benchmark::State &State) {
  const Function &F = averageProcedure();
  DataflowOptions Opts;
  Opts.PhiRelatedOnly = true;
  for (auto _ : State) {
    DataflowLiveness Native(F, Opts);
    benchmark::DoNotOptimize(Native.universeSize());
  }
}
BENCHMARK(BM_PrecomputeDataflowPhiOnly);

void BM_PrecomputeDataflowFull(benchmark::State &State) {
  const Function &F = averageProcedure();
  for (auto _ : State) {
    DataflowLiveness Native(F);
    benchmark::DoNotOptimize(Native.universeSize());
  }
}
BENCHMARK(BM_PrecomputeDataflowFull);

void BM_QueryLiveCheck(benchmark::State &State) {
  const Function &F = averageProcedure();
  const auto &Trace = averageTrace();
  FunctionLiveness Live(F);
  size_t I = 0;
  for (auto _ : State) {
    const RecordedQuery &Q = Trace[I++ % Trace.size()];
    bool A = Q.IsLiveOut
                 ? Live.isLiveOut(*F.value(Q.ValueId), *F.block(Q.BlockId))
                 : Live.isLiveIn(*F.value(Q.ValueId), *F.block(Q.BlockId));
    benchmark::DoNotOptimize(A);
  }
}
BENCHMARK(BM_QueryLiveCheck);

void BM_QueryDataflowLookup(benchmark::State &State) {
  const Function &F = averageProcedure();
  const auto &Trace = averageTrace();
  DataflowOptions Opts;
  Opts.PhiRelatedOnly = true;
  DataflowLiveness Native(F, Opts);
  size_t I = 0;
  for (auto _ : State) {
    const RecordedQuery &Q = Trace[I++ % Trace.size()];
    bool A = Q.IsLiveOut
                 ? Native.isLiveOut(*F.value(Q.ValueId), *F.block(Q.BlockId))
                 : Native.isLiveIn(*F.value(Q.ValueId), *F.block(Q.BlockId));
    benchmark::DoNotOptimize(A);
  }
}
BENCHMARK(BM_QueryDataflowLookup);

void BM_DestructionPass(benchmark::State &State) {
  for (auto _ : State) {
    State.PauseTiming();
    auto Clone = cloneFunction(averageProcedure());
    FunctionLiveness Live(*Clone);
    State.ResumeTiming();
    DestructionStats Stats = destructSSA(*Clone, Live);
    benchmark::DoNotOptimize(Stats.CopiesInserted);
  }
}
BENCHMARK(BM_DestructionPass);

/// Precomputation across sizes, to read the quadratic slope directly.
void BM_PrecomputeBySize(benchmark::State &State) {
  RandomEngine Rng(State.range(0));
  CFGGenOptions GOpts;
  GOpts.TargetBlocks = static_cast<unsigned>(State.range(0));
  CFG G = generateCFG(GOpts, Rng);
  DFS D(G);
  DomTree DT(G, D);
  for (auto _ : State) {
    LiveCheck Engine(G, D, DT);
    benchmark::DoNotOptimize(Engine.memoryBytes());
  }
  State.SetComplexityN(G.numNodes());
}
BENCHMARK(BM_PrecomputeBySize)->Range(8, 2048)->Complexity();

} // namespace
