//===- pipeline/BatchLivenessDriver.cpp - Module-level batch queries ------===//
//
// Part of the ssalive project, released under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "pipeline/BatchLivenessDriver.h"

#include "core/UseInfo.h"
#include "ir/Function.h"
#include "liveness/DataflowLiveness.h"
#include "liveness/PathExplorationLiveness.h"
#include "support/Pool.h"
#include "support/RandomEngine.h"
#include "support/Telemetry.h"
#include "support/ThreadPool.h"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <chrono>

using namespace ssalive;

namespace {

/// Registry handles for the per-run driver series. Everything here is
/// published in bulk, once per run(): the per-query work stays on the
/// workers' stack counters exactly as before, so the hot fan-out gains
/// no telemetry instructions at all.
struct DriverTelemetry {
  telemetry::Counter Batches{"ssalive_driver_batches_total"};
  telemetry::Counter Queries{"ssalive_driver_queries_total"};
  telemetry::Counter Positives{"ssalive_driver_positive_total"};
  telemetry::Counter EngineIn{"ssalive_engine_livein_queries_total"};
  telemetry::Counter EngineOut{"ssalive_engine_liveout_queries_total"};
  telemetry::Counter EngineTargets{"ssalive_engine_targets_visited_total"};
  telemetry::Counter EngineUseTests{"ssalive_engine_use_tests_total"};
  telemetry::Counter Chunks{"ssalive_driver_chunks_total"};
  telemetry::Counter Steals{"ssalive_driver_steals_total"};
  telemetry::Histogram PrecomputeNs{"ssalive_driver_precompute_ns"};
  telemetry::Histogram QueryBatchNs{"ssalive_driver_query_batch_ns"};

  static const DriverTelemetry &get() {
    static DriverTelemetry T;
    return T;
  }
};

} // namespace

const char *ssalive::batchBackendName(BatchBackend B) {
  switch (B) {
  case BatchBackend::LiveCheckPropagated:
    return "propagated";
  case BatchBackend::Dataflow:
    return "dataflow";
  case BatchBackend::PathExploration:
    return "path-exploration";
  }
  return "unknown";
}

bool ssalive::parseBatchBackend(const std::string &Name, BatchBackend &Out) {
  for (BatchBackend B : AllBatchBackends)
    if (Name == batchBackendName(B)) {
      Out = B;
      return true;
    }
  return false;
}

bool ssalive::isValidBatchBackendId(unsigned Id) {
  for (BatchBackend B : AllBatchBackends)
    if (Id == static_cast<unsigned>(B))
      return true;
  return false;
}

const char *ssalive::queryPlaneName(QueryPlane P) {
  switch (P) {
  case QueryPlane::BlockId:
    return "block-id";
  case QueryPlane::Prepared:
    return "prepared";
  }
  return "unknown";
}

bool ssalive::parseQueryPlane(const std::string &Name, QueryPlane &Out) {
  for (QueryPlane P : {QueryPlane::BlockId, QueryPlane::Prepared})
    if (Name == queryPlaneName(P)) {
      Out = P;
      return true;
    }
  return false;
}

bool ssalive::isValidQueryPlaneId(unsigned Id) {
  return Id == static_cast<unsigned>(QueryPlane::BlockId) ||
         Id == static_cast<unsigned>(QueryPlane::Prepared);
}

std::uint64_t BatchResult::checksum() const {
  // Sequential FNV-style fold: position-sensitive, so any differing answer
  // (not just a differing multiset) changes the digest.
  std::uint64_t H = 0xcbf29ce484222325ull;
  for (std::uint8_t A : Answers)
    H = (H ^ A) * 0x100000001b3ull;
  return H;
}

LiveCheckStats BatchResult::totalEngineStats() const {
  LiveCheckStats Total;
  for (const BatchThreadStats &S : PerThread)
    Total += S.Engine;
  return Total;
}

bool ssalive::batchBackendUsesLiveCheck(BatchBackend B) {
  return B == BatchBackend::LiveCheckPropagated;
}

bool BatchLivenessDriver::usesLiveCheck() const {
  return batchBackendUsesLiveCheck(Opts.Backend);
}

BatchLivenessDriver::BatchLivenessDriver(std::vector<const Function *> Funcs,
                                         BatchOptions Opts)
    : Funcs(std::move(Funcs)), Opts(Opts),
      OwnedPool(std::make_unique<ThreadPool>(Opts.Threads)),
      Pool(OwnedPool.get()) {}

BatchLivenessDriver::BatchLivenessDriver(std::vector<const Function *> Funcs,
                                         BatchOptions Opts, ThreadPool &Pool)
    : Funcs(std::move(Funcs)), Opts(Opts), Pool(&Pool) {}

BatchLivenessDriver::~BatchLivenessDriver() = default;

void BatchLivenessDriver::notifyCFGEdited() { Baselines.clear(); }

void BatchLivenessDriver::publishPreparedTelemetry() {
  for (const auto &P : Prepared)
    if (P)
      P->publishTelemetry();
}

unsigned BatchLivenessDriver::numThreads() const {
  return Pool->numThreads();
}

namespace {

/// True when the query is answerable by every backend: liveness is defined
/// for values with one SSA def and at least one use; everything else is
/// uniformly dead (FunctionLiveness's own convention), keeping backends in
/// agreement.
bool queryableValue(const Value &V) {
  return V.hasSingleDef() && V.hasUses();
}

} // namespace

BatchResult BatchLivenessDriver::run(const std::vector<BatchQuery> &Workload) {
  using Clock = std::chrono::steady_clock;
  BatchResult Result;
  unsigned NumWorkers = Pool->numThreads();
  Result.PerThread.assign(NumWorkers, BatchThreadStats());
  Result.Answers.assign(Workload.size(), 0);

  // Phase 1 — precomputation, one task per function. LiveCheck backends go
  // through the AnalysisManager (epoch-validated: a second run() on an
  // unmodified module rebuilds nothing); baselines are built once per
  // driver, since they have no invalidation story — exactly the Section 7
  // contrast this subsystem exists to exploit.
  auto PreStart = Clock::now();
  SSALIVE_SPAN("query-batch");
  std::vector<const LiveCheck *> Engines;
  std::vector<const DomTree *> Trees;
  const bool UsesPreparedCache =
      usesLiveCheck() && Opts.Plane == QueryPlane::Prepared;
  {
  SSALIVE_SPAN("precompute");
  if (usesLiveCheck()) {
    Pool->parallelFor(0, Funcs.size(), [this](std::size_t I) {
      Manager.get(*Funcs[I]).liveCheck();
    });
  } else if (Baselines.empty()) {
    Baselines.resize(Funcs.size());
    Pool->parallelFor(0, Funcs.size(), [this](std::size_t I) {
      if (Opts.Backend == BatchBackend::Dataflow)
        Baselines[I] = std::make_unique<DataflowLiveness>(*Funcs[I]);
      else
        Baselines[I] = std::make_unique<PathExplorationLiveness>(*Funcs[I]);
    });
  }
  // Resolve the per-function engines up front so the query loop never
  // touches the manager's lock. The prepared plane additionally needs each
  // function's dominator tree to translate use blocks to preorder numbers.
  if (usesLiveCheck()) {
    Engines.reserve(Funcs.size());
    if (UsesPreparedCache)
      Trees.reserve(Funcs.size());
    for (const Function *F : Funcs) {
      FunctionAnalyses &FA = Manager.get(*F);
      Engines.push_back(&FA.liveCheck());
      if (UsesPreparedCache)
        Trees.push_back(&FA.domTree());
    }
  }

  // The cached prepared plane: make sure every value the workload touches
  // has a fresh PreparedVar before the query fan-out, so the query loop is
  // pure lock-free reads. One linear ensure() sweep over the workload: a
  // value already prepared — by this batch or any earlier one — validates
  // by epoch in two compares, so in the warm regime the sweep costs
  // nanoseconds per query, and in the cold (or post-edit) case exactly the
  // stale values rebuild. This is the whole point of the plane: across a
  // session's batches the chain walk happens once per value, not once per
  // query. (A parallel fill over deduplicated pairs was measured slower on
  // the warm path — the per-frame sort and pool handoff cost more than
  // the sweep they saved.)
  if (UsesPreparedCache) {
    if (Prepared.size() != Funcs.size())
      Prepared.resize(Funcs.size());
    for (std::size_t I = 0; I != Funcs.size(); ++I) {
      if (!Prepared[I])
        Prepared[I] = std::make_unique<PreparedCache>(*Funcs[I], *Engines[I],
                                                      *Trees[I]);
      else
        Prepared[I]->rebind(*Engines[I], *Trees[I]);
      Prepared[I]->sizeToFunction();
    }
    for (const BatchQuery &Q : Workload) {
      assert(Q.FuncIndex < Funcs.size() && "query function out of range");
      const Value &V = *Funcs[Q.FuncIndex]->value(Q.ValueId);
      if (queryableValue(V))
        Prepared[Q.FuncIndex]->ensure(V);
    }
  }
  // Engine resolution and the ensure sweep are part of the precompute
  // phase: the query timer below must measure only the fan-out.
  Result.PrecomputeMillis =
      std::chrono::duration<double, std::milli>(Clock::now() - PreStart)
          .count();
  } // precompute span

  // Phase 2 — the query stream, carved into chunks the workers claim
  // through the scheduler. Each query writes only its own Answers slot and
  // each worker owns its PerThread slot, so the phase stays
  // write-shared-nothing and the result bytes are independent of the
  // thread count and chunking (the scheduler-equivalence suite pins this).
  auto QueryStart = Clock::now();
  const std::size_t NumQueries = Workload.size();
  // Adaptive chunking: enough chunks for skewed streams to rebalance,
  // while small batches stay near one claim per worker.
  const std::size_t Chunk = std::clamp<std::size_t>(
      NumQueries / (std::size_t(NumWorkers) * 8), 256, 4096);
  const std::size_t NumChunks = (NumQueries + Chunk - 1) / Chunk;
  // One claim cursor per worker over its contiguous queue of chunks.
  // Thieves claim through the same cursor, so fetch_add tickets hand every
  // chunk to exactly one worker with no other synchronization; a skewed
  // chunk (hot values cost more than cold ones) delays only its claimer
  // while the rest of its queue drains into the other workers.
  struct alignas(64) ChunkCursor {
    std::atomic<std::size_t> Next{0};
    std::size_t End = 0;
  };
  std::vector<ChunkCursor> Cursors(NumWorkers);
  for (unsigned W = 0; W != NumWorkers; ++W) {
    Cursors[W].Next.store(NumChunks * W / NumWorkers,
                          std::memory_order_relaxed);
    Cursors[W].End = NumChunks * (W + 1) / NumWorkers;
  }
  Pool->runPerWorker([&](unsigned Worker) {
    // Counters accumulate on the worker's stack: adjacent PerThread slots
    // share cache lines, and bouncing one per query would erase exactly
    // the scaling this driver exists to deliver.
    BatchThreadStats Stats;
    // Scratch, reused across queries and (through the thread-local pools)
    // across batches: the buffers keep their capacity between runs.
    auto UsesH = pool::scratchArray();
    std::vector<unsigned> &Uses = *UsesH;
    // One query, in arrival order, on whichever plane or backend is set.
    auto answerOne = [&](std::size_t I) {
      const BatchQuery &Q = Workload[I];
      assert(Q.FuncIndex < Funcs.size() && "query function out of range");
      const Function &F = *Funcs[Q.FuncIndex];
      const Value &V = *F.value(Q.ValueId);
      bool Answer = false;
      if (queryableValue(V)) {
        if (usesLiveCheck()) {
          const LiveCheck &E = *Engines[Q.FuncIndex];
          if (UsesPreparedCache) {
            // The cached plane: the precompute phase ensured every
            // workload value, so this is a lock-free table read — no
            // chain walk, no numbering, no allocation per query.
            const LiveCheck::PreparedVar &P =
                Prepared[Q.FuncIndex]->cached(V);
            Answer = Q.IsLiveOut
                         ? E.isLiveOutPrepared(P, Q.BlockId, &Stats.Engine)
                         : E.isLiveInPrepared(P, Q.BlockId, &Stats.Engine);
          } else {
            // The block-id oracle re-derives the variable per query.
            Uses.clear();
            appendLiveUseBlocks(V, Uses);
            unsigned Def = defBlockId(V);
            Answer = Q.IsLiveOut
                         ? E.isLiveOut(Def, Q.BlockId, Uses, &Stats.Engine)
                         : E.isLiveIn(Def, Q.BlockId, Uses, &Stats.Engine);
          }
        } else {
          LivenessQueries &B = *Baselines[Q.FuncIndex];
          const BasicBlock &Block = *F.block(Q.BlockId);
          Answer = Q.IsLiveOut ? B.isLiveOut(V, Block) : B.isLiveIn(V, Block);
        }
      }
      Result.Answers[I] = Answer;
      Stats.PositiveAnswers += Answer;
    };

    // Drain the own queue first, then visit the other cursors round-robin.
    // Chunks are never re-added, so one pass over every cursor claims
    // everything.
    for (unsigned V = 0; V != NumWorkers; ++V) {
      unsigned Victim = (Worker + V) % NumWorkers;
      ChunkCursor &C = Cursors[Victim];
      while (true) {
        std::size_t Ticket = C.Next.fetch_add(1, std::memory_order_relaxed);
        if (Ticket >= C.End)
          break;
        ++Stats.ChunksClaimed;
        Stats.ChunksStolen += Victim != Worker;
        std::size_t End = std::min((Ticket + 1) * Chunk, NumQueries);
        for (std::size_t I = Ticket * Chunk; I != End; ++I)
          answerOne(I);
      }
    }
    Result.PerThread[Worker] = Stats;
  });
  Result.QueryMillis =
      std::chrono::duration<double, std::milli>(Clock::now() - QueryStart)
          .count();

  // Publish the run's totals into the registry in bulk — a handful of
  // relaxed adds per *batch*, zero per query.
  const DriverTelemetry &T = DriverTelemetry::get();
  T.Batches.inc();
  T.Queries.inc(Result.Answers.size());
  std::uint64_t Positives = 0, ChunksTotal = 0, StealsTotal = 0;
  for (const BatchThreadStats &S : Result.PerThread) {
    Positives += S.PositiveAnswers;
    ChunksTotal += S.ChunksClaimed;
    StealsTotal += S.ChunksStolen;
  }
  T.Positives.inc(Positives);
  T.Chunks.inc(ChunksTotal);
  T.Steals.inc(StealsTotal);
  LiveCheckStats Engine = Result.totalEngineStats();
  T.EngineIn.inc(Engine.LiveInQueries);
  T.EngineOut.inc(Engine.LiveOutQueries);
  T.EngineTargets.inc(Engine.TargetsVisited);
  T.EngineUseTests.inc(Engine.UseTests);
  T.PrecomputeNs.observe(
      static_cast<std::uint64_t>(Result.PrecomputeMillis * 1e6));
  T.QueryBatchNs.observe(
      static_cast<std::uint64_t>(Result.QueryMillis * 1e6));
  if (UsesPreparedCache)
    publishPreparedTelemetry();
  return Result;
}

std::vector<BatchQuery> BatchLivenessDriver::generateWorkload(
    const std::vector<const Function *> &Funcs, std::uint64_t Seed,
    std::size_t Count) {
  // Eligible values per function (single def, >= 1 use).
  std::vector<std::vector<std::uint32_t>> Eligible(Funcs.size());
  std::vector<std::uint32_t> NonEmpty;
  for (std::size_t I = 0; I != Funcs.size(); ++I) {
    for (const auto &V : Funcs[I]->values())
      if (queryableValue(*V))
        Eligible[I].push_back(V->id());
    if (!Eligible[I].empty() && Funcs[I]->numBlocks() != 0)
      NonEmpty.push_back(static_cast<std::uint32_t>(I));
  }
  std::vector<BatchQuery> Workload;
  if (NonEmpty.empty())
    return Workload;
  Workload.reserve(Count);
  RandomEngine Rng(Seed);
  for (std::size_t I = 0; I != Count; ++I) {
    std::uint32_t FI =
        NonEmpty[Rng.nextBelow(static_cast<unsigned>(NonEmpty.size()))];
    const auto &Vals = Eligible[FI];
    BatchQuery Q;
    Q.FuncIndex = FI;
    Q.ValueId = Vals[Rng.nextBelow(static_cast<unsigned>(Vals.size()))];
    Q.BlockId = Rng.nextBelow(Funcs[FI]->numBlocks());
    Q.IsLiveOut = Rng.nextBelow(2) != 0;
    Workload.push_back(Q);
  }
  return Workload;
}
