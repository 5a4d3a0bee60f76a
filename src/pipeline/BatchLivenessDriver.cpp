//===- pipeline/BatchLivenessDriver.cpp - Module-level batch queries ------===//
//
// Part of the ssalive project, released under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "pipeline/BatchLivenessDriver.h"

#include "ir/Function.h"
#include "liveness/DataflowLiveness.h"
#include "liveness/PathExplorationLiveness.h"
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

/// The largest chunk a worker claims. A batch no larger than one such
/// chunk is answered on the calling thread: handing it to the pool costs
/// more than it could save.
constexpr std::size_t MaxChunk = 4096;

/// How many queries ahead the LiveCheck query loop prefetches. A
/// value-random stream misses cache on the Value and on its cache entry;
/// eight queries of scan work cover most of that latency.
constexpr std::size_t PrefetchDistance = 8;

/// Answer-slot mark of a LiveCheck query whose cache entry was stale
/// when a worker read it. It is answered once the calling thread has
/// rebuilt the entry.
constexpr std::uint8_t Deferred = 2;

void prefetchValue(const Value *V) {
#if defined(__GNUC__) || defined(__clang__)
  const char *P = reinterpret_cast<const char *>(V);
  for (std::size_t Off = 0; Off < sizeof(Value); Off += 64)
    __builtin_prefetch(P + Off);
#else
  (void)V;
#endif
}

bool answerPrepared(const LiveCheck &E, const LiveCheck::PreparedVar &P,
                    const BatchQuery &Q, LiveCheckStats &Stats) {
  return Q.IsLiveOut ? E.isLiveOutPrepared(P, Q.BlockId, &Stats)
                     : E.isLiveInPrepared(P, Q.BlockId, &Stats);
}

/// What one worker (or the calling thread) accumulates over its queries.
struct WorkerTally {
  BatchThreadStats Stats;
  /// Queries this worker marked Deferred.
  std::uint64_t NumDeferred = 0;
  /// Fresh cache entries read, per function, credited to each
  /// cache's hit counter after the fan-out.
  std::vector<std::uint64_t> Hits;
};

} // namespace

BatchResult BatchLivenessDriver::run(const std::vector<BatchQuery> &Workload) {
  using Clock = std::chrono::steady_clock;
  BatchResult Result;
  unsigned NumWorkers = Pool->numThreads();
  Result.PerThread.assign(NumWorkers, BatchThreadStats());
  Result.Answers.assign(Workload.size(), 0);

  // Phase 1 — precomputation. LiveCheck backends go through the
  // AnalysisManager (epoch-validated: a second run() on an unmodified
  // module rebuilds nothing); baselines are built once per driver, since
  // they have no invalidation story — exactly the Section 7 contrast this
  // subsystem exists to exploit.
  auto PreStart = Clock::now();
  SSALIVE_SPAN("query-batch");
  std::vector<const LiveCheck *> Engines;
  const bool UsesLiveCheck = usesLiveCheck();
  {
  SSALIVE_SPAN("precompute");
  if (UsesLiveCheck) {
    // One manager lookup per function. Engines already built (all of
    // them, in a warm batch) are taken as they are; a single cold engine
    // is built inline and several fan out across the pool. A warm batch
    // therefore hands the pool nothing, and the query loop never touches
    // the manager's lock.
    std::vector<FunctionAnalyses *> Analyses(Funcs.size());
    std::vector<std::size_t> Cold;
    Engines.resize(Funcs.size());
    for (std::size_t I = 0; I != Funcs.size(); ++I) {
      Analyses[I] = &Manager.get(*Funcs[I]);
      Engines[I] = Analyses[I]->builtLiveCheck();
      if (!Engines[I])
        Cold.push_back(I);
    }
    auto Build = [&](std::size_t K) {
      Engines[Cold[K]] = &Analyses[Cold[K]]->liveCheck();
    };
    if (Cold.size() == 1)
      Build(0);
    else if (!Cold.empty())
      Pool->parallelFor(0, Cold.size(), Build);
    // One prepared cache per function, kept across batches. Its entries
    // are validated per query in phase 2, not here.
    Prepared.resize(Funcs.size());
    for (std::size_t I = 0; I != Funcs.size(); ++I) {
      const DomTree &DT = Analyses[I]->domTree();
      if (!Prepared[I])
        Prepared[I] =
            std::make_unique<PreparedCache>(*Funcs[I], *Engines[I], DT);
      else
        Prepared[I]->rebind(*Engines[I], DT);
      Prepared[I]->sizeToFunction();
    }
  } else if (Baselines.empty()) {
    Baselines.resize(Funcs.size());
    Pool->parallelFor(0, Funcs.size(), [this](std::size_t I) {
      if (Opts.Backend == BatchBackend::Dataflow)
        Baselines[I] = std::make_unique<DataflowLiveness>(*Funcs[I]);
      else
        Baselines[I] = std::make_unique<PathExplorationLiveness>(*Funcs[I]);
    });
  }
  Result.PrecomputeMillis =
      std::chrono::duration<double, std::milli>(Clock::now() - PreStart)
          .count();
  } // precompute span

  // Phase 2 — the query stream, answered one query at a time in arrival
  // order. Each query writes only its own Answers slot and each worker
  // owns its tally, so the phase stays write-shared-nothing and the result
  // bytes are independent of the thread count and chunking (the
  // scheduler-equivalence suite pins this).
  //
  // LiveCheck backends validate on read. A fresh cache entry is answered
  // in place and counted as a hit. A stale one (a value not yet prepared,
  // or invalidated by an edit) is marked Deferred and left for the calling
  // thread, the caches' only writer, after the workers are done.
  auto QueryStart = Clock::now();
  const std::size_t NumQueries = Workload.size();
  auto answerRange = [&](std::size_t Begin, std::size_t End,
                         WorkerTally &T) {
    for (std::size_t I = Begin; I != End; ++I) {
      if (UsesLiveCheck && I + PrefetchDistance < NumQueries) {
        const BatchQuery &Ahead = Workload[I + PrefetchDistance];
        prefetchValue(Funcs[Ahead.FuncIndex]->value(Ahead.ValueId));
        Prepared[Ahead.FuncIndex]->prefetch(Ahead.ValueId);
      }
      const BatchQuery &Q = Workload[I];
      assert(Q.FuncIndex < Funcs.size() && "query function out of range");
      const Function &F = *Funcs[Q.FuncIndex];
      const Value &V = *F.value(Q.ValueId);
      bool Answer = false;
      if (queryableValue(V)) {
        if (UsesLiveCheck) {
          const PreparedCache &C = *Prepared[Q.FuncIndex];
          if (!C.isFresh(V)) {
            Result.Answers[I] = Deferred;
            ++T.NumDeferred;
            continue;
          }
          ++T.Hits[Q.FuncIndex];
          Answer = answerPrepared(*Engines[Q.FuncIndex], C.cached(V), Q,
                                  T.Stats.Engine);
        } else {
          LivenessQueries &B = *Baselines[Q.FuncIndex];
          const BasicBlock &Block = *F.block(Q.BlockId);
          Answer = Q.IsLiveOut ? B.isLiveOut(V, Block) : B.isLiveIn(V, Block);
        }
      }
      Result.Answers[I] = Answer;
      T.Stats.PositiveAnswers += Answer;
    }
  };
  // Queries that were deferred, answered once ensure() made their entries
  // fresh again.
  auto answerDeferred = [&](std::size_t Begin, std::size_t End,
                            WorkerTally &T) {
    for (std::size_t I = Begin; I != End; ++I) {
      if (Result.Answers[I] != Deferred)
        continue;
      const BatchQuery &Q = Workload[I];
      const Value &V = *Funcs[Q.FuncIndex]->value(Q.ValueId);
      bool Answer = answerPrepared(*Engines[Q.FuncIndex],
                                   Prepared[Q.FuncIndex]->cached(V), Q,
                                   T.Stats.Engine);
      Result.Answers[I] = Answer;
      T.Stats.PositiveAnswers += Answer;
    }
  };

  std::vector<WorkerTally> Tallies(NumWorkers);
  if (UsesLiveCheck)
    for (WorkerTally &T : Tallies)
      T.Hits.assign(Funcs.size(), 0);
  // Runs Pass(Begin, End, Tally) over the whole workload: on the calling
  // thread as worker 0 when the work fits one maximal chunk (handing it
  // to the pool costs more than it could save), else across the pool.
  auto overChunks = [&](const auto &Pass, std::size_t Work,
                        bool CountChunks) {
    if (Work <= MaxChunk) {
      Pass(0, NumQueries, Tallies[0]);
      Tallies[0].Stats.ChunksClaimed += CountChunks && NumQueries != 0;
      return;
    }
    // Adaptive chunking: enough chunks for skewed streams to rebalance,
    // while small batches stay near one claim per worker.
    const std::size_t Chunk = std::clamp<std::size_t>(
        NumQueries / (std::size_t(NumWorkers) * 8), 256, MaxChunk);
    const std::size_t NumChunks = (NumQueries + Chunk - 1) / Chunk;
    // One claim cursor per worker over its contiguous queue of chunks.
    // Thieves claim through the same cursor, so fetch_add tickets hand
    // every chunk to exactly one worker with no other synchronization; a
    // skewed chunk (hot values cost more than cold ones) delays only its
    // claimer while the rest of its queue drains into the other workers.
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
      // The tally lives on the worker's stack until the end: adjacent
      // Tallies slots share cache lines, and bouncing one per query would
      // erase exactly the scaling this driver exists to deliver.
      WorkerTally T = std::move(Tallies[Worker]);
      // Drain the own queue first, then visit the other cursors
      // round-robin. Chunks are never re-added, so one pass over every
      // cursor claims everything.
      for (unsigned V = 0; V != NumWorkers; ++V) {
        unsigned Victim = (Worker + V) % NumWorkers;
        ChunkCursor &C = Cursors[Victim];
        while (true) {
          std::size_t Ticket = C.Next.fetch_add(1, std::memory_order_relaxed);
          if (Ticket >= C.End)
            break;
          if (CountChunks) {
            ++T.Stats.ChunksClaimed;
            T.Stats.ChunksStolen += Victim != Worker;
          }
          Pass(Ticket * Chunk, std::min((Ticket + 1) * Chunk, NumQueries),
               T);
        }
      }
      Tallies[Worker] = std::move(T);
    });
  };

  overChunks(answerRange, NumQueries, /*CountChunks=*/true);

  // The deferred queries. The calling thread ensure()s them in query
  // order: a stale entry is rebuilt at its first deferred query and hit
  // at the later ones. With the readers' hits credited on top, each cache
  // counts exactly what one sequential ensure() pass over the whole
  // stream would. Then the deferred queries are answered like any other,
  // across the pool when there are more than one chunk's worth (a cold
  // batch defers all of them).
  if (UsesLiveCheck) {
    std::uint64_t NumDeferred = 0;
    for (const WorkerTally &T : Tallies) {
      NumDeferred += T.NumDeferred;
      for (std::size_t FI = 0; FI != T.Hits.size(); ++FI)
        Prepared[FI]->creditHits(T.Hits[FI]);
    }
    for (std::size_t I = 0, Left = NumDeferred; Left != 0; ++I)
      if (Result.Answers[I] == Deferred) {
        const BatchQuery &Q = Workload[I];
        Prepared[Q.FuncIndex]->ensure(*Funcs[Q.FuncIndex]->value(Q.ValueId));
        --Left;
      }
    if (NumDeferred != 0)
      overChunks(answerDeferred, NumDeferred, /*CountChunks=*/false);
  }
  for (unsigned W = 0; W != NumWorkers; ++W)
    Result.PerThread[W] = Tallies[W].Stats;
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
  if (UsesLiveCheck)
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
