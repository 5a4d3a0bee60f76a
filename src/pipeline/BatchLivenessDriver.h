//===- pipeline/BatchLivenessDriver.h - Module-level batch queries -*- C++ -*-===//
//
// Part of the ssalive project, released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Executes a liveness-query workload over a whole module (set of functions)
/// concurrently: engines not yet built fan out across a thread pool, then
/// the query stream is carved into chunks that workers claim through a
/// work-stealing scheduler and answer, one query at a time in arrival
/// order, against the shared read-only engines. Answers land in a
/// per-query slot, so the result is byte-identical for any thread count —
/// the amortization story of the paper (one CFG-only precomputation,
/// unboundedly many queries) scaled from one function to a module under
/// heavy query traffic.
///
/// LiveCheck backends answer every query from a per-function PreparedCache
/// entry, the value in the engine's coordinates, so a value queried in any
/// earlier batch costs no chain walk again. A frame makes one pass over its
/// queries: the workers validate each cache entry on read and defer the
/// stale ones; the calling thread, the caches' only writer, rebuilds those
/// after the fan-out and has them answered. There is no separate ensure pass. A
/// batch of at most one maximal chunk (4,096 queries) is answered on the
/// calling thread, so a warm small frame hands the pool nothing.
///
/// A query is a handful of bit tests, so there is nothing to amortize
/// across queries: sorting chunks by (function, value) to share one
/// prepared variable per run was measured end to end and lost on uniform
/// and skewed streams alike (see README.md), and is not carried.
///
//===----------------------------------------------------------------------===//

#ifndef SSALIVE_PIPELINE_BATCHLIVENESSDRIVER_H
#define SSALIVE_PIPELINE_BATCHLIVENESSDRIVER_H

#include "core/LiveCheck.h"
#include "core/PreparedCache.h"
#include "pipeline/AnalysisManager.h"

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace ssalive {

class Function;
class LivenessQueries;
class ThreadPool;

/// Which engine answers the workload. The explicit values are the wire ids
/// of the server protocol's LoadModule command; ids of retired backends
/// (1, 2, 3, 4) stay unassigned so old clients get an error, not another
/// engine.
enum class BatchBackend : std::uint8_t {
  LiveCheckPropagated = 0, ///< The paper's engine, Section-5.2 T sets.
  Dataflow = 5,            ///< Iterative data-flow baseline ("Native").
  PathExploration = 6,     ///< Appel-Palsberg per-variable backwalk baseline.
};

/// Every backend, in wire-id order.
inline constexpr BatchBackend AllBatchBackends[] = {
    BatchBackend::LiveCheckPropagated, BatchBackend::Dataflow,
    BatchBackend::PathExploration};

const char *batchBackendName(BatchBackend B);

/// Parses "propagated", "dataflow", "path-exploration"
/// (returns false on anything else).
bool parseBatchBackend(const std::string &Name, BatchBackend &Out);

/// True when \p Id is the wire id of a BatchBackend enumerator.
bool isValidBatchBackendId(unsigned Id);

/// True when \p B answers through the cached LiveCheck engines (and thus
/// benefits from AnalysisManager::refresh after CFG edits); false for the
/// standalone baselines, which are simply rebuilt.
bool batchBackendUsesLiveCheck(BatchBackend B);

/// One liveness query against one function of the module.
struct BatchQuery {
  std::uint32_t FuncIndex; ///< Index into the driver's function list.
  std::uint32_t ValueId;   ///< Value id within that function.
  std::uint32_t BlockId;   ///< Query block id within that function.
  bool IsLiveOut;          ///< Live-out query instead of live-in.
};

/// Workload-execution knobs.
struct BatchOptions {
  BatchBackend Backend = BatchBackend::LiveCheckPropagated;
  /// Worker threads for both phases; 0 = hardware concurrency. Ignored
  /// when the driver is constructed over a shared pool.
  unsigned Threads = 1;
};

/// Per-worker tallies; aggregation across workers is a fold, never a shared
/// write (each worker owns its slot). Queries-executed is not tallied here:
/// every claimed chunk is a known index range, so the count is derivable
/// from the chunk tallies; the per-run totals stream into the telemetry
/// registry instead (`ssalive_driver_*`).
struct BatchThreadStats {
  std::uint64_t PositiveAnswers = 0;
  /// Chunks this worker answered in phase 2; ChunksStolen is the subset
  /// claimed from another worker's queue.
  /// Totals feed `ssalive_driver_chunks_total` / `ssalive_driver_steals_total`.
  std::uint64_t ChunksClaimed = 0;
  std::uint64_t ChunksStolen = 0;
  LiveCheckStats Engine; ///< LiveCheck counters (zero for baselines).
};

/// Outcome of one run() call.
struct BatchResult {
  /// Answers[i] is 1 if workload query i returned live, else 0. Identical
  /// for every thread count by construction.
  std::vector<std::uint8_t> Answers;
  /// One slot per worker. Slot 0 also counts the queries the calling
  /// thread answers itself: a batch, or a set of deferred queries, that
  /// fits one chunk.
  std::vector<BatchThreadStats> PerThread;
  double PrecomputeMillis = 0;
  double QueryMillis = 0;

  std::uint64_t numQueries() const { return Answers.size(); }
  /// End-to-end throughput of the run: both phases. Engine builds are
  /// timed in PrecomputeMillis; the prepared caches' entry validation and
  /// rebuilds happen inside the query pass, in QueryMillis.
  double queriesPerSecond() const {
    double Millis = PrecomputeMillis + QueryMillis;
    return Millis > 0 ? double(Answers.size()) / (Millis / 1e3) : 0;
  }
  /// Order-sensitive 64-bit digest of the answer vector (position-mixed,
  /// so it distinguishes permutations of the same multiset).
  std::uint64_t checksum() const;
  /// Sum of the per-worker engine counters.
  LiveCheckStats totalEngineStats() const;
};

/// Runs liveness workloads over a set of functions with a fixed backend and
/// thread count. The driver does not own the functions; their CFGs must not
/// be mutated during run().
class BatchLivenessDriver {
public:
  BatchLivenessDriver(std::vector<const Function *> Funcs,
                      BatchOptions Opts = {});
  /// Shares \p Pool instead of owning one — the liveness server runs every
  /// session's query fan-out over one process-wide pool this way. The pool
  /// must outlive the driver. Opts.Threads is ignored.
  BatchLivenessDriver(std::vector<const Function *> Funcs, BatchOptions Opts,
                      ThreadPool &Pool);
  ~BatchLivenessDriver();

  /// Builds (or reuses, for LiveCheck backends via the AnalysisManager)
  /// every function's engine, then answers \p Workload across the pool,
  /// or on the calling thread when it fits one chunk. Repeated calls reuse
  /// cached precomputation — the amortized regime the throughput report
  /// measures.
  BatchResult run(const std::vector<BatchQuery> &Workload);

  const std::vector<const Function *> &functions() const { return Funcs; }
  unsigned numThreads() const;
  BatchBackend backend() const { return Opts.Backend; }

  /// The cache behind the LiveCheck backends (counters for reports; shared
  /// epoch-validated entries).
  AnalysisManager &analysisManager() { return Manager; }

  /// The per-function prepared caches of the LiveCheck backends (null
  /// until a run() touched that function). Entries persist across run()
  /// calls — the "skip per-query use-block collection" regime
  /// the server's long-lived sessions amortize into — and survive CFG
  /// edits through the PreparedCache epoch contract (stale values are
  /// dropped and rebuilt lazily against the refreshed analyses).
  const PreparedCache *preparedCache(std::size_t FuncIndex) const {
    return FuncIndex < Prepared.size() ? Prepared[FuncIndex].get() : nullptr;
  }

  /// Flushes every prepared cache's accrued counters into the telemetry
  /// registry (run() does this per batch; exporters call it to be current
  /// as of a snapshot).
  void publishPreparedTelemetry();

  /// Tells the driver a function's CFG was structurally edited. The
  /// LiveCheck backends need nothing (the AnalysisManager revalidates by
  /// epoch — callers wanting the in-place repair route the edit through
  /// analysisManager().refresh), but the baseline engines have no
  /// invalidation story of their own: this drops them so the next run()
  /// rebuilds fresh ones. The liveness server calls it from its CFG-edit
  /// command.
  void notifyCFGEdited();

  /// Draws \p Count random valid queries over \p Funcs: values with a
  /// single def and at least one use, blocks uniform over the function,
  /// live-in/live-out split evenly. Deterministic in \p Seed.
  static std::vector<BatchQuery>
  generateWorkload(const std::vector<const Function *> &Funcs,
                   std::uint64_t Seed, std::size_t Count);

private:
  bool usesLiveCheck() const;

  std::vector<const Function *> Funcs;
  BatchOptions Opts;
  AnalysisManager Manager;
  std::unique_ptr<ThreadPool> OwnedPool; ///< Null when sharing a pool.
  ThreadPool *Pool;                      ///< Owned or shared; never null.
  /// Baseline engines per function (Dataflow/PathExploration backends).
  std::vector<std::unique_ptr<LivenessQueries>> Baselines;
  /// Per-function prepared caches (LiveCheck backends); persist across
  /// run() calls, rebound when the AnalysisManager rebuilt a function's
  /// analyses wholesale.
  std::vector<std::unique_ptr<PreparedCache>> Prepared;
};

} // namespace ssalive

#endif // SSALIVE_PIPELINE_BATCHLIVENESSDRIVER_H
