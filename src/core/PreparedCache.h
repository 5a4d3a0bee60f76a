//===- core/PreparedCache.h - Value-indexed prepared liveness ---*- C++ -*-===//
//
// Part of the ssalive project, released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A value-indexed cache of LiveCheck::PreparedVar entries: each queryable
/// value's Definition-1 use blocks are collected, translated to dominance
/// preorder numbers, sorted and deduplicated **once**, and every subsequent
/// query against that value reuses the prepared span (or, above the mask
/// threshold, the use mask) with zero per-query chain walking. This is the
/// production query path of every consumer above the engine —
/// FunctionLiveness, the batch driver's LiveCheck backend, and the liveness
/// server's sessions — finishing the migration the testutil::PreparedLiveness
/// shims proved correct (ROADMAP: per-value PreparedVar caching).
///
/// ## Invalidation contract
///
/// A cached entry is valid only while two epochs stand still, and each
/// query re-validates both before trusting the entry:
///
///   * the owning function's CFG epoch (Function::cfgVersion): any
///     structural edit can renumber the dominance preorder, which is the
///     coordinate system every cached span/mask lives in. A mismatch drops
///     exactly the queried value's entry, which is rebuilt lazily against
///     the *repaired* analyses — the cache is designed to sit on the
///     AnalysisManager::refresh / LiveCheck::update plane, which repairs
///     the DomTree and engine in place (same objects, new numbering).
///     Entries are epoch-dropped per value rather than permuted under the
///     PR-3 run decomposition: a span is tiny compared to an R/T row, so a
///     rebuild from the def-use chain costs less than replaying the
///     permutation against it.
///   * the value's def-use epoch (Value::defUseEpoch): adding or removing
///     a def or use changes the Definition-1 block set. This preserves the
///     paper's Section-7 stability property at the cache layer —
///     instruction/value edits never invalidate the *engine*, and they
///     invalidate exactly one value's *entry* here.
///
/// A PreparedVar must therefore never be held across a CFG edit: the
/// read-only accessor asserts freshness (debug builds), and the directed
/// regression suite pins that a span prepared under the old numbering
/// answers queries wrongly after a renumbering edit — the failure mode the
/// epoch key exists to forbid. Never silently stale.
///
/// ## Memory layout
///
/// An Entry holds only the hot query fields (Prep + the two epoch keys +
/// Built — static_asserted to fit one cache line) plus two cold slice
/// descriptors. The span and mask payloads themselves live in two
/// arenas: one `unsigned` arena for the sorted use-number spans, one
/// 64-bit-word arena for the use masks. The entry table is therefore a
/// flat array indexed by value id. A value-random query stream still
/// misses cache on nearly every entry once the table outgrows L2, which
/// is why readers prefetch() the entries of queries a few slots ahead.
/// Arena growth relocates the payloads and re-anchors every outstanding
/// Prep.NumsBegin/NumsEnd/MaskWords from the stored offsets; freed slices
/// (def-use rebuilds that change size class) are recycled through
/// per-size-class freelists, and rebind() bulk-resets the arenas
/// (capacity retained) alongside the entries.
///
/// ## Concurrency
///
/// One writer, any number of readers, never at the same time. ensure(),
/// rebind(), sizeToFunction() and creditHits() mutate and belong to the
/// writer. isFresh(), cached() and prefetch() only read, so any number of
/// threads may call them while the writer stands still. The batch driver
/// validates on read this way: its workers answer fresh entries through
/// isFresh() + cached() and defer stale ones; after the workers join, the
/// calling thread ensure()s the deferred values in query order, answers
/// them, and credits the readers' hits, so stats() counts exactly what a
/// sequential ensure() pass over the same stream would.
///
//===----------------------------------------------------------------------===//

#ifndef SSALIVE_CORE_PREPAREDCACHE_H
#define SSALIVE_CORE_PREPAREDCACHE_H

#include "core/LiveCheck.h"
#include "ir/Function.h"

#include <array>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace ssalive {

/// Outcome counters, for tests and the throughput reports.
struct PreparedCacheStats {
  std::uint64_t Hits = 0;       ///< Fresh entry served as-is.
  std::uint64_t Builds = 0;     ///< First-time entry builds.
  std::uint64_t Rebuilds = 0;   ///< Def-use-epoch drops (chain edited).
  std::uint64_t EpochDrops = 0; ///< CFG-epoch drops (renumbering edit).
};

/// The value-indexed prepared-liveness cache over one function's engine.
///
/// Holds non-owning references to the function and its LiveCheck/DomTree;
/// all three must outlive the cache. In-place repairs of the analyses
/// (AnalysisManager::refresh) keep those references valid and are absorbed
/// through the epoch contract; a wholesale rebuild of the analyses (new
/// objects) requires rebind().
class PreparedCache {
public:
  PreparedCache(const Function &F, const LiveCheck &Engine,
                const DomTree &DT);

  PreparedCache(const PreparedCache &) = delete;
  PreparedCache &operator=(const PreparedCache &) = delete;

  /// Points the cache at a different engine/tree pair (the AnalysisManager
  /// rebuilt the function's analyses instead of repairing them in place).
  /// Drops every entry when the objects actually changed.
  void rebind(const LiveCheck &Engine, const DomTree &DT);

  /// Grows the entry table to the function's current value count, so
  /// every value has a slot readers can validate and ensure() never
  /// resizes the table in the middle of a batch.
  void sizeToFunction();

  /// The prepared entry for \p V, built or rebuilt as needed (see the
  /// invalidation contract). \p V must belong to the cached function, have
  /// at least one def (its block is the query origin) and at least one
  /// use. The returned reference is valid until the next ensure() of the
  /// same value or the next sizeToFunction()/rebind(). Defined inline:
  /// this is the per-query entry of FunctionLiveness, and in the
  /// steady-state hit case it must cost two epoch compares and a table
  /// read, not a function call.
  const LiveCheck::PreparedVar &ensure(const Value &V) {
    if (V.id() < Entries.size()) {
      Entry &E = Entries[V.id()];
      if (fresh(E, V)) {
        ++Counts.Hits;
        // The span/mask payload lives in the shared arenas — cold under a
        // value-random stream once the arenas outgrow L2. Start the fetch
        // now so it overlaps the prepared kernel's block-number lookups
        // instead of stalling its first span/mask word read.
#if defined(__GNUC__) || defined(__clang__)
        __builtin_prefetch(E.Prep.NumsBegin);
        if (E.Prep.MaskWords)
          __builtin_prefetch(E.Prep.MaskWords);
#endif
        return E.Prep;
      }
    }
    return ensureSlow(V);
  }

  /// Lock-free read of an already-ensured entry, for concurrent readers.
  /// Asserts (debug builds) that the entry is fresh: serving a span
  /// prepared under a superseded numbering is exactly the wrong-answer
  /// class the epoch contract forbids.
  const LiveCheck::PreparedVar &cached(const Value &V) const {
    assert(V.id() < Entries.size() && "value was never ensured");
    const Entry &E = Entries[V.id()];
    assert(fresh(E, V) &&
           "stale prepared entry: a CFG or def-use edit invalidated this "
           "value since ensure() — re-ensure before querying");
    return E.Prep;
  }

  /// True when \p V's entry exists and both epochs still match. Inline for
  /// the same reason as ensure(): readers call it once per query.
  bool isFresh(const Value &V) const {
    return V.id() < Entries.size() && fresh(Entries[V.id()], V);
  }

  /// Starts fetching the hot part of value \p ValueId's entry, so a reader
  /// a few queries behind finds it in cache. A no-op for ids past the
  /// table.
  void prefetch(std::uint32_t ValueId) const {
#if defined(__GNUC__) || defined(__clang__)
    if (ValueId < Entries.size()) {
      const char *Hot = reinterpret_cast<const char *>(&Entries[ValueId]);
      __builtin_prefetch(Hot);
      __builtin_prefetch(Hot + offsetof(Entry, NumsClass) - 1);
    }
#else
    (void)ValueId;
#endif
  }

  /// Counts \p N hits that readers served through isFresh() + cached()
  /// (they cannot bump the counter themselves without a data race).
  void creditHits(std::uint64_t N) { Counts.Hits += N; }

  PreparedCacheStats stats() const;

  /// Folds the counters accrued since the last publish into the
  /// process-wide telemetry registry (`ssalive_prepared_*`), and the
  /// current arena footprint into the `ssalive_prepared_arena_bytes` /
  /// `ssalive_prepared_arena_slices` gauges. Delta-based, so it may be
  /// called any number of times; the batch driver calls it once per run
  /// and the destructor flushes whatever remains (the gauges read as the
  /// live total across caches, and a dying cache retracts its share).
  /// Keeping publication out-of-band is what lets ensure()'s hit path
  /// stay at a single increment — the hard budget of the
  /// telemetry plane.
  void publishTelemetry();

  ~PreparedCache();

  /// Bytes held by the cache: the entry table plus the arena capacities
  /// (spans, mask words, freelist heads).
  std::size_t memoryBytes() const;

  /// Span/mask slices currently attached to built entries — recycling
  /// diagnostics (a drop/rebuild cycle must not leak slices).
  std::uint64_t liveSlices() const;

  const LiveCheck &engine() const { return *Engine; }
  const DomTree &domTree() const { return *DT; }

private:
  struct Entry {
    /// Hot fields first: the steady-state query touches Prep and the
    /// epoch keys only, and together they fit one cache line
    /// (static_asserted below).
    LiveCheck::PreparedVar Prep;
    std::uint64_t CFGEpoch = 0;
    std::uint64_t DefUseEpoch = 0;
    bool Built = false;
    /// Cold slice descriptors: element offsets into the arenas. A class of
    /// 0 means no slice; otherwise the slice capacity is 1 << (Class - 1)
    /// elements.
    /// Lengths are not stored — the span length lives in the Prep
    /// pointers, the mask word count in Prep.MaskNumWords.
    std::uint8_t NumsClass = 0;
    std::uint8_t MaskClass = 0;
    std::uint32_t NumsOff = 0;
    std::uint32_t MaskOff = 0;
  };
  static_assert(offsetof(Entry, NumsClass) <= 64,
                "hot fields (Prep + epochs + Built) must fit one cache "
                "line; a PreparedVar or epoch grew");
  static_assert(sizeof(Entry) <= 72,
                "Entry regrew — the flat-table scan win depends on slim "
                "entries (cold payloads belong in the arenas)");

  /// Intrusive power-of-two size-class freelists over the arenas: a freed
  /// slice's first element stores the next free offset; NoSlice
  /// terminates.
  static constexpr std::uint32_t NoSlice = 0xFFFFFFFFu;
  static constexpr unsigned NumClasses = 26; ///< up to 1<<25 elems/slice

  bool fresh(const Entry &E, const Value &V) const {
    return E.Built && E.CFGEpoch == F.cfgVersion() &&
           E.DefUseEpoch == V.defUseEpoch();
  }
  const LiveCheck::PreparedVar &ensureSlow(const Value &V);
  /// Shared growth path: resize + conditional payload re-anchoring.
  void growTo(std::size_t Count);
  void build(Entry &E, const Value &V);

  /// Smallest class whose capacity 1 << class holds \p Need elements.
  static unsigned classFor(std::size_t Need) {
    unsigned C = 0;
    while ((std::size_t(1) << C) < Need)
      ++C;
    return C;
  }
  std::uint32_t allocSpanSlice(unsigned Class);
  void freeSpanSlice(unsigned Class, std::uint32_t Off);
  std::uint32_t allocMaskSlice(unsigned Class);
  void freeMaskSlice(unsigned Class, std::uint32_t Off);
  /// Arena growth relocated a buffer: recompute the Prep pointers of every
  /// built entry from its stored offsets.
  void reanchorSpans();
  void reanchorMasks();
  /// Current arena byte footprint (capacity).
  std::size_t arenaBytes() const;

  const Function &F;
  const LiveCheck *Engine;
  const DomTree *DT;
  std::vector<Entry> Entries;
  std::vector<unsigned> Spans;
  std::vector<std::uint64_t> MaskWords;
  std::array<std::uint32_t, NumClasses> SpanFree;
  std::array<std::uint32_t, NumClasses> MaskFree;
  std::uint64_t LiveSlices = 0;
  PreparedCacheStats Counts;
  /// What publishTelemetry() already forwarded to the registry.
  PreparedCacheStats Published;
  std::int64_t PublishedArenaBytes = 0;
  std::int64_t PublishedArenaSlices = 0;
};

} // namespace ssalive

#endif // SSALIVE_CORE_PREPAREDCACHE_H
