//===- core/PreparedCache.cpp - Value-indexed prepared liveness -----------===//
//
// Part of the ssalive project, released under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "core/PreparedCache.h"

#include "core/UseInfo.h"
#include "ir/Function.h"
#include "support/Pool.h"
#include "support/Telemetry.h"

#include <algorithm>
#include <cassert>
#include <cstring>

using namespace ssalive;

PreparedCache::PreparedCache(const Function &F, const LiveCheck &Engine,
                             const DomTree &DT)
    : F(F), Engine(&Engine), DT(&DT) {
  SpanFree.fill(NoSlice);
  MaskFree.fill(NoSlice);
}

PreparedCache::~PreparedCache() {
  publishTelemetry();
  // Retract this cache's share of the arena gauges: they track the live
  // total across caches, and this one is going away.
  Spans = {};
  MaskWords = {};
  LiveSlices = 0;
  publishTelemetry();
}

void PreparedCache::rebind(const LiveCheck &NewEngine, const DomTree &NewDT) {
  if (Engine == &NewEngine && DT == &NewDT)
    return;
  Engine = &NewEngine;
  DT = &NewDT;
  // New analysis objects may carry a new numbering at an unchanged CFG
  // epoch (an explicit invalidate/clear rebuild), so the epoch key alone
  // cannot be trusted across a rebind: drop everything. The arenas bulk
  // reset with it — capacity is retained, so the rebuild wave re-fills
  // the same buffers instead of growing fresh ones.
  Entries.assign(Entries.size(), Entry());
  Spans.clear();
  MaskWords.clear();
  SpanFree.fill(NoSlice);
  MaskFree.fill(NoSlice);
  LiveSlices = 0;
}

void PreparedCache::growTo(std::size_t Count) {
  if (Entries.size() >= Count)
    return;
  // Growth may relocate entries; the span/mask pointers aim into the
  // arenas, which do not move here, but each entry's Prep.NumsBegin/
  // NumsEnd/MaskWords are plain pointers copied with the entry, so they
  // stay valid across the resize with no re-anchoring at all.
  Entries.resize(Count);
}

void PreparedCache::sizeToFunction() { growTo(F.numValues()); }

void PreparedCache::reanchorSpans() {
  const unsigned *Base = Spans.data();
  for (Entry &E : Entries) {
    if (!E.Built || E.NumsClass == 0)
      continue;
    std::size_t Len =
        static_cast<std::size_t>(E.Prep.NumsEnd - E.Prep.NumsBegin);
    E.Prep.NumsBegin = Base + E.NumsOff;
    E.Prep.NumsEnd = E.Prep.NumsBegin + Len;
  }
}

void PreparedCache::reanchorMasks() {
  const std::uint64_t *Base = MaskWords.data();
  for (Entry &E : Entries) {
    if (!E.Built || E.MaskClass == 0 || !E.Prep.MaskWords)
      continue;
    E.Prep.MaskWords = Base + E.MaskOff;
  }
}

std::uint32_t PreparedCache::allocSpanSlice(unsigned Class) {
  ++LiveSlices;
  if (SpanFree[Class] != NoSlice) {
    std::uint32_t Off = SpanFree[Class];
    SpanFree[Class] = Spans[Off]; // Intrusive next-free link.
    return Off;
  }
  std::size_t Off = Spans.size();
  const unsigned *Old = Spans.data();
  Spans.resize(Off + (std::size_t(1) << Class));
  if (Spans.data() != Old)
    reanchorSpans();
  return static_cast<std::uint32_t>(Off);
}

void PreparedCache::freeSpanSlice(unsigned Class, std::uint32_t Off) {
  assert(LiveSlices && "span slice freed twice");
  --LiveSlices;
  Spans[Off] = SpanFree[Class];
  SpanFree[Class] = Off;
}

std::uint32_t PreparedCache::allocMaskSlice(unsigned Class) {
  ++LiveSlices;
  if (MaskFree[Class] != NoSlice) {
    std::uint32_t Off = MaskFree[Class];
    MaskFree[Class] = static_cast<std::uint32_t>(MaskWords[Off]);
    return Off;
  }
  std::size_t Off = MaskWords.size();
  const std::uint64_t *Old = MaskWords.data();
  MaskWords.resize(Off + (std::size_t(1) << Class));
  if (MaskWords.data() != Old)
    reanchorMasks();
  return static_cast<std::uint32_t>(Off);
}

void PreparedCache::freeMaskSlice(unsigned Class, std::uint32_t Off) {
  assert(LiveSlices && "mask slice freed twice");
  --LiveSlices;
  MaskWords[Off] = MaskFree[Class];
  MaskFree[Class] = Off;
}

void PreparedCache::build(Entry &E, const Value &V) {
  assert(!V.defs().empty() && "prepared entry needs a def block");
  auto NumsH = pool::scratchArray();
  std::vector<unsigned> &Nums = *NumsH;
  appendLiveUseBlocks(V, Nums);
  for (unsigned &U : Nums)
    U = DT->num(U);
  std::sort(Nums.begin(), Nums.end());
  Nums.erase(std::unique(Nums.begin(), Nums.end()), Nums.end());

  // Size-class the span slice: reuse in place when the class still fits
  // (the common def-use rebuild), otherwise free the old slice to the
  // freelist and take a new one. Alloc may grow the arena and re-anchor
  // the other entries; this entry's classes are zeroed around the swap so
  // the re-anchor walk skips its (transient) state.
  unsigned Len = static_cast<unsigned>(Nums.size());
  unsigned Class = classFor(std::max<std::size_t>(1, Len));
  if (E.NumsClass == 0 || E.NumsClass - 1u != Class) {
    if (E.NumsClass) {
      freeSpanSlice(E.NumsClass - 1u, E.NumsOff);
      E.NumsClass = 0;
    }
    std::uint32_t Off = allocSpanSlice(Class);
    E.NumsOff = Off;
    E.NumsClass = static_cast<std::uint8_t>(Class + 1);
  }
  if (Len)
    std::memcpy(Spans.data() + E.NumsOff, Nums.data(),
                Len * sizeof(unsigned));

  E.Prep = LiveCheck::PreparedVar();
  Engine->prepareDef(defBlockId(V), E.Prep);
  E.Prep.NumsBegin = Spans.data() + E.NumsOff;
  E.Prep.NumsEnd = E.Prep.NumsBegin + Len;

  // Same threshold FunctionLiveness always used: switch to the word-level
  // R ∩ UseMask sweep once the distinct uses outnumber the words of a row.
  unsigned N = Engine->numNodes();
  unsigned MaskThreshold = std::max(8u, (N + 63) / 64);
  if (Len >= MaskThreshold) {
    unsigned Words = (N + 63) / 64;
    unsigned MClass = classFor(std::max(1u, Words));
    if (E.MaskClass == 0 || E.MaskClass - 1u != MClass) {
      if (E.MaskClass) {
        freeMaskSlice(E.MaskClass - 1u, E.MaskOff);
        E.MaskClass = 0;
      }
      std::uint32_t Off = allocMaskSlice(MClass);
      E.MaskOff = Off;
      E.MaskClass = static_cast<std::uint8_t>(MClass + 1);
    }
    std::uint64_t *MW = MaskWords.data() + E.MaskOff;
    std::memset(MW, 0, Words * sizeof(std::uint64_t));
    for (unsigned U : Nums)
      MW[U / 64] |= std::uint64_t(1) << (U % 64);
    E.Prep.MaskWords = MW;
    E.Prep.MaskNumWords = Words;
  } else {
    if (E.MaskClass) {
      freeMaskSlice(E.MaskClass - 1u, E.MaskOff);
      E.MaskClass = 0;
      E.MaskOff = 0;
    }
    E.Prep.clearMask();
  }

  E.CFGEpoch = F.cfgVersion();
  E.DefUseEpoch = V.defUseEpoch();
  E.Built = true;
}

const LiveCheck::PreparedVar &PreparedCache::ensureSlow(const Value &V) {
  // Values created after the last sizing (e.g. by a transform running on
  // top of the cache).
  growTo(std::size_t(V.id()) + 1);
  Entry &E = Entries[V.id()];
  if (!E.Built)
    ++Counts.Builds;
  else if (E.CFGEpoch != F.cfgVersion())
    ++Counts.EpochDrops;
  else
    ++Counts.Rebuilds;
  build(E, V);
  return E.Prep;
}

PreparedCacheStats PreparedCache::stats() const { return Counts; }

void PreparedCache::publishTelemetry() {
  static telemetry::Counter HitsC("ssalive_prepared_hits_total");
  static telemetry::Counter BuildsC("ssalive_prepared_builds_total");
  static telemetry::Counter RebuildsC("ssalive_prepared_rebuilds_total");
  static telemetry::Counter DropsC("ssalive_prepared_epoch_drops_total");
  // Gauges are process-wide levels; each cache publishes the *change* in
  // its own footprint since its last publish, so the gauge reads as the
  // sum across live caches and never needs locking.
  static telemetry::Gauge ArenaBytesG("ssalive_prepared_arena_bytes");
  static telemetry::Gauge ArenaSlicesG("ssalive_prepared_arena_slices");
  PreparedCacheStats S = stats();
  if (S.Hits > Published.Hits)
    HitsC.inc(S.Hits - Published.Hits);
  if (S.Builds > Published.Builds)
    BuildsC.inc(S.Builds - Published.Builds);
  if (S.Rebuilds > Published.Rebuilds)
    RebuildsC.inc(S.Rebuilds - Published.Rebuilds);
  if (S.EpochDrops > Published.EpochDrops)
    DropsC.inc(S.EpochDrops - Published.EpochDrops);
  Published = S;
  auto CurBytes = static_cast<std::int64_t>(arenaBytes());
  auto CurSlices = static_cast<std::int64_t>(liveSlices());
  if (CurBytes != PublishedArenaBytes)
    ArenaBytesG.add(CurBytes - PublishedArenaBytes);
  if (CurSlices != PublishedArenaSlices)
    ArenaSlicesG.add(CurSlices - PublishedArenaSlices);
  PublishedArenaBytes = CurBytes;
  PublishedArenaSlices = CurSlices;
}

std::size_t PreparedCache::arenaBytes() const {
  return Spans.capacity() * sizeof(unsigned) +
         MaskWords.capacity() * sizeof(std::uint64_t);
}

std::uint64_t PreparedCache::liveSlices() const { return LiveSlices; }

std::size_t PreparedCache::memoryBytes() const {
  return Entries.capacity() * sizeof(Entry) + arenaBytes() +
         sizeof(SpanFree) + sizeof(MaskFree);
}
