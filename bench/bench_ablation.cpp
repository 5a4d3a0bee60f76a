//===- bench/bench_ablation.cpp - Design-choice ablations ------------------===//
//
// Part of the ssalive project, released under the MIT license.
//
//===----------------------------------------------------------------------===//
//
// Ablation A: the Section 5.1 query optimization, dominance-ordered
// scanning with subtree skipping, switched on and off. (Ablation B, exact
// Definition-5 T sets with Theorem 2's fast path, lost to the propagated
// scheme and is retired; its last figures are in README.md.)
//
// Each variant answers the identical query stream; we report precompute
// cycles, query cycles, and the engine's internal scan counters. Every
// variant computes the same function, so the run fails (exit 1) when a
// variant's answer checksum differs from the first row's.
//
//===----------------------------------------------------------------------===//

#include "Harness.h"

#include "analysis/DFS.h"
#include "analysis/DomTree.h"
#include "core/LiveCheck.h"
#include "core/UseInfo.h"
#include "ir/CFG.h"
#include "ir/Clone.h"
#include "core/FunctionLiveness.h"
#include "ssa/SSADestruction.h"
#include "support/CycleTimer.h"

#include <cstdio>

using namespace ssalive;
using namespace ssalive::bench;

namespace {

struct Variant {
  const char *Name;
  LiveCheckOptions Opts;
};

struct Workload {
  std::unique_ptr<Function> F;
  std::vector<RecordedQuery> Trace;
};

Workload makeWorkload(const SpecProfile &P, RandomEngine &Rng) {
  Workload W;
  W.F = synthesizeProcedure(P, Rng);
  auto Clone = cloneFunction(*W.F);
  FunctionLiveness Live(*Clone);
  DestructionOptions Opts;
  Opts.RecordTrace = true;
  W.Trace = destructSSA(*Clone, Live, Opts).Trace;
  return W;
}

} // namespace

int main() {
  const Variant Variants[] = {
      {"propagated+skip", {}},
      {"propagated-noskip", {.SubtreeSkip = false}},
  };

  std::printf("Ablation: query-scan subtree skipping\n(identical SSA-destruction query stream over "
              "a 176.gcc-profile corpus)\n\n");

  // Build a corpus of workloads once.
  RandomEngine Rng(0xAB1A7E);
  const SpecProfile &P = spec2000Profiles()[2]; // 176.gcc shape.
  std::vector<Workload> Corpus;
  std::uint64_t TotalQueries = 0;
  for (unsigned I = 0; I != 300; ++I) {
    Corpus.push_back(makeWorkload(P, Rng));
    TotalQueries += Corpus.back().Trace.size();
  }

  TablePrinter T({"Variant", "Pre(cyc/proc)", "Query(cyc)",
                  "Targets/query", "UseTests/query", "Checksum"});

  bool ChecksumsAgree = true;
  unsigned FirstChecksum = 0;
  for (const Variant &V : Variants) {
    std::uint64_t PreCycles = 0, QueryCycles = 0;
    std::uint64_t Targets = 0, UseTests = 0;
    unsigned Checksum = 0;
    for (const Workload &W : Corpus) {
      CFG G = CFG::fromFunction(*W.F);
      DFS D(G);
      DomTree DT(G, D);
      CycleTimer Pre;
      Pre.start();
      LiveCheck Engine(G, D, DT, V.Opts);
      Pre.stop();
      PreCycles += Pre.totalCycles();

      std::vector<unsigned> Uses;
      LiveCheckStats Stats;
      CycleTimer Q;
      Q.start();
      for (const RecordedQuery &RQ : W.Trace) {
        const Value &Val = *W.F->value(RQ.ValueId);
        Uses.clear();
        appendLiveUseBlocks(Val, Uses);
        bool Answer =
            RQ.IsLiveOut
                ? Engine.isLiveOut(defBlockId(Val), RQ.BlockId, Uses, &Stats)
                : Engine.isLiveIn(defBlockId(Val), RQ.BlockId, Uses, &Stats);
        Checksum = (Checksum << 1) ^ unsigned(Answer) ^ (Checksum >> 19);
      }
      Q.stop();
      QueryCycles += Q.totalCycles();
      Targets += Stats.TargetsVisited;
      UseTests += Stats.UseTests;
    }
    if (&V == Variants)
      FirstChecksum = Checksum;
    else if (Checksum != FirstChecksum)
      ChecksumsAgree = false;
    T.addRow({V.Name, TablePrinter::fmt(double(PreCycles) / Corpus.size(), 0),
              TablePrinter::fmt(double(QueryCycles) / double(TotalQueries)),
              TablePrinter::fmt(double(Targets) / double(TotalQueries)),
              TablePrinter::fmt(double(UseTests) / double(TotalQueries)),
              std::to_string(Checksum)});
  }
  T.print();
  std::printf("\n%llu queries over %zu procedures. Checksums must agree "
              "across variants\n(every variant computes the same "
              "function).\n",
              static_cast<unsigned long long>(TotalQueries), Corpus.size());
  if (!ChecksumsAgree) {
    std::fprintf(stderr, "FAIL: a variant's checksum differs from %s's\n",
                 Variants[0].Name);
    return 1;
  }
  return 0;
}
