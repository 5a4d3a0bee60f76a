//===- bench/bench_storage.cpp - Arena engine vs data-flow baseline -------===//
//
// Part of the ssalive project, released under the MIT license.
//
//===----------------------------------------------------------------------===//
//
// Measures the arena-backed liveness-checking engine on its production
// query flow against the paper's "Native" data-flow comparator, on random
// strict-SSA procedures across CFG sizes. Each configuration is measured
// as the *query flow* a client actually runs, not just the innermost scan:
//
//   dataflow    DataflowLiveness (core of Section 6.2's "Native"): solved
//               live-in/live-out sets, one binary search per query.
//   arena       The prepared plane: per *value*, the chain is walked once
//               and prepared (use numbers sorted/deduped, def interval
//               coordinates resolved, bitset mask for high-use-count
//               values); per query only the block is translated and the
//               specialized kernel runs over contiguous R/T rows.
//
// Queries are drawn per value, mostly from the def's dominance interval
// (where the variable can be live and real clients ask), value-major —
// the access pattern of SSA destruction and interference checking.
//
// Two gates, both failing the run:
//   * both configurations must produce byte-identical answers;
//   * the engine's memoryBytes() must stay within the analytic arena size,
//     2 * n * ceil(n/64) * 8 bytes for the R and T matrices plus the O(n)
//     per-node side tables — nothing else may be resident.
// Each configuration runs one untimed warm pass, then Reps timed passes;
// the best pass is reported (standard practice to shed scheduler noise).
// Emits BENCH_storage.json with queries/s, memory bytes, and the
// arena-vs-dataflow speedup per size (tools/bench-compare gates the ratio
// against bench/baselines/BENCH_storage.json).
//
// The paper's Section-6.1 alternatives to the arena (sorted-array T rows,
// a per-row bitset layout, whole-interval block sweeps) were measured
// here and lost on speed and memory at every size; README.md records the
// figures.
//
//   bench_storage [--smoke]   --smoke shrinks sizes/reps for CI.
//
//===----------------------------------------------------------------------===//

#include "Harness.h"

#include "analysis/DFS.h"
#include "analysis/DomTree.h"
#include "core/LiveCheck.h"
#include "core/UseInfo.h"
#include "ir/CFG.h"
#include "ir/Function.h"
#include "liveness/DataflowLiveness.h"
#include "ssa/SSAConstruction.h"
#include "workload/CFGGenerator.h"
#include "workload/ProgramGenerator.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <functional>
#include <memory>
#include <string>
#include <vector>

using namespace ssalive;
using namespace ssalive::bench;

namespace {

struct QueryRec {
  std::uint32_t VarIdx;
  std::uint32_t Block;
  bool IsLiveOut;
};

std::uint64_t foldAnswer(std::uint64_t H, bool A) {
  return (H ^ (A ? 1u : 0u)) * 0x100000001b3ull;
}

double secondsSince(std::chrono::steady_clock::time_point Start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       Start)
      .count();
}

/// One configuration under measurement: a pass functor returning the
/// answer checksum, plus the best observed pass time. Passes of all
/// configurations are interleaved round-robin so every configuration
/// samples the same machine phases — on a shared single-core box,
/// back-to-back blocks of one configuration each see different noise and
/// the ratios drift run to run; interleaving + best-of cancels that.
struct Candidate {
  const char *Name;
  std::function<std::uint64_t()> Pass;
  std::size_t MemBytes = 0;
  double BestSecs = 1e100;
  std::uint64_t Checksum = 0;
};

} // namespace

int main(int Argc, char **Argv) {
  bool Smoke = false;
  for (int I = 1; I != Argc; ++I)
    if (std::strcmp(Argv[I], "--smoke") == 0)
      Smoke = true;

  std::vector<unsigned> Sizes =
      Smoke ? std::vector<unsigned>{32, 64}
            : std::vector<unsigned>{256, 1024, 2048};
  unsigned Reps = Smoke ? 2 : 5;
  unsigned BlocksPerVar = Smoke ? 16 : 64;

  std::printf("Arena engine vs data-flow baseline (single thread; identical "
              "answers and the\nanalytic arena size enforced; per config: "
              "one warm pass, best of %u timed\npasses; the arena flow "
              "prepares each value once)\n\n",
              Reps);

  TablePrinter Table({"Blocks", "Vars", "Queries", "Config", "Mq/s",
                      "Mem(KB)", "Speedup"});
  std::vector<JsonRecord> Records;
  bool AnswersAgree = true;
  bool MemoryWithinBound = true;
  std::vector<std::pair<unsigned, double>> SpeedupBySize;

  for (unsigned Blocks : Sizes) {
    // One random strict-SSA procedure per size (deterministic seed).
    RandomEngine Rng(Blocks * 9133ull + 7);
    CFGGenOptions GOpts;
    GOpts.TargetBlocks = Blocks;
    CFG G0 = generateCFG(GOpts, Rng);
    ProgramGenOptions POpts;
    auto F = generateProgram(G0, POpts, Rng);
    constructSSA(*F);

    CFG G = CFG::fromFunction(*F);
    DFS D(G);
    DomTree DT(G, D);
    unsigned N = G.numNodes();
    unsigned MaskThreshold = std::max(8u, (N + 63) / 64);

    // Engines under test: Propagated T sets, default scan options.
    LiveCheck Arena(G, D, DT);
    DataflowLiveness Dataflow(*F, G, D);

    // The analytic arena size: two N x N bit matrices of ceil(N/64)-word
    // rows, plus the per-node side tables (maxnum and back-target flag by
    // preorder number, the propagation self-bit set) and the two matrix
    // headers.
    std::size_t RowWords = (N + 63) / 64;
    std::size_t ArenaBound = 2 * std::size_t(N) * RowWords * 8 +
                             std::size_t(N) * (sizeof(unsigned) + 1) +
                             RowWords * 8 + 2 * sizeof(BitMatrix);
    if (Arena.memoryBytes() > ArenaBound) {
      std::printf("FAIL: arena engine holds %zu bytes at %u blocks, above "
                  "the analytic %zu\n",
                  Arena.memoryBytes(), N, ArenaBound);
      MemoryWithinBound = false;
    }

    // Queryable values and a value-major query stream. Blocks are drawn
    // 3-in-4 from the def's dominance interval, 1-in-4 uniform (so the
    // precondition-reject path stays represented).
    std::vector<const Value *> Vals;
    std::vector<unsigned> Defs;
    for (const auto &V : F->values())
      if (V->hasSingleDef() && V->hasUses()) {
        Vals.push_back(V.get());
        Defs.push_back(defBlockId(*V));
      }
    std::vector<QueryRec> Stream;
    for (std::uint32_t VI = 0; VI != Vals.size(); ++VI) {
      unsigned Lo = DT.num(Defs[VI]), Hi = DT.maxnum(Defs[VI]);
      for (unsigned K = 0; K != BlocksPerVar; ++K) {
        std::uint32_t Block = (K % 4 == 3 || Hi == Lo)
                                  ? Rng.nextBelow(N)
                                  : DT.nodeAtNum(Rng.nextInRange(Lo, Hi));
        Stream.push_back({VI, Block, (K & 1) != 0});
      }
    }
    std::uint64_t QueriesPerPass = Stream.size();

    std::vector<Candidate> Cands;

    // --- dataflow: the solved sets, one lookup per query. -----------------
    Cands.push_back(Candidate{
        "dataflow",
        [&] {
          std::uint64_t H = 0xcbf29ce484222325ull;
          for (const QueryRec &Q : Stream) {
            const Value &V = *Vals[Q.VarIdx];
            const BasicBlock &B = *F->block(Q.Block);
            bool A = Q.IsLiveOut ? Dataflow.isLiveOut(V, B)
                                 : Dataflow.isLiveIn(V, B);
            H = foldAnswer(H, A);
          }
          return H;
        },
        Dataflow.memoryBytes()});

    // --- arena: the prepared plane, one preparation per value (chain
    // walk, numbering, def coordinates, optional mask). -------------------
    std::vector<unsigned> Nums;
    BitVector Mask;
    Cands.push_back(Candidate{
        "arena",
        [&] {
          std::uint64_t H = 0xcbf29ce484222325ull;
          LiveCheck::PreparedVar PV;
          std::uint32_t Current = ~0u;
          for (const QueryRec &Q : Stream) {
            if (Q.VarIdx != Current) {
              Current = Q.VarIdx;
              const Value &V = *Vals[Q.VarIdx];
              Nums.clear();
              appendLiveUseBlocks(V, Nums);
              for (unsigned &U : Nums)
                U = DT.num(U);
              std::sort(Nums.begin(), Nums.end());
              Nums.erase(std::unique(Nums.begin(), Nums.end()), Nums.end());
              Arena.prepareDef(Defs[Q.VarIdx], PV);
              PV.NumsBegin = Nums.data();
              PV.NumsEnd = Nums.data() + Nums.size();
              if (Nums.size() >= MaskThreshold) {
                Mask.resize(N);
                Mask.reset();
                for (unsigned U : Nums)
                  Mask.set(U);
                PV.setMask(Mask);
              } else {
                PV.clearMask();
              }
            }
            bool A = Q.IsLiveOut ? Arena.isLiveOutPrepared(PV, Q.Block)
                                 : Arena.isLiveInPrepared(PV, Q.Block);
            H = foldAnswer(H, A);
          }
          return H;
        },
        Arena.memoryBytes()});

    // Warm every configuration once, then interleave the timed passes.
    for (Candidate &C : Cands)
      C.Checksum = C.Pass();
    for (unsigned R = 0; R != Reps; ++R)
      for (Candidate &C : Cands) {
        auto Start = std::chrono::steady_clock::now();
        std::uint64_t H = C.Pass();
        C.BestSecs = std::min(C.BestSecs, secondsSince(Start));
        if (H != C.Checksum) {
          std::printf("FAIL: %s answers unstable across passes\n", C.Name);
          AnswersAgree = false;
        }
      }

    struct Run {
      const char *Name;
      double Qps = 0;
      std::uint64_t Checksum = 0;
      std::size_t MemBytes = 0;
    };
    std::vector<Run> Runs;
    for (const Candidate &C : Cands)
      Runs.push_back(
          {C.Name, QueriesPerPass / C.BestSecs, C.Checksum, C.MemBytes});

    double DataflowQps = Runs[0].Qps;
    double ArenaSpeedup = 0;
    for (const Run &R : Runs) {
      if (R.Checksum != Runs[0].Checksum) {
        std::printf("FAIL: %s answers differ from dataflow at %u blocks "
                    "(%016llx vs %016llx)\n",
                    R.Name, Blocks,
                    static_cast<unsigned long long>(R.Checksum),
                    static_cast<unsigned long long>(Runs[0].Checksum));
        AnswersAgree = false;
      }
      double Speedup = R.Qps / DataflowQps;
      if (std::strcmp(R.Name, "arena") == 0)
        ArenaSpeedup = Speedup;
      Table.addRow({std::to_string(Blocks), std::to_string(Vals.size()),
                    std::to_string(QueriesPerPass), R.Name,
                    TablePrinter::fmt(R.Qps / 1e6),
                    TablePrinter::fmt(R.MemBytes / 1024.0),
                    TablePrinter::fmt(Speedup)});
      Records.push_back(JsonRecord()
                            .num("blocks", std::uint64_t(Blocks))
                            .str("config", R.Name)
                            .num("queries_per_second", R.Qps)
                            .num("memory_bytes", std::uint64_t(R.MemBytes))
                            .num("speedup_vs_dataflow", Speedup));
    }
    SpeedupBySize.push_back({Blocks, ArenaSpeedup});
  }

  Table.print();
  std::string JsonPath = writeBenchJson("storage", Records);
  if (!JsonPath.empty())
    std::printf("\nMachine-readable results: %s\n", JsonPath.c_str());

  std::printf("\narena vs dataflow:");
  for (auto [Blocks, S] : SpeedupBySize)
    std::printf(" %.2fx @ %u blocks;", S, Blocks);
  std::printf("\n");
  if (!MemoryWithinBound) {
    std::printf("FAIL: arena engine exceeds its analytic size\n");
    return 1;
  }
  if (!AnswersAgree) {
    std::printf("FAIL: arena and dataflow answers disagree\n");
    return 1;
  }
  return 0;
}
