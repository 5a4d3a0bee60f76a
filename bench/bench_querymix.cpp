//===- bench/bench_querymix.cpp - Prepared vs block-id on a skewed mix ----===//
//
// Part of the ssalive project, released under the MIT license.
//
//===----------------------------------------------------------------------===//
//
// The batch driver's production (prepared) plane against its block-id
// plane on a skewed query mix — the shape real clients send: one hot
// function receives most of the stream, values are drawn Zipf-ish so a few
// hot (high-use-count) values dominate, and blocks concentrate inside each
// def's dominance interval, where liveness is actually in question. Two
// driver configurations differing ONLY in Plane run the identical stream:
//
//   block-id  re-derives the variable per query: collects its use blocks
//             from the def-use chain, numbers them, then scans — the
//             differential oracle.
//   prepared  one cached PreparedCache entry per value (built in the warm
//             pass), so each query is a table read plus one scan kernel.
//
// Single thread: the ratio isolates what the per-value cache saves on a
// stream where hot values repeat, which travels across machines; the
// work-stealing scheduler is equivalence-tested (byte-identical answers)
// rather than gated here, because multi-core speedups depend on the
// runner's core count. Answers must be byte-identical across both configs
// and every pass; the run exits 1 otherwise. One untimed warm pass per
// config (steady-state prepared cache), then best-of timed passes. Emits
// BENCH_querymix.json with speedup_prepared_vs_blockid per tier — the
// ratio the CI trend gate tracks against the committed baseline, with a
// >= 1.0x target at the 1024-block tier.
//
//   bench_querymix [--smoke]   --smoke shrinks sizes/reps for CI.
//
//===----------------------------------------------------------------------===//

#include "Harness.h"

#include "core/UseInfo.h"
#include "pipeline/AnalysisManager.h"
#include "pipeline/BatchLivenessDriver.h"
#include "ssa/SSAConstruction.h"
#include "workload/CFGGenerator.h"
#include "workload/ProgramGenerator.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

using namespace ssalive;
using namespace ssalive::bench;

namespace {

double secondsSince(std::chrono::steady_clock::time_point Start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       Start)
      .count();
}

/// One queryable value of one function, with the preorder interval its
/// queries concentrate in.
struct HotValue {
  std::uint32_t ValueId;
  unsigned Lo, Hi;   ///< Dominance preorder interval of the def.
  std::size_t Uses;  ///< Use count — the sort key for hotness.
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
  // Smoke passes last well under a millisecond, so they take more
  // best-of repetitions than the full tiers to keep the gated ratio stable.
  unsigned Reps = Smoke ? 7 : 5;
  constexpr unsigned FuncsPerModule = 4;
  constexpr unsigned QueriesPerBlock = 96;

  std::printf("Query-mix shootout: prepared plane vs block-id plane\n"
              "(single thread; skewed stream: hot function, Zipf-ish hot "
              "values,\ninterval-concentrated blocks; identical answers "
              "enforced;\nper config: one warm pass, best of %u timed "
              "passes)\n\n",
              Reps);

  TablePrinter Table({"Blocks", "Queries", "Config", "Mq/s", "Speedup"});
  std::vector<JsonRecord> Records;
  bool AnswersAgree = true;
  constexpr unsigned LargeTier = 1024;
  double LargeSpeedup = 0;
  std::vector<std::pair<unsigned, double>> SpeedupBySize;

  for (unsigned Blocks : Sizes) {
    RandomEngine Rng(Blocks * 7919ull + 3);

    // The module: FuncsPerModule random strict-SSA procedures of this
    // tier's size. Function 0 is the hot one below.
    std::vector<std::unique_ptr<Function>> Owned;
    std::vector<const Function *> Funcs;
    for (unsigned FI = 0; FI != FuncsPerModule; ++FI) {
      CFGGenOptions GOpts;
      GOpts.TargetBlocks = Blocks;
      CFG G0 = generateCFG(GOpts, Rng);
      ProgramGenOptions POpts;
      auto F = generateProgram(G0, POpts, Rng);
      constructSSA(*F);
      Owned.push_back(std::move(F));
      Funcs.push_back(Owned.back().get());
    }

    // Per function: the queryable values sorted hottest (most uses) first,
    // so the Zipf draw concentrates the stream on the values whose
    // interval scans and use-chain walks cost the most.
    AnalysisManager AM;
    std::vector<std::vector<HotValue>> Hot(FuncsPerModule);
    for (unsigned FI = 0; FI != FuncsPerModule; ++FI) {
      const DomTree &DT = AM.domTree(*Funcs[FI]);
      for (const auto &V : Funcs[FI]->values()) {
        if (!V->hasSingleDef() || !V->hasUses())
          continue;
        unsigned Def = defBlockId(*V);
        Hot[FI].push_back(
            {V->id(), DT.num(Def), DT.maxnum(Def), V->uses().size()});
      }
      std::sort(Hot[FI].begin(), Hot[FI].end(),
                [](const HotValue &A, const HotValue &B) {
                  if (A.Uses != B.Uses)
                    return A.Uses > B.Uses;
                  return A.ValueId < B.ValueId;
                });
    }

    // The skewed stream: ~60% of queries hit function 0; the value rank is
    // cubed-uniform (Zipf-ish — rank 0 is drawn far more than rank k); the
    // block is 3-in-4 inside the def's dominance interval.
    const DomTree *Trees[FuncsPerModule];
    for (unsigned FI = 0; FI != FuncsPerModule; ++FI)
      Trees[FI] = &AM.domTree(*Funcs[FI]);
    std::vector<BatchQuery> Workload;
    std::size_t NumQueries = std::size_t(Blocks) * QueriesPerBlock;
    Workload.reserve(NumQueries);
    for (std::size_t I = 0; I != NumQueries; ++I) {
      unsigned FI = Rng.nextBelow(10) < 6
                        ? 0
                        : 1 + Rng.nextBelow(FuncsPerModule - 1);
      const std::vector<HotValue> &Vals = Hot[FI];
      double U = Rng.nextDouble();
      const HotValue &V =
          Vals[std::size_t(double(Vals.size()) * U * U * U)];
      std::uint32_t Block =
          (Rng.nextBelow(4) == 3 || V.Hi == V.Lo)
              ? Rng.nextBelow(Funcs[FI]->numBlocks())
              : Trees[FI]->nodeAtNum(Rng.nextInRange(V.Lo, V.Hi));
      Workload.push_back({FI, V.ValueId, Block, Rng.nextBelow(2) != 0});
    }

    // The two configurations, differing only in Plane.
    BatchOptions BOpts, POpts;
    BOpts.Threads = POpts.Threads = 1;
    BOpts.Plane = QueryPlane::BlockId;
    POpts.Plane = QueryPlane::Prepared;
    BatchLivenessDriver BlockId(Funcs, BOpts);
    BatchLivenessDriver Prepared(Funcs, POpts);

    // Warm pass: populates the prepared caches and pins the reference
    // answers both configs (and every later pass) must reproduce.
    BatchResult Reference = BlockId.run(Workload);
    BatchResult PreparedWarm = Prepared.run(Workload);
    if (PreparedWarm.Answers != Reference.Answers) {
      std::printf("FAIL: prepared answers differ from block-id at %u "
                  "blocks\n",
                  Blocks);
      AnswersAgree = false;
    }

    double BlockIdBest = 1e100, PreparedBest = 1e100;
    for (unsigned R = 0; R != Reps; ++R) {
      auto StartB = std::chrono::steady_clock::now();
      BatchResult RB = BlockId.run(Workload);
      BlockIdBest = std::min(BlockIdBest, secondsSince(StartB));
      auto StartP = std::chrono::steady_clock::now();
      BatchResult RP = Prepared.run(Workload);
      PreparedBest = std::min(PreparedBest, secondsSince(StartP));
      if (RB.Answers != Reference.Answers ||
          RP.Answers != Reference.Answers) {
        std::printf("FAIL: answers unstable across passes at %u blocks\n",
                    Blocks);
        AnswersAgree = false;
      }
    }

    double BlockIdQps = double(NumQueries) / BlockIdBest;
    double PreparedQps = double(NumQueries) / PreparedBest;
    double Speedup = PreparedQps / BlockIdQps;
    Table.addRow({std::to_string(Blocks), std::to_string(NumQueries),
                  "block-id", TablePrinter::fmt(BlockIdQps / 1e6),
                  TablePrinter::fmt(1.0)});
    Table.addRow({std::to_string(Blocks), std::to_string(NumQueries),
                  "prepared", TablePrinter::fmt(PreparedQps / 1e6),
                  TablePrinter::fmt(Speedup)});
    Records.push_back(
        JsonRecord()
            .num("blocks", std::uint64_t(Blocks))
            .num("queries", std::uint64_t(NumQueries))
            .num("blockid_queries_per_second", BlockIdQps)
            .num("prepared_queries_per_second", PreparedQps)
            .num("speedup_prepared_vs_blockid", Speedup));
    SpeedupBySize.push_back({Blocks, Speedup});
    if (Blocks == LargeTier)
      LargeSpeedup = Speedup;
  }

  Table.print();
  std::string JsonPath = writeBenchJson("querymix", Records);
  if (!JsonPath.empty())
    std::printf("\nMachine-readable results: %s\n", JsonPath.c_str());

  std::printf("\nprepared vs block-id plane:");
  for (auto [Blocks, S] : SpeedupBySize)
    std::printf(" %.2fx @ %u blocks;", S, Blocks);
  std::printf("\n");
  if (LargeSpeedup != 0)
    std::printf("large workload (%u blocks): %.2fx (target >= 1.0x) %s\n",
                LargeTier, LargeSpeedup,
                LargeSpeedup >= 1.0 ? "PASS" : "BELOW TARGET");
  std::printf("note: single-thread by design — the work-stealing scheduler "
              "adds multi-core\nthroughput on top of this ratio, but core-"
              "count-dependent speedups do not\ntravel across runners, so "
              "they are equivalence-tested rather than gated.\n");
  if (!AnswersAgree) {
    std::printf("FAIL: prepared and block-id answers disagree\n");
    return 1;
  }
  return 0;
}
