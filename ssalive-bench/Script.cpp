//===- ssalive-bench/Script.cpp - Seeded frame scripts and their oracle ---===//
//
// Part of the ssalive project, released under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "Script.h"

#include "analysis/DFS.h"
#include "analysis/DomTree.h"
#include "core/UseInfo.h"
#include "ir/CFG.h"
#include "ir/IRParser.h"
#include "ir/IRPrinter.h"
#include "ir/Instruction.h"
#include "liveness/DataflowLiveness.h"
#include "pipeline/BatchLivenessDriver.h"
#include "server/Protocol.h"
#include "ssa/SSAConstruction.h"
#include "workload/CFGGenerator.h"
#include "workload/CFGMutator.h"
#include "workload/ProgramGenerator.h"
#include "workload/SpecProfile.h"

#include <algorithm>
#include <cstring>
#include <future>
#include <memory>
#include <stdexcept>

using namespace ssalive;
using namespace ssalive::benchmark;
namespace proto = ssalive::protocol;

namespace {

/// uniform-4k and edit-interleaved: SPEC-profile procedures.
constexpr unsigned SpecProcedures = 64;
/// skewed-large: a few big functions; function 0 is the hot one.
constexpr unsigned LargeFunctions = 4;
constexpr unsigned LargeBlocks = 2048;

constexpr unsigned BigFrame = 4096;  ///< Queries per frame, query workloads.
constexpr unsigned PoolFrames = 64;  ///< Cycled frames per connection.
constexpr unsigned SmallFrame = 64;  ///< Queries per frame, edit workload.
constexpr unsigned SmallPool = 512;  ///< Request pool, edit workload.
constexpr unsigned FramesPerEdit = 8;
/// Edits per probe round and connection: a round takes tens of ms either
/// way (small functions repair in tens of µs, 2048-block ones in ms).
constexpr unsigned SpecProbeEdits = 2048;
constexpr unsigned LargeProbeEdits = 512;
constexpr unsigned EditLocality = 12;

std::uint64_t mix(std::uint64_t Seed, std::uint64_t Salt) {
  std::uint64_t X = Seed * 0x9E3779B97F4A7C15ull + Salt * 0xBF58476D1CE4E5B9ull;
  X ^= X >> 31;
  return X * 0x94D049BB133111EBull + 1;
}

std::unique_ptr<Function> synthesize(unsigned Blocks,
                                     const ProgramGenOptions &POpts,
                                     RandomEngine &Rng) {
  CFGGenOptions GOpts;
  GOpts.TargetBlocks = Blocks;
  CFG G = generateCFG(GOpts, Rng);
  std::unique_ptr<Function> F = generateProgram(G, POpts, Rng);
  constructSSA(*F);
  return F;
}

/// The 176.gcc procedure mix. Block counts are the profile's own samples,
/// stratified (the middle order statistic of each of N equal slices of
/// 256N draws) so that a seed changes the procedures but hardly the size
/// distribution: with plain N draws, one seed's 2000-block outlier would
/// swing the whole module's throughput, set-up time and peak memory.
std::string specModule(RandomEngine &Rng) {
  const SpecProfile *P = nullptr;
  for (const SpecProfile &Row : spec2000Profiles())
    if (std::strcmp(Row.Name, "176.gcc") == 0)
      P = &Row;
  if (!P)
    throw std::runtime_error("176.gcc profile row missing");
  std::vector<unsigned> Draws;
  constexpr unsigned PerSlice = 256;
  for (unsigned I = 0; I != PerSlice * SpecProcedures; ++I)
    Draws.push_back(sampleBlockCount(*P, Rng));
  std::sort(Draws.begin(), Draws.end());
  ProgramGenOptions POpts;
  POpts.ReadsAtMost1 = P->PctUsesLe1;
  POpts.ReadsAtMost2 = P->PctUsesLe2;
  POpts.ReadsAtMost3 = P->PctUsesLe3;
  POpts.ReadsAtMost4 = P->PctUsesLe4;
  POpts.MaxReads = P->MaxUses;
  std::string Text;
  for (unsigned I = 0; I != SpecProcedures; ++I)
    Text += printFunction(*synthesize(Draws[PerSlice * I + PerSlice / 2],
                                      POpts, Rng)) +
            "\n";
  return Text;
}

std::string largeModule(RandomEngine &Rng) {
  std::string Text;
  for (unsigned I = 0; I != LargeFunctions; ++I)
    Text += printFunction(*synthesize(LargeBlocks, {}, Rng)) + "\n";
  return Text;
}

bool queryable(const Value &V) { return V.hasSingleDef() && V.hasUses(); }

/// The reference answers: one iterative data-flow solve per function
/// (liveness/DataflowLiveness.h, in its bit-vector form: the cheapest to
/// re-solve after every edit) over a private parse of the module,
/// re-solved on the next query for exactly the function an edit touched.
class Oracle {
public:
  explicit Oracle(const std::string &Text) {
    ModuleParseResult P = parseModule(Text);
    if (!P.Error.empty())
      throw std::runtime_error("module does not parse: " + P.Error);
    Module = std::move(P.Funcs);
    for (const auto &F : Module)
      Funcs.push_back(F.get());
    Engines.resize(Module.size());
  }

  const std::vector<const Function *> &functions() const { return Funcs; }
  Function &function(unsigned I) { return *Module[I]; }

  void invalidate(unsigned I) { Engines[I].reset(); }

  std::uint8_t answer(const BatchQuery &Q) {
    const Function &F = *Module[Q.FuncIndex];
    const Value &V = *F.value(Q.ValueId);
    if (!queryable(V))
      return 0;
    const BasicBlock &B = *F.block(Q.BlockId);
    std::unique_ptr<BitVectorDataflowLiveness> &E = Engines[Q.FuncIndex];
    if (!E)
      E = std::make_unique<BitVectorDataflowLiveness>(F);
    return Q.IsLiveOut ? E->isLiveOut(V, B) : E->isLiveIn(V, B);
  }

private:
  std::vector<std::unique_ptr<Function>> Module;
  std::vector<const Function *> Funcs;
  std::vector<std::unique_ptr<BitVectorDataflowLiveness>> Engines;
};

/// Strict SSA: every single-def value's def block dominates each of its
/// Definition-1 use blocks under \p DT. LiveCheck is defined only for
/// strict programs, and CFGMutator keeps reachability, not strictness.
bool usesDominated(const Function &F, const DomTree &DT) {
  for (const auto &V : F.values()) {
    if (!V->hasSingleDef())
      continue;
    unsigned Def = defBlockId(*V);
    for (const Use &U : V->uses())
      if (!DT.dominates(Def, liveUseBlock(U)))
        return false;
  }
  return true;
}

/// Draws one mutation of \p F's block graph and applies it only if \p F
/// stays strict. The prediction runs before \p F is touched: the post-edit
/// graph is the mutator's own scratch copy, and the post-edit use blocks
/// are the current ones plus the φ operand that each new predecessor edge
/// duplicates (its φs' first surviving operand, or the φ itself). A φ
/// operand the edit removes is still checked, which only makes the filter
/// stricter. After applying, the real use blocks are checked against the
/// same dominator tree: a wrong prediction stops the run instead of
/// surfacing as server failures. Returns nullopt when no mutation applies
/// or it would break strictness (\p Rejected is set then).
std::optional<Mutation> applyStrictEdit(Function &F, RandomEngine &Rng,
                                        bool &Rejected) {
  CFGMutatorOptions MOpts;
  MOpts.LocalityWindow = EditLocality;
  CFG After = CFG::fromFunction(F);
  std::optional<Mutation> M = mutateCFG(After, Rng, MOpts);
  if (!M)
    return std::nullopt;
  DFS D(After);
  DomTree DT(After, D);
  // φs in \p Block gain an operand incoming from \p Pred, after losing
  // the one from \p Removed (if any).
  auto NewPhiUsesDominated = [&](unsigned Pred, unsigned Block,
                                 int Removed) {
    for (const Instruction *Phi : F.block(Block)->phis()) {
      const Value *Front = Phi->result();
      bool Skipped = Removed < 0;
      for (unsigned K = 0; K != Phi->operands().size(); ++K) {
        if (!Skipped && int(Phi->incomingBlock(K)->id()) == Removed) {
          Skipped = true;
          continue;
        }
        Front = Phi->operands()[K];
        break;
      }
      if (Front->hasSingleDef() && !DT.dominates(defBlockId(*Front), Pred))
        return false;
    }
    return true;
  };
  bool Strict = true;
  switch (M->Kind) {
  case MutationKind::AddEdge:
    Strict = NewPhiUsesDominated(M->From, M->To, -1);
    break;
  case MutationKind::RemoveEdge:
    break;
  case MutationKind::RetargetBranch:
    Strict = NewPhiUsesDominated(M->From, M->To2, -1);
    break;
  case MutationKind::SplitBlock:
    for (const BasicBlock *S : F.block(M->From)->successors())
      Strict = Strict && NewPhiUsesDominated(M->To, S->id(), int(M->From));
    break;
  }
  Rejected = !(Strict && usesDominated(F, DT));
  if (Rejected)
    return std::nullopt;
  if (!applyFunctionMutation(F, *M) || !usesDominated(F, DT))
    throw std::runtime_error("edit strictness prediction was wrong");
  return M;
}

/// Builds the frames of one connection into \p C.
class FrameWriter {
public:
  FrameWriter(ConnScript &C, Oracle &O) : C(C), O(O) {}

  std::uint32_t addRequest(std::vector<std::uint8_t> Bytes) {
    C.Requests.push_back(std::move(Bytes));
    return static_cast<std::uint32_t>(C.Requests.size() - 1);
  }

  Frame expect(FrameKind Kind, std::uint32_t Queries, std::uint32_t Request,
               const std::vector<std::uint8_t> &Reply) {
    Frame F;
    F.Kind = Kind;
    F.Queries = Queries;
    F.Request = Request;
    F.ExpectedOff = C.Expected.size();
    F.ExpectedLen = static_cast<std::uint32_t>(Reply.size());
    C.Expected.insert(C.Expected.end(), Reply.begin(), Reply.end());
    return F;
  }

  /// Encodes \p Qs as one QueryBatch request (no expectation yet).
  std::uint32_t queryRequest(const std::vector<BatchQuery> &Qs) {
    std::vector<proto::QueryItem> Items;
    Items.reserve(Qs.size());
    for (const BatchQuery &Q : Qs)
      Items.push_back({Q.FuncIndex, Q.ValueId, Q.BlockId, Q.IsLiveOut});
    return addRequest(proto::encodeQueryBatch(Items));
  }

  /// A QueryBatch frame answered by the oracle's current state.
  Frame queryFrame(const std::vector<BatchQuery> &Qs, std::uint32_t Request) {
    std::vector<std::uint8_t> Answers;
    Answers.reserve(Qs.size());
    for (const BatchQuery &Q : Qs)
      Answers.push_back(O.answer(Q));
    return expect(FrameKind::Query, static_cast<std::uint32_t>(Qs.size()),
                  Request, proto::encodeAnswers(Answers));
  }

  Frame queryFrame(const std::vector<BatchQuery> &Qs) {
    return queryFrame(Qs, queryRequest(Qs));
  }

  /// Chooses one strictness-preserving localized edit, applies it to the
  /// oracle's module, and returns its EditCFG frame.
  Frame editFrame(RandomEngine &Rng) {
    const unsigned N = static_cast<unsigned>(O.functions().size());
    for (unsigned Attempt = 0; Attempt != 1024; ++Attempt) {
      unsigned FI = Rng.nextBelow(N);
      Function &F = O.function(FI);
      bool Rejected = false;
      std::optional<Mutation> M = applyStrictEdit(F, Rng, Rejected);
      C.EditsRejected += Rejected;
      if (!M)
        continue;
      O.invalidate(FI);
      ++C.EditsKept;
      proto::EditItem E;
      E.Kind = static_cast<std::uint8_t>(M->Kind);
      E.FuncIndex = FI;
      E.From = M->From;
      E.To = M->To;
      E.To2 = M->To2;
      std::uint32_t Req = addRequest(proto::encodeEditBatch({E}));
      return expect(FrameKind::Edit, 0, Req,
                    proto::encodeEditApplied({{1, F.cfgVersion()}}));
    }
    throw std::runtime_error("no strictness-preserving edit found");
  }

  /// The post-window edit probe. It reloads the module, so its edits start
  /// from the text a fresh oracle parsed, whatever part of an edit script
  /// the window consumed; a cold frame rebuilds the engines the edits then
  /// repair. One check frame over the whole edited module ends it
  /// (re-solving only the edited functions).
  void probe(const Script &S, RandomEngine &Rng) {
    C.Probe.push_back(expect(FrameKind::Load, 0, addRequest(S.LoadRequest),
                             S.ExpectedLoaded));
    C.Probe.push_back(queryFrame(BatchLivenessDriver::generateWorkload(
        O.functions(), Rng.next(), BigFrame)));
    unsigned Edits =
        S.W == Workload::SkewedLarge ? LargeProbeEdits : SpecProbeEdits;
    for (unsigned I = 0; I != Edits; ++I)
      C.Probe.push_back(editFrame(Rng));
    C.Probe.push_back(queryFrame(BatchLivenessDriver::generateWorkload(
        O.functions(), Rng.next(), BigFrame)));
  }

private:
  ConnScript &C;
  Oracle &O;
};

/// bench_querymix's skewed stream: ~60% of queries hit function 0, values
/// ranked by use count are drawn cubed-uniform (rank 0 most often), and 3
/// in 4 blocks fall inside the def's dominance interval.
class SkewedStream {
public:
  explicit SkewedStream(const std::vector<const Function *> &Funcs)
      : Funcs(Funcs) {
    for (const Function *F : Funcs) {
      Trees.push_back(std::make_unique<OwnedTree>(CFG::fromFunction(*F)));
      const DomTree &DT = Trees.back()->T;
      std::vector<Hot> H;
      for (const auto &V : F->values()) {
        if (!queryable(*V))
          continue;
        unsigned Def = defBlockId(*V);
        H.push_back({V->id(), DT.num(Def), DT.maxnum(Def), V->uses().size()});
      }
      std::sort(H.begin(), H.end(), [](const Hot &A, const Hot &B) {
        return A.Uses != B.Uses ? A.Uses > B.Uses : A.ValueId < B.ValueId;
      });
      Ranked.push_back(std::move(H));
    }
  }

  std::vector<BatchQuery> draw(RandomEngine &Rng, unsigned Count) const {
    std::vector<BatchQuery> Qs;
    Qs.reserve(Count);
    const unsigned N = static_cast<unsigned>(Funcs.size());
    for (unsigned I = 0; I != Count; ++I) {
      unsigned FI = Rng.nextBelow(10) < 6 ? 0 : 1 + Rng.nextBelow(N - 1);
      const std::vector<Hot> &Vals = Ranked[FI];
      double U = Rng.nextDouble();
      const Hot &V = Vals[std::size_t(double(Vals.size()) * U * U * U)];
      std::uint32_t Block =
          (Rng.nextBelow(4) == 3 || V.Hi == V.Lo)
              ? Rng.nextBelow(Funcs[FI]->numBlocks())
              : Trees[FI]->T.nodeAtNum(Rng.nextInRange(V.Lo, V.Hi));
      Qs.push_back({FI, V.ValueId, Block, Rng.nextBelow(2) != 0});
    }
    return Qs;
  }

private:
  struct Hot {
    std::uint32_t ValueId;
    unsigned Lo, Hi;
    std::size_t Uses;
  };
  struct OwnedTree {
    CFG G;
    DFS D;
    DomTree T;
    explicit OwnedTree(CFG Graph) : G(std::move(Graph)), D(G), T(G, D) {}
  };
  const std::vector<const Function *> &Funcs;
  std::vector<std::unique_ptr<OwnedTree>> Trees;
  std::vector<std::vector<Hot>> Ranked;
};

} // namespace

bool ssalive::benchmark::parseWorkload(const std::string &Name,
                                       Workload &Out) {
  for (Workload W : {Workload::Uniform4k, Workload::SkewedLarge,
                     Workload::EditInterleaved})
    if (Name == workloadName(W)) {
      Out = W;
      return true;
    }
  return false;
}

const char *ssalive::benchmark::workloadName(Workload W) {
  switch (W) {
  case Workload::Uniform4k:
    return "uniform-4k";
  case Workload::SkewedLarge:
    return "skewed-large";
  case Workload::EditInterleaved:
    return "edit-interleaved";
  }
  return "unknown";
}

void ConnScript::corrupt(const Frame &F) {
  Expected[F.ExpectedOff + F.ExpectedLen - 1] ^= 1;
}

namespace {

/// One connection's frames. Each connection is its own session with its
/// own copy of the module, so each gets its own oracle (edits diverge the
/// copies) and its own random stream.
ConnScript buildConn(const Script &S, const ScriptOptions &Opts,
                     unsigned CI) {
  ConnScript C;
  Oracle O(S.ModuleText);
  FrameWriter B(C, O);
  RandomEngine Rng(mix(S.Seed, 100 + CI));
  const std::vector<const Function *> &Funcs = O.functions();
  // The uniform stream, cut into frames (one draw: each draw scans the
  // whole module for queryable values).
  auto Uniform = [&](unsigned Frames, unsigned Size) {
    std::vector<BatchQuery> All = BatchLivenessDriver::generateWorkload(
        Funcs, Rng.next(), std::size_t(Frames) * Size);
    std::vector<std::vector<BatchQuery>> Out;
    for (unsigned I = 0; I != Frames; ++I)
      Out.emplace_back(All.begin() + std::size_t(I) * Size,
                       All.begin() + std::size_t(I + 1) * Size);
    return Out;
  };
  switch (S.W) {
  case Workload::Uniform4k: {
    std::vector<std::vector<BatchQuery>> Frames = Uniform(1 + PoolFrames, BigFrame);
    C.Cold = B.queryFrame(Frames[0]);
    C.Cyclic = true;
    for (unsigned I = 1; I != Frames.size(); ++I)
      C.Main.push_back(B.queryFrame(Frames[I]));
    break;
  }
  case Workload::SkewedLarge: {
    SkewedStream Stream(Funcs);
    C.Cold = B.queryFrame(Stream.draw(Rng, BigFrame));
    C.Cyclic = true;
    for (unsigned I = 0; I != PoolFrames; ++I)
      C.Main.push_back(B.queryFrame(Stream.draw(Rng, BigFrame)));
    break;
  }
  case Workload::EditInterleaved: {
    // A pool of 64-query requests shared by every step; only the expected
    // replies are per step, since each edit changes them.
    std::vector<std::vector<BatchQuery>> Pool = Uniform(1 + SmallPool, SmallFrame);
    C.Cold = B.queryFrame(Pool.front());
    Pool.erase(Pool.begin());
    std::vector<std::uint32_t> PoolReq;
    for (const std::vector<BatchQuery> &Qs : Pool)
      PoolReq.push_back(B.queryRequest(Qs));
    unsigned Next = 0;
    for (unsigned Step = 0; Step != Opts.EditSteps; ++Step) {
      C.Main.push_back(B.editFrame(Rng));
      for (unsigned J = 0; J != FramesPerEdit; ++J) {
        C.Main.push_back(B.queryFrame(Pool[Next], PoolReq[Next]));
        Next = (Next + 1) % SmallPool;
      }
    }
    break;
  }
  }
  return C;
}

/// Connection \p CI's probe, built apart (own oracle, own random stream)
/// so that it is generated beside the main frames.
ConnScript buildProbe(const Script &S, unsigned CI) {
  ConnScript C;
  Oracle O(S.ModuleText);
  RandomEngine Rng(mix(S.Seed, 200 + CI));
  FrameWriter(C, O).probe(S, Rng);
  return C;
}

/// Moves \p P's probe frames (and the requests and replies they index)
/// into \p C.
void mergeProbe(ConnScript &C, ConnScript &&P) {
  const auto RequestBase = static_cast<std::uint32_t>(C.Requests.size());
  const std::uint64_t ExpectedBase = C.Expected.size();
  for (std::vector<std::uint8_t> &R : P.Requests)
    C.Requests.push_back(std::move(R));
  C.Expected.insert(C.Expected.end(), P.Expected.begin(), P.Expected.end());
  for (Frame F : P.Probe) {
    F.Request += RequestBase;
    F.ExpectedOff += ExpectedBase;
    C.Probe.push_back(F);
  }
  C.EditsKept += P.EditsKept;
  C.EditsRejected += P.EditsRejected;
}

} // namespace

Script ssalive::benchmark::buildScript(Workload W, std::uint64_t Seed,
                                       const ScriptOptions &Opts) {
  Script S;
  S.W = W;
  S.Seed = Seed;
  RandomEngine ModuleRng(mix(Seed, 1));
  S.ModuleText = W == Workload::SkewedLarge ? largeModule(ModuleRng)
                                            : specModule(ModuleRng);
  S.LoadRequest = proto::encodeLoadModule(
      static_cast<std::uint8_t>(BatchBackend::LiveCheckPropagated),
      static_cast<std::uint8_t>(QueryPlane::Prepared), S.ModuleText);
  ModuleParseResult P = parseModule(S.ModuleText);
  if (!P.Error.empty())
    throw std::runtime_error("module does not parse: " + P.Error);
  S.NumFuncs = static_cast<std::uint32_t>(P.Funcs.size());
  for (const auto &F : P.Funcs) {
    S.NumBlocks += F->numBlocks();
    S.NumValues += F->numValues();
  }
  S.ExpectedLoaded =
      proto::encodeModuleLoaded(S.NumFuncs, S.NumBlocks, S.NumValues);

  // Every connection's main frames and probe are independent: build them
  // side by side.
  std::vector<std::future<ConnScript>> Mains, Probes;
  for (unsigned CI = 0; CI != Opts.Connections; ++CI) {
    Mains.push_back(std::async(std::launch::async, buildConn, std::cref(S),
                               std::cref(Opts), CI));
    Probes.push_back(
        std::async(std::launch::async, buildProbe, std::cref(S), CI));
  }
  for (unsigned CI = 0; CI != Opts.Connections; ++CI) {
    S.Conns.push_back(Mains[CI].get());
    mergeProbe(S.Conns.back(), Probes[CI].get());
  }
  return S;
}
