//===- core/FunctionLiveness.cpp - LiveCheck over a Function --------------===//
//
// Part of the ssalive project, released under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "core/FunctionLiveness.h"

#include <cassert>

using namespace ssalive;

LivenessQueries::~LivenessQueries() = default;

FunctionLiveness::FunctionLiveness(const Function &F)
    : F(F), Graph(CFG::fromFunction(F)), Dfs(Graph), Tree(Graph, Dfs),
      Engine(Graph, Dfs, Tree), Cache(F, Engine, Tree),
      BuiltEpoch(F.cfgVersion()) {}

bool FunctionLiveness::isLiveIn(const Value &V, const BasicBlock &B) {
  assert(F.cfgVersion() == BuiltEpoch &&
         "CFG edited under FunctionLiveness: rebuild it (or query through "
         "the AnalysisManager refresh plane)");
  if (V.defs().empty() || !V.hasUses())
    return false;
  return Engine.isLiveInPrepared(Cache.ensure(V), B.id());
}

bool FunctionLiveness::isLiveOut(const Value &V, const BasicBlock &B) {
  assert(F.cfgVersion() == BuiltEpoch &&
         "CFG edited under FunctionLiveness: rebuild it (or query through "
         "the AnalysisManager refresh plane)");
  if (V.defs().empty() || !V.hasUses())
    return false;
  return Engine.isLiveOutPrepared(Cache.ensure(V), B.id());
}
