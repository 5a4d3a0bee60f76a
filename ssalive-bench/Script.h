//===- ssalive-bench/Script.h - Seeded frame scripts and their oracle -----===//
//
// Part of the ssalive project, released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Everything the benchmark sends is generated here, in full, before any
/// timing starts: the module text, one frame script per client connection,
/// and the expected reply bytes of every frame. The expected replies come
/// from iterative data-flow liveness (liveness/DataflowLiveness.h, a
/// different algorithm from the LiveCheck engine the server runs) over a
/// private parse of the same module text, kept in lockstep with the server
/// by replaying the same CFG edits.
///
//===----------------------------------------------------------------------===//

#ifndef SSALIVE_BENCH_SCRIPT_H
#define SSALIVE_BENCH_SCRIPT_H

#include <cstdint>
#include <string>
#include <vector>

namespace ssalive::benchmark {

/// The workloads, by name.
enum class Workload { Uniform4k, SkewedLarge, EditInterleaved };
bool parseWorkload(const std::string &Name, Workload &Out);
const char *workloadName(Workload W);

enum class FrameKind : std::uint8_t { Load, Query, Edit };

/// One request frame and the reply bytes it must produce.
struct Frame {
  FrameKind Kind = FrameKind::Query;
  std::uint32_t Queries = 0; ///< Query count (0 for loads and edits).
  std::uint32_t Request = 0; ///< Index into ConnScript::Requests.
  std::uint64_t ExpectedOff = 0; ///< Expected reply, in ConnScript::Expected.
  std::uint32_t ExpectedLen = 0;
};

/// The frames one client connection sends after LoadModule. Query-only
/// workloads cycle a fixed pool of frames (replies are a pure function of
/// the request while the CFG is unchanged); edit workloads carry one
/// explicit step sequence, since every edit changes later replies.
struct ConnScript {
  std::vector<std::vector<std::uint8_t>> Requests;
  std::vector<std::uint8_t> Expected; ///< Flat arena of expected replies.
  Frame Cold;                 ///< First QueryBatch of a fresh session.
  std::vector<Frame> Main;    ///< Warm-up and timed window, in order.
  bool Cyclic = false;        ///< Main wraps around when exhausted.
  /// Sent after the window: LoadModule, the cold frame, back-to-back
  /// edits, and one check frame.
  std::vector<Frame> Probe;
  /// Edit candidates the strictness filter rejected, and edits kept.
  std::uint64_t EditsRejected = 0, EditsKept = 0;

  const std::vector<std::uint8_t> &request(const Frame &F) const {
    return Requests[F.Request];
  }
  /// Flips one bit of \p F's expected reply (the benchmark's self-test).
  void corrupt(const Frame &F);
};

struct Script {
  Workload W = Workload::Uniform4k;
  std::uint64_t Seed = 0;
  std::vector<std::uint8_t> LoadRequest;
  std::vector<std::uint8_t> ExpectedLoaded;
  std::string ModuleText;
  std::uint32_t NumFuncs = 0;
  std::uint64_t NumBlocks = 0, NumValues = 0;
  std::vector<ConnScript> Conns;
};

/// Sizing knobs derived from the run length.
struct ScriptOptions {
  unsigned Connections = 2;
  /// Steps per connection in the edit workload's explicit sequence.
  unsigned EditSteps = 0;
};

/// Builds the whole script for \p W from \p Seed.
Script buildScript(Workload W, std::uint64_t Seed, const ScriptOptions &Opts);

} // namespace ssalive::benchmark

#endif // SSALIVE_BENCH_SCRIPT_H
