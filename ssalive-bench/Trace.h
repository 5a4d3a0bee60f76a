//===- ssalive-bench/Trace.h - Per-frame layer ledger of a traced run -----===//
//
// Part of the ssalive project, released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The traced run's bookkeeping. The benchmark times the calls into each
/// layer from its own code (the client's round trip, Session::handle in
/// its traced frame loop, the set-up layers' public entry points) and
/// harvests the spans the program already records (BatchLivenessDriver's
/// "query-batch" and "precompute", AnalysisManager's "refresh"). Each
/// program span is attributed to the frame whose Session::handle interval
/// contains it on the same handler thread, so every frame gets an exact
/// split whose parts add up to its round trip.
///
//===----------------------------------------------------------------------===//

#ifndef SSALIVE_BENCH_TRACE_H
#define SSALIVE_BENCH_TRACE_H

#include "support/Telemetry.h"

#include <cstdint>
#include <string>
#include <vector>

namespace ssalive::benchmark {

/// One benchmark-owned span.
struct Span {
  const char *Name = nullptr;
  std::uint64_t StartNs = 0, EndNs = 0;
  std::uint32_t Tid = 0;
  int Conn = -1;        ///< Connection, or -1.
  long FrameIndex = -1; ///< Frame of that connection, or -1.
};

/// The program spans inside one traced frame's Session::handle, in
/// nanoseconds.
struct FrameSplit {
  std::uint64_t QueryBatch = 0; ///< BatchLivenessDriver::run.
  std::uint64_t Precompute = 0; ///< Its ensure/precompute phase.
  std::uint64_t Refresh = 0;    ///< AnalysisManager::refresh, summed.
};

/// Attributes program spans of one handler thread (\p Tid) to the frames
/// whose handle intervals contain them. \p Handle holds one [start, end)
/// per frame, in frame order; \p Split is indexed the same way.
void attributeProgramSpans(const std::vector<telemetry::TraceEvent> &Events,
                           std::uint32_t Tid,
                           const std::vector<Span> &Handle,
                           std::vector<FrameSplit> &Split);

/// Writes \p Spans and \p Events as one Chrome trace-event JSON document
/// ("traceEvents", complete "X" events, microsecond timestamps).
bool writeChromeTrace(const std::string &Path, const std::vector<Span> &Spans,
                      const std::vector<telemetry::TraceEvent> &Events);

} // namespace ssalive::benchmark

#endif // SSALIVE_BENCH_TRACE_H
