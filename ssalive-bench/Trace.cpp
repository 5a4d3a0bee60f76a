//===- ssalive-bench/Trace.cpp - Per-frame layer ledger of a traced run ---===//
//
// Part of the ssalive project, released under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "Trace.h"

#include <algorithm>
#include <cstdio>
#include <cstring>

using namespace ssalive;
using namespace ssalive::benchmark;

void ssalive::benchmark::attributeProgramSpans(
    const std::vector<telemetry::TraceEvent> &Events, std::uint32_t Tid,
    const std::vector<Span> &Handle, std::vector<FrameSplit> &Split) {
  std::vector<const telemetry::TraceEvent *> Mine;
  for (const telemetry::TraceEvent &E : Events)
    if (E.Tid == Tid)
      Mine.push_back(&E);
  std::sort(Mine.begin(), Mine.end(),
            [](const telemetry::TraceEvent *A, const telemetry::TraceEvent *B) {
              return A->StartNs < B->StartNs;
            });
  std::size_t K = 0;
  for (const telemetry::TraceEvent *E : Mine) {
    while (K != Handle.size() && Handle[K].EndNs < E->StartNs + E->DurNs)
      ++K;
    if (K == Handle.size())
      break;
    if (E->StartNs < Handle[K].StartNs)
      continue; // Outside every frame (e.g. the thread's marker span).
    FrameSplit &S = Split[K];
    if (std::strcmp(E->Name, "query-batch") == 0)
      S.QueryBatch += E->DurNs;
    else if (std::strcmp(E->Name, "precompute") == 0)
      S.Precompute += E->DurNs;
    else if (std::strcmp(E->Name, "refresh") == 0)
      S.Refresh += E->DurNs;
  }
}

bool ssalive::benchmark::writeChromeTrace(
    const std::string &Path, const std::vector<Span> &Spans,
    const std::vector<telemetry::TraceEvent> &Events) {
  std::FILE *Out = std::fopen(Path.c_str(), "w");
  if (!Out)
    return false;
  std::fputs("{\"traceEvents\":[", Out);
  bool First = true;
  auto Emit = [&](const char *Name, const char *Cat, std::uint64_t Start,
                  std::uint64_t Dur, std::uint32_t Tid, int Conn, long Frame) {
    std::fprintf(Out,
                 "%s{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"ts\":%.3f,"
                 "\"dur\":%.3f,\"pid\":1,\"tid\":%u",
                 First ? "" : ",\n", Name, Cat, double(Start) / 1000.0,
                 double(Dur) / 1000.0, Tid);
    if (Conn >= 0)
      std::fprintf(Out, ",\"args\":{\"conn\":%d,\"frame\":%ld}", Conn, Frame);
    std::fputs("}", Out);
    First = false;
  };
  for (const Span &S : Spans)
    Emit(S.Name, "bench", S.StartNs, S.EndNs - S.StartNs, S.Tid, S.Conn,
         S.FrameIndex);
  for (const telemetry::TraceEvent &E : Events)
    Emit(E.Name, E.Category, E.StartNs, E.DurNs, E.Tid, -1, -1);
  std::fputs("]}\n", Out);
  return std::fclose(Out) == 0;
}
