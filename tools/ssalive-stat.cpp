//===- tools/ssalive-stat.cpp - Telemetry snapshot CLI --------------------===//
//
// Part of the ssalive project, released under the MIT license.
//
//===----------------------------------------------------------------------===//
//
// One-shot observability probe for a running ssalive-server: connects,
// sends a single Metrics request, and renders the process-wide registry —
// counters, gauges, and latency histograms with p50/p95/p99 — without
// loading a module or perturbing any session state. A frame-latency
// summary line derives the server's request-service percentiles from the
// ssalive_server_frame_ns log2 histogram.
//
//   ssalive-stat --connect=/path/sock      human-readable summary
//   ssalive-stat --connect=/path/sock --prometheus
//                                          Prometheus text exposition
//                                          (pipe into tools/check-metrics)
//   ssalive-stat --connect=/path/sock --watch=SECONDS
//                                          re-poll and print q/s deltas
//
// Exit status: 0 = success, 1 = usage/transport failure, 2 = the server's
// reply was not a decodable MetricsReply.
//
//===----------------------------------------------------------------------===//

#include "server/Protocol.h"
#include "support/Telemetry.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

using namespace ssalive;
namespace proto = ssalive::protocol;

namespace {

struct CliOptions {
  std::string ConnectPath;
  bool Prometheus = false;
  unsigned WatchSecs = 0;
};

bool parseUnsigned(const char *S, std::uint64_t &Out) {
  char *End = nullptr;
  Out = std::strtoull(S, &End, 10);
  return End && *End == '\0' && End != S;
}

bool parseArgs(int Argc, char **Argv, CliOptions &Opts) {
  for (int I = 1; I != Argc; ++I) {
    std::string Arg = Argv[I];
    std::uint64_t N = 0;
    if (Arg.rfind("--connect=", 0) == 0) {
      Opts.ConnectPath = Arg.substr(10);
    } else if (Arg == "--prometheus") {
      Opts.Prometheus = true;
    } else if (Arg.rfind("--watch=", 0) == 0 &&
               parseUnsigned(Arg.c_str() + 8, N) && N != 0) {
      Opts.WatchSecs = static_cast<unsigned>(N);
    } else {
      std::fprintf(stderr, "unrecognized argument '%s'\n", Arg.c_str());
      return false;
    }
  }
  if (Opts.ConnectPath.empty()) {
    std::fprintf(stderr, "--connect=PATH is required\n");
    return false;
  }
  return true;
}

int connectUnix(const std::string &Path) {
  sockaddr_un Addr;
  std::memset(&Addr, 0, sizeof(Addr));
  Addr.sun_family = AF_UNIX;
  if (Path.size() >= sizeof(Addr.sun_path))
    return -1;
  std::memcpy(Addr.sun_path, Path.c_str(), Path.size() + 1);
  int Fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (Fd < 0)
    return -1;
  if (::connect(Fd, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr)) != 0) {
    ::close(Fd);
    return -1;
  }
  return Fd;
}

/// Fetches one registry snapshot over \p Fd; 0/1/2 per the exit contract.
int fetchMetrics(int Fd, std::vector<telemetry::Metric> &Out) {
  std::vector<std::uint8_t> Reply;
  if (!proto::roundTrip(Fd, Fd, proto::encodeMetricsRequest(), Reply)) {
    std::fprintf(stderr, "transport failure during Metrics request\n");
    return 1;
  }
  if (Reply.empty() ||
      Reply[0] != static_cast<std::uint8_t>(proto::Opcode::MetricsReply)) {
    std::fprintf(stderr, "reply is not a MetricsReply (opcode 0x%02x)\n",
                 Reply.empty() ? 0 : Reply[0]);
    return 2;
  }
  proto::WireReader R(Reply.data() + 1, Reply.size() - 1);
  if (!proto::decodeMetrics(R, Out)) {
    std::fprintf(stderr, "MetricsReply body does not decode\n");
    return 2;
  }
  return 0;
}

void printHuman(const std::vector<telemetry::Metric> &Metrics) {
  std::printf("%zu series\n", Metrics.size());
  for (const telemetry::Metric &M : Metrics) {
    switch (M.Kind) {
    case telemetry::MetricKind::Counter:
      std::printf("  %-46s %llu\n", M.Name.c_str(),
                  static_cast<unsigned long long>(M.Value));
      break;
    case telemetry::MetricKind::Gauge:
      std::printf("  %-46s %lld (gauge)\n", M.Name.c_str(),
                  static_cast<long long>(M.Value));
      break;
    case telemetry::MetricKind::Histogram:
      std::printf("  %-46s count=%llu avg=%lluns p50=%llu p95=%llu "
                  "p99=%llu\n",
                  M.Name.c_str(),
                  static_cast<unsigned long long>(M.Hist.Count),
                  static_cast<unsigned long long>(
                      M.Hist.Count ? M.Hist.Sum / M.Hist.Count : 0),
                  static_cast<unsigned long long>(
                      telemetry::histogramPercentile(M.Hist, 50)),
                  static_cast<unsigned long long>(
                      telemetry::histogramPercentile(M.Hist, 95)),
                  static_cast<unsigned long long>(
                      telemetry::histogramPercentile(M.Hist, 99)));
      break;
    }
  }
}

/// Frame-latency summary: the service-time percentiles of the server's
/// request loop, derived from the ssalive_server_frame_ns log2 histogram —
/// the one number an operator checks first under load.
void printFrameLatencySummary(const std::vector<telemetry::Metric> &Metrics) {
  for (const telemetry::Metric &M : Metrics) {
    if (M.Name != "ssalive_server_frame_ns" ||
        M.Kind != telemetry::MetricKind::Histogram)
      continue;
    if (M.Hist.Count == 0) {
      std::printf("frame latency: no frames observed yet\n");
      return;
    }
    double AvgUs = double(M.Hist.Sum) / double(M.Hist.Count) / 1e3;
    std::printf("frame latency: %llu frame(s), avg=%.1fus p50=%.1fus "
                "p95=%.1fus p99=%.1fus\n",
                static_cast<unsigned long long>(M.Hist.Count), AvgUs,
                telemetry::histogramPercentile(M.Hist, 50) / 1e3,
                telemetry::histogramPercentile(M.Hist, 95) / 1e3,
                telemetry::histogramPercentile(M.Hist, 99) / 1e3);
    return;
  }
}

std::uint64_t valueOf(const std::vector<telemetry::Metric> &Metrics,
                      const char *Name) {
  for (const telemetry::Metric &M : Metrics)
    if (M.Name == Name)
      return M.Value;
  return 0;
}

/// The session summary: live sessions, sessions ever opened, and new
/// sessions shed at the MaxSessions admission cap.
void printSessionSummary(const std::vector<telemetry::Metric> &Metrics) {
  std::printf("sessions: %llu active, %llu opened, %llu shed\n",
              static_cast<unsigned long long>(
                  valueOf(Metrics, "ssalive_server_sessions_active")),
              static_cast<unsigned long long>(
                  valueOf(Metrics, "ssalive_server_sessions_opened_total")),
              static_cast<unsigned long long>(
                  valueOf(Metrics, "ssalive_server_shed_sessions_total")));
}

} // namespace

int main(int Argc, char **Argv) {
  CliOptions Opts;
  if (!parseArgs(Argc, Argv, Opts))
    return 1;
  proto::ignoreSigpipe();

  int Fd = connectUnix(Opts.ConnectPath);
  if (Fd < 0) {
    std::fprintf(stderr, "cannot connect to %s\n", Opts.ConnectPath.c_str());
    return 1;
  }

  std::vector<telemetry::Metric> Metrics;
  int Rc = fetchMetrics(Fd, Metrics);
  if (Rc != 0) {
    ::close(Fd);
    return Rc;
  }

  if (Opts.Prometheus) {
    std::fputs(telemetry::toPrometheusText(Metrics).c_str(), stdout);
    ::close(Fd);
    return 0;
  }

  printHuman(Metrics);
  printFrameLatencySummary(Metrics);
  printSessionSummary(Metrics);

  // --watch: repoll on the same connection and report the query rate the
  // registry observed between snapshots.
  while (Opts.WatchSecs != 0) {
    std::uint64_t Before = valueOf(Metrics, "ssalive_server_queries_total");
    ::sleep(Opts.WatchSecs);
    Metrics.clear();
    Rc = fetchMetrics(Fd, Metrics);
    if (Rc != 0) {
      ::close(Fd);
      return Rc;
    }
    std::uint64_t After = valueOf(Metrics, "ssalive_server_queries_total");
    std::printf("-- %llu queries_total (+%llu, %.0f q/s)\n",
                static_cast<unsigned long long>(After),
                static_cast<unsigned long long>(After - Before),
                double(After - Before) / Opts.WatchSecs);
  }

  ::close(Fd);
  return 0;
}
