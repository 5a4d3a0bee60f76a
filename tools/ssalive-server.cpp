//===- tools/ssalive-server.cpp - Long-lived liveness server CLI ----------===//
//
// Part of the ssalive project, released under the MIT license.
//
//===----------------------------------------------------------------------===//
//
// Front end of the liveness query server. Two transports:
//
//   ssalive-server --socket=/path/sock [--threads=N] [--max-frame=BYTES]
//       Accepts any number of concurrent clients on a unix-domain
//       socket; runs until a client sends the Shutdown command (or the
//       process is signalled). Every session shares one query pool of
//       --threads workers.
//
//   ssalive-server --tcp=[HOST:]PORT [--port-file=PATH]
//       Same, over TCP (IPv4; HOST defaults to 127.0.0.1). PORT 0 binds
//       an ephemeral port; --port-file writes the bound port to PATH
//       (write-then-rename, so a poller never reads a torn file) — the
//       handshake the smoke tests and spawned-client mode use. May be
//       combined with --socket: one acceptor serves both.
//
//   ssalive-server --stdio [--threads=N] [--max-frame=BYTES]
//       Serves exactly one session over stdin/stdout — the pipe
//       transport. ssalive-client --spawn uses this; so can any
//       build-system integration that wants a liveness oracle as a
//       subprocess. All logging goes to stderr (stdout is the protocol
//       channel).
//
// Observability:
//
//   --metrics-interval=SECONDS   Periodically dump the process-wide
//       telemetry registry in Prometheus text exposition format, plus a
//       final dump at shutdown. Goes to stderr unless --metrics-out is
//       given (then the file is rewritten atomically-ish each tick, the
//       shape a textfile-collector scrape expects).
//   --metrics-out=PATH           Destination file for the dumps.
//   --trace-out=PATH             Enable span tracing for the process
//       lifetime and write the collected spans as Chrome trace-event
//       JSON (chrome://tracing / Perfetto) at shutdown.
//
// The protocol is documented in src/server/Protocol.h.
//
//===----------------------------------------------------------------------===//

#include "server/LivenessServer.h"
#include "support/Telemetry.h"

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <mutex>
#include <string>
#include <thread>

using namespace ssalive;
using namespace ssalive::server;

namespace {

struct CliOptions {
  std::string SocketPath;
  bool Tcp = false;
  std::string TcpHost;
  std::uint16_t TcpPort = 0;
  std::string PortFilePath;
  bool Stdio = false;
  unsigned Threads = 1;
  std::size_t MaxFrame = protocol::DefaultMaxFrameBytes;
  unsigned MetricsIntervalSecs = 0; ///< 0 = no periodic dumps.
  std::string MetricsOutPath;       ///< Empty = stderr.
  std::string TraceOutPath;         ///< Empty = tracing disabled.
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
    if (Arg.rfind("--socket=", 0) == 0) {
      Opts.SocketPath = Arg.substr(9);
    } else if (Arg.rfind("--tcp=", 0) == 0) {
      std::string Spec = Arg.substr(6);
      std::size_t Colon = Spec.rfind(':');
      std::string PortStr =
          Colon == std::string::npos ? Spec : Spec.substr(Colon + 1);
      if (Colon != std::string::npos)
        Opts.TcpHost = Spec.substr(0, Colon);
      if (!parseUnsigned(PortStr.c_str(), N) || N > 65535) {
        std::fprintf(stderr, "bad --tcp spec '%s' (want [HOST:]PORT)\n",
                     Spec.c_str());
        return false;
      }
      Opts.Tcp = true;
      Opts.TcpPort = static_cast<std::uint16_t>(N);
    } else if (Arg.rfind("--port-file=", 0) == 0) {
      Opts.PortFilePath = Arg.substr(12);
    } else if (Arg == "--stdio") {
      Opts.Stdio = true;
    } else if (Arg.rfind("--threads=", 0) == 0 &&
               parseUnsigned(Arg.c_str() + 10, N)) {
      Opts.Threads = static_cast<unsigned>(N);
    } else if (Arg.rfind("--max-frame=", 0) == 0 &&
               parseUnsigned(Arg.c_str() + 12, N) && N != 0) {
      Opts.MaxFrame = N;
    } else if (Arg.rfind("--metrics-interval=", 0) == 0 &&
               parseUnsigned(Arg.c_str() + 19, N) && N != 0) {
      Opts.MetricsIntervalSecs = static_cast<unsigned>(N);
    } else if (Arg.rfind("--metrics-out=", 0) == 0) {
      Opts.MetricsOutPath = Arg.substr(14);
    } else if (Arg.rfind("--trace-out=", 0) == 0) {
      Opts.TraceOutPath = Arg.substr(12);
    } else {
      std::fprintf(stderr, "unrecognized argument '%s'\n", Arg.c_str());
      return false;
    }
  }
  bool HasSocket = !Opts.SocketPath.empty() || Opts.Tcp;
  if (Opts.Stdio == HasSocket) {
    std::fprintf(stderr, "exactly one of --stdio or a socket transport "
                         "(--socket=PATH / --tcp=[HOST:]PORT) is required\n");
    return false;
  }
  return true;
}

/// Publishes the bound TCP port for pollers (spawned-client mode, smoke
/// tests): write-then-rename so a reader never sees a torn file.
bool writePortFile(const std::string &Path, std::uint16_t Port) {
  std::string Tmp = Path + ".tmp";
  {
    std::ofstream Out(Tmp, std::ios::trunc);
    if (!Out)
      return false;
    Out << Port << "\n";
  }
  return std::rename(Tmp.c_str(), Path.c_str()) == 0;
}

void dumpMetrics(const CliOptions &Opts) {
  std::string Text =
      telemetry::toPrometheusText(telemetry::Registry::global().snapshot());
  if (Opts.MetricsOutPath.empty()) {
    std::fprintf(stderr, "%s", Text.c_str());
    return;
  }
  // Write-then-rename so a concurrent reader never sees a torn file.
  std::string Tmp = Opts.MetricsOutPath + ".tmp";
  {
    std::ofstream Out(Tmp, std::ios::trunc);
    Out << Text;
  }
  if (std::rename(Tmp.c_str(), Opts.MetricsOutPath.c_str()) != 0)
    std::fprintf(stderr, "ssalive-server: cannot write %s\n",
                 Opts.MetricsOutPath.c_str());
}

/// Ticker thread for --metrics-interval; interruptible sleep so shutdown
/// does not wait out the remainder of a tick.
class MetricsTicker {
public:
  explicit MetricsTicker(const CliOptions &Opts) : Opts(Opts) {
    if (Opts.MetricsIntervalSecs != 0)
      Thread = std::thread([this] { loop(); });
  }

  ~MetricsTicker() {
    {
      std::lock_guard<std::mutex> Lock(M);
      Stop = true;
    }
    CV.notify_all();
    if (Thread.joinable())
      Thread.join();
  }

private:
  void loop() {
    std::unique_lock<std::mutex> Lock(M);
    while (!Stop) {
      if (CV.wait_for(Lock, std::chrono::seconds(Opts.MetricsIntervalSecs),
                      [this] { return Stop; }))
        return;
      dumpMetrics(Opts);
    }
  }

  const CliOptions &Opts;
  std::mutex M;
  std::condition_variable CV;
  bool Stop = false;
  std::thread Thread;
};

void writeTrace(const std::string &Path) {
  std::ofstream Out(Path, std::ios::trunc);
  if (!Out) {
    std::fprintf(stderr, "ssalive-server: cannot write %s\n", Path.c_str());
    return;
  }
  Out << telemetry::TraceRecorder::toChromeJson();
}

} // namespace

int main(int Argc, char **Argv) {
  CliOptions Opts;
  if (!parseArgs(Argc, Argv, Opts))
    return 1;

  if (!Opts.TraceOutPath.empty())
    telemetry::TraceRecorder::setEnabled(true);

  ServerConfig Cfg;
  Cfg.Threads = Opts.Threads;
  Cfg.MaxFrameBytes = Opts.MaxFrame;
  int Exit = 0;
  {
    LivenessServer Server(Cfg);
    MetricsTicker Ticker(Opts);

    if (Opts.Stdio) {
      Server.serveStream(/*InFd=*/0, /*OutFd=*/1);
    } else {
      std::string Err;
      if (!Opts.SocketPath.empty()) {
        if (!Server.listenUnix(Opts.SocketPath, Err)) {
          std::fprintf(stderr, "%s\n", Err.c_str());
          return 1;
        }
        std::fprintf(stderr,
                     "ssalive-server: listening on %s (%u pool threads)\n",
                     Opts.SocketPath.c_str(),
                     Server.router().pool().numThreads());
      }
      if (Opts.Tcp) {
        if (!Server.listenTcp(Opts.TcpHost, Opts.TcpPort, Err)) {
          std::fprintf(stderr, "%s\n", Err.c_str());
          return 1;
        }
        std::fprintf(stderr,
                     "ssalive-server: listening on %s:%u (%u pool "
                     "threads)\n",
                     Opts.TcpHost.empty() ? "127.0.0.1"
                                          : Opts.TcpHost.c_str(),
                     Server.boundTcpPort(),
                     Server.router().pool().numThreads());
        if (!Opts.PortFilePath.empty() &&
            !writePortFile(Opts.PortFilePath, Server.boundTcpPort())) {
          std::fprintf(stderr, "ssalive-server: cannot write %s\n",
                       Opts.PortFilePath.c_str());
          return 1;
        }
      }
      Server.start();
      Server.wait();
      std::fprintf(stderr,
                   "ssalive-server: shut down after %llu connection(s)\n",
                   static_cast<unsigned long long>(
                       Server.connectionsServed()));
    }
  } // Server destruction folds the final per-session/driver counters in.

  if (Opts.MetricsIntervalSecs != 0 || !Opts.MetricsOutPath.empty())
    dumpMetrics(Opts);
  if (!Opts.TraceOutPath.empty())
    writeTrace(Opts.TraceOutPath);
  return Exit;
}
