//===- bench/bench_server.cpp - Liveness server throughput/latency --------===//
//
// Part of the ssalive project, released under the MIT license.
//
//===----------------------------------------------------------------------===//
//
// Measures the liveness query server end to end over the pipe transport
// (the same byte stream ssalive-server --stdio speaks): an in-process
// LivenessServer serves one session across a pipe pair while the main
// thread plays client, so the numbers include framing, syscalls, and the
// shared-pool query fan-out — the full cost of a remote query, not just
// the engine scan. The session runs the propagated backend, whose prepared
// caches are warm for every workload value before timing starts, so the
// figures are the steady state of a long-lived connection. A final section repeats the warm 4096-batch pass over
// TCP loopback (the network transport) and records speedup_tcp_vs_pipe.
//
//   bench_server [--smoke] [--threads=N]
//
// Reports, per batch size (1 / 64 / 4096 queries per frame):
//   * warm throughput (queries/s) after the precompute is resident,
//   * p50/p99 round-trip latency for single-query frames,
//   * the batch-amortization ratios (speedup_batch_vs_unit / _vs_64) —
//     machine-portable ratios the CI trend gate tracks, unlike raw q/s.
//
// Emits BENCH_server.json. The acceptance floor of the server PR: warm
// pipe throughput >= 1M queries/s at the 4096 batch size on the 1-core
// dev container.
//
//===----------------------------------------------------------------------===//

#include "Harness.h"
#include "ir/IRParser.h"
#include "ir/IRPrinter.h"
#include "pipeline/BatchLivenessDriver.h"
#include "server/LivenessServer.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

using namespace ssalive;
using namespace ssalive::bench;
namespace proto = ssalive::protocol;

namespace {

double nowMillis() {
  using Clock = std::chrono::steady_clock;
  return std::chrono::duration<double, std::milli>(
             Clock::now().time_since_epoch())
      .count();
}

bool roundTrip(int OutFd, int InFd, const std::vector<std::uint8_t> &Req,
               std::vector<std::uint8_t> &Reply) {
  return proto::roundTrip(InFd, OutFd, Req, Reply);
}

int connectLoopback(std::uint16_t Port) {
  sockaddr_in Addr;
  std::memset(&Addr, 0, sizeof(Addr));
  Addr.sin_family = AF_INET;
  Addr.sin_port = htons(Port);
  ::inet_pton(AF_INET, "127.0.0.1", &Addr.sin_addr);
  int Fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (Fd < 0)
    return -1;
  if (::connect(Fd, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr)) !=
      0) {
    ::close(Fd);
    return -1;
  }
  int One = 1;
  ::setsockopt(Fd, IPPROTO_TCP, TCP_NODELAY, &One, sizeof(One));
  return Fd;
}

} // namespace

int main(int Argc, char **Argv) {
  bool Smoke = false;
  unsigned Threads = 1;
  for (int I = 1; I != Argc; ++I) {
    if (std::strcmp(Argv[I], "--smoke") == 0)
      Smoke = true;
    else if (std::strncmp(Argv[I], "--threads=", 10) == 0)
      Threads = static_cast<unsigned>(std::strtoul(Argv[I] + 10, nullptr,
                                                   10));
  }

  // ---- Corpus: SPEC-profile procedures (176.gcc row), shipped as text.
  RandomEngine Rng(0xbe9cull);
  const SpecProfile &P = spec2000Profiles()[2];
  unsigned NumFuncs = Smoke ? 8 : 16;
  std::string Text;
  for (unsigned I = 0; I != NumFuncs; ++I)
    Text += printFunction(*synthesizeProcedure(P, Rng)) + "\n";
  ModuleParseResult Parsed = parseModule(Text);
  if (!Parsed.Error.empty()) {
    std::fprintf(stderr, "corpus does not parse: %s\n",
                 Parsed.Error.c_str());
    return 1;
  }
  std::vector<const Function *> Funcs;
  for (const auto &F : Parsed.Funcs)
    Funcs.push_back(F.get());

  // ---- Server over a pipe pair.
  server::ServerConfig Cfg;
  Cfg.Threads = Threads;
  server::LivenessServer Server(Cfg);
  int ToServer[2], FromServer[2];
  if (::pipe(ToServer) != 0 || ::pipe(FromServer) != 0) {
    std::perror("pipe");
    return 1;
  }
  std::thread ServerThread([&] {
    Server.serveStream(ToServer[0], FromServer[1]);
    ::close(ToServer[0]);
    ::close(FromServer[1]);
  });
  int OutFd = ToServer[1], InFd = FromServer[0];

  std::vector<std::uint8_t> Reply;
  if (!roundTrip(OutFd, InFd,
                 proto::encodeLoadModule(
                     static_cast<std::uint8_t>(
                         BatchBackend::LiveCheckPropagated),
                     static_cast<std::uint8_t>(QueryPlane::Prepared), Text),
                 Reply) ||
      Reply.empty() ||
      Reply[0] != static_cast<std::uint8_t>(proto::Opcode::ModuleLoaded)) {
    std::fprintf(stderr, "load-module failed\n");
    return 1;
  }

  std::size_t WarmQueries = Smoke ? 40000 : 400000;
  std::vector<BatchQuery> Workload =
      BatchLivenessDriver::generateWorkload(Funcs, 42, WarmQueries);

  auto sendSpan = [&](std::size_t Begin, std::size_t End) {
    std::vector<proto::QueryItem> Items;
    Items.reserve(End - Begin);
    for (std::size_t I = Begin; I != End; ++I)
      Items.push_back({Workload[I].FuncIndex, Workload[I].ValueId,
                       Workload[I].BlockId, Workload[I].IsLiveOut});
    return proto::encodeQueryBatch(Items);
  };

  // A cold pass builds the engines and fills the prepared cache for every
  // workload value; everything after runs in the amortized regime the
  // server exists for.
  for (std::size_t Begin = 0; Begin < Workload.size(); Begin += 4096) {
    if (!roundTrip(OutFd, InFd,
                   sendSpan(Begin, std::min(Workload.size(), Begin + 4096)),
                   Reply)) {
      std::fprintf(stderr, "warm-up batch failed\n");
      return 1;
    }
  }

  std::printf("bench_server: %u functions, %zu warm queries/pass, "
              "%u pool thread(s), pipe transport\n",
              NumFuncs, Workload.size(), Threads);

  TablePrinter Table({"batch", "passes", "queries/s", "p50 us", "p99 us"});
  std::vector<JsonRecord> Records;
  double QpsUnit = 0, Qps64 = 0, Qps4096 = 0;

  for (std::size_t Batch : {std::size_t(1), std::size_t(64),
                            std::size_t(4096)}) {
    // Latency sampling only makes sense per frame; cap the unit-batch
    // pass so the bench stays quick.
    std::size_t Total = Batch == 1 ? std::min<std::size_t>(Workload.size(),
                                                           Smoke ? 2000
                                                                 : 20000)
                                   : Workload.size();
    unsigned Passes = Smoke ? 2 : 3;
    double BestMillis = 0;
    std::vector<double> LatenciesUs;
    for (unsigned Pass = 0; Pass != Passes; ++Pass) {
      double PassStart = nowMillis();
      for (std::size_t Begin = 0; Begin < Total; Begin += Batch) {
        std::size_t End = std::min(Total, Begin + Batch);
        auto Req = sendSpan(Begin, End);
        double T0 = Batch == 1 ? nowMillis() : 0;
        if (!roundTrip(OutFd, InFd, Req, Reply)) {
          std::fprintf(stderr, "query batch failed\n");
          return 1;
        }
        if (Batch == 1 && Pass + 1 == Passes)
          LatenciesUs.push_back((nowMillis() - T0) * 1e3);
      }
      double PassMillis = nowMillis() - PassStart;
      if (Pass == 0 || PassMillis < BestMillis)
        BestMillis = PassMillis;
    }
    double Qps = double(Total) / (BestMillis / 1e3);
    double P50 = 0, P99 = 0;
    if (!LatenciesUs.empty()) {
      std::sort(LatenciesUs.begin(), LatenciesUs.end());
      P50 = LatenciesUs[LatenciesUs.size() / 2];
      P99 = LatenciesUs[LatenciesUs.size() * 99 / 100];
    }
    if (Batch == 1)
      QpsUnit = Qps;
    else if (Batch == 64)
      Qps64 = Qps;
    else
      Qps4096 = Qps;

    Table.addRow({std::to_string(Batch), std::to_string(Passes),
                  TablePrinter::fmt(Qps, 0),
                  Batch == 1 ? TablePrinter::fmt(P50, 1) : "-",
                  Batch == 1 ? TablePrinter::fmt(P99, 1) : "-"});
    JsonRecord R;
    R.str("transport", "pipe").num("batch", std::uint64_t(Batch));
    R.num("queries_per_second", Qps);
    if (Batch == 1)
      R.num("p50_us", P50).num("p99_us", P99);
    Records.push_back(std::move(R));
  }

  // Machine-portable ratios for the CI trend gate: how much the batched
  // frames amortize the per-frame syscall/framing cost.
  {
    JsonRecord R;
    R.str("metric", "amortization");
    R.num("warm_pipe_queries_per_second", Qps4096);
    // Informational only — dominated by raw syscall latency, which does
    // not travel across machines (the "ratio_" prefix keeps it out of
    // the /speedup/ trend gate).
    R.num("ratio_batch_vs_unit", QpsUnit > 0 ? Qps4096 / QpsUnit : 0);
    R.num("speedup_batch_vs_64", Qps64 > 0 ? Qps4096 / Qps64 : 0);
    Records.push_back(std::move(R));
  }

  // ---- TCP loopback: the same warm 4096-batch pass over the network
  // transport (accept loop + TCP_NODELAY stream instead of a raw pipe),
  // against a second in-process server. speedup_tcp_vs_pipe is the
  // trend-gated ratio: it tracks the framing/syscall overhead the TCP
  // path adds, not the machine's absolute socket speed.
  double QpsTcp = 0;
  {
    server::LivenessServer TcpServer(Cfg);
    std::string Err;
    int TcpFd = -1;
    if (!TcpServer.listenTcp("127.0.0.1", /*Port=*/0, Err)) {
      std::fprintf(stderr, "listenTcp failed: %s\n", Err.c_str());
      return 1;
    }
    TcpServer.start();
    TcpFd = connectLoopback(TcpServer.boundTcpPort());
    if (TcpFd < 0) {
      std::fprintf(stderr, "tcp connect failed\n");
      return 1;
    }
    if (!roundTrip(TcpFd, TcpFd,
                   proto::encodeLoadModule(
                       static_cast<std::uint8_t>(
                           BatchBackend::LiveCheckPropagated),
                       static_cast<std::uint8_t>(QueryPlane::Prepared),
                       Text),
                   Reply) ||
        Reply.empty() ||
        Reply[0] !=
            static_cast<std::uint8_t>(proto::Opcode::ModuleLoaded)) {
      std::fprintf(stderr, "tcp load-module failed\n");
      return 1;
    }
    // The first pass builds the engines and fills the prepared cache.
    unsigned Passes = Smoke ? 3 : 4;
    double BestMillis = 0;
    bool Timed = false;
    for (unsigned Pass = 0; Pass != Passes; ++Pass) {
      double PassStart = nowMillis();
      for (std::size_t Begin = 0; Begin < Workload.size(); Begin += 4096) {
        std::size_t End = std::min(Workload.size(), Begin + 4096);
        if (!roundTrip(TcpFd, TcpFd, sendSpan(Begin, End), Reply)) {
          std::fprintf(stderr, "tcp query batch failed\n");
          return 1;
        }
      }
      double PassMillis = nowMillis() - PassStart;
      if (Pass == 0)
        continue; // Warm-up.
      if (!Timed || PassMillis < BestMillis) {
        BestMillis = PassMillis;
        Timed = true;
      }
    }
    QpsTcp = double(Workload.size()) / (BestMillis / 1e3);
    (void)roundTrip(TcpFd, TcpFd, proto::encodeShutdown(), Reply);
    ::close(TcpFd);
    TcpServer.wait();
    JsonRecord R;
    R.str("transport", "tcp").num("batch", std::uint64_t(4096));
    R.num("queries_per_second", QpsTcp);
    R.num("speedup_tcp_vs_pipe", Qps4096 > 0 ? QpsTcp / Qps4096 : 0);
    Records.push_back(std::move(R));
  }

  Table.print();
  std::printf("warm tcp-loopback throughput (batch 4096): %.0f queries/s "
              "(%.2fx vs pipe)\n",
              QpsTcp, Qps4096 > 0 ? QpsTcp / Qps4096 : 0);
  std::printf("warm pipe throughput (batch 4096): %.0f queries/s %s\n",
              Qps4096, Qps4096 >= 1e6 ? "(>= 1M target PASS)"
                                      : "(below the 1M target)");

  std::string Path = writeBenchJson("server", Records);
  if (!Path.empty())
    std::printf("wrote %s\n", Path.c_str());

  (void)roundTrip(OutFd, InFd, proto::encodeShutdown(), Reply);
  ::close(OutFd);
  ::close(InFd);
  ServerThread.join();
  return 0;
}
