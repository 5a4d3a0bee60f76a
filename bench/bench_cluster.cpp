//===- bench/bench_cluster.cpp - Shared-pool aggregate throughput --------===//
//
// Part of the ssalive project, released under the MIT license.
//
//===----------------------------------------------------------------------===//
//
// Measures how the server's one query pool scales under concurrent
// clients: M clients against one in-process LivenessServer (one
// SessionManager, one ThreadPool), first with a 1-worker pool, then with
// 2 workers — same clients, same corpus, same warm prepared-plane
// workload in 16,384-query frames. The driver answers a frame of at most
// 4,096 queries on the session's own thread, so frames that size would
// never reach the pool; these frames are four times the bound, and every
// one fans out on the shared pool. The aggregate warm q/s across worker
// counts is therefore the scaling story of the pool; on a 1-core host the
// workers time-slice one core and the honest expectation is ~1.0x (the
// bench prints the caveat and records whatever the machine produced). A
// 4-core Xeon measured 1.49-3.43x over 5 --smoke runs (6 small functions)
// and 1.11-1.88x over 3 full 12-function runs.
//
//   bench_cluster [--smoke] [--clients=M]
//
// Emits BENCH_cluster.json. The gated ratio is speedup_threads2_vs_1
// (threshold 0.50 in CI: a trend gate against collapse, not a multi-core
// assertion a 1-core runner cannot honor).
//
//===----------------------------------------------------------------------===//

#include "Harness.h"
#include "ir/IRParser.h"
#include "ir/IRPrinter.h"
#include "pipeline/BatchLivenessDriver.h"
#include "server/LivenessServer.h"

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include <sys/socket.h>
#include <unistd.h>

using namespace ssalive;
using namespace ssalive::bench;
namespace proto = ssalive::protocol;

namespace {

/// Queries per QueryBatch frame: above the driver's 4,096-query
/// calling-thread bound, so each frame fans out on the pool.
constexpr std::size_t FrameQueries = 16384;

double nowMillis() {
  using Clock = std::chrono::steady_clock;
  return std::chrono::duration<double, std::milli>(
             Clock::now().time_since_epoch())
      .count();
}

/// Reusable rendezvous: the main thread and every client arrive, then all
/// are released together — so the timed window starts after every session
/// is warm and ends when the last client finishes.
class Barrier {
public:
  explicit Barrier(unsigned Parties) : Parties(Parties) {}

  void arriveAndWait() {
    std::unique_lock<std::mutex> Lock(M);
    unsigned Gen = Generation;
    if (++Arrived == Parties) {
      Arrived = 0;
      ++Generation;
      CV.notify_all();
      return;
    }
    CV.wait(Lock, [&] { return Generation != Gen; });
  }

private:
  std::mutex M;
  std::condition_variable CV;
  unsigned Parties;
  unsigned Arrived = 0;
  unsigned Generation = 0;
};

/// One full measurement: M clients on one server whose pool has
/// `Threads` workers; returns the best aggregate warm q/s over `Rounds`
/// barrier-synchronized timed rounds.
double runCluster(unsigned Threads, unsigned Clients, const std::string &Text,
                  const std::vector<BatchQuery> &Workload, unsigned Rounds,
                  unsigned Passes) {
  server::ServerConfig Cfg;
  Cfg.Threads = Threads;
  server::LivenessServer Server(Cfg);

  std::vector<int> ClientFds;
  std::vector<std::thread> Handlers;
  for (unsigned I = 0; I != Clients; ++I) {
    int Pair[2];
    if (::socketpair(AF_UNIX, SOCK_STREAM, 0, Pair) != 0) {
      std::perror("socketpair");
      std::exit(1);
    }
    ClientFds.push_back(Pair[0]);
    Handlers.emplace_back([&Server, Fd = Pair[1]] {
      Server.serveStream(Fd, Fd);
      ::close(Fd);
    });
  }

  // Rounds + warm-up phase, with main as the (Clients+1)-th party.
  Barrier Sync(Clients + 1);
  std::vector<std::thread> Drivers;
  for (unsigned C = 0; C != Clients; ++C)
    Drivers.emplace_back([&, C] {
      int Fd = ClientFds[C];
      std::vector<std::uint8_t> Reply;
      auto fail = [&](const char *What) {
        std::fprintf(stderr, "client %u: %s failed\n", C, What);
        std::exit(1);
      };
      if (!proto::roundTrip(Fd, Fd,
                            proto::encodeLoadModule(
                                static_cast<std::uint8_t>(
                                    BatchBackend::LiveCheckPropagated),
                                static_cast<std::uint8_t>(
                                    QueryPlane::Prepared),
                                Text),
                            Reply) ||
          Reply.empty() ||
          Reply[0] !=
              static_cast<std::uint8_t>(proto::Opcode::ModuleLoaded))
        fail("load-module");
      auto sendSpan = [&](std::size_t Begin, std::size_t End) {
        std::vector<proto::QueryItem> Items;
        Items.reserve(End - Begin);
        for (std::size_t I = Begin; I != End; ++I)
          Items.push_back({Workload[I].FuncIndex, Workload[I].ValueId,
                           Workload[I].BlockId, Workload[I].IsLiveOut});
        return proto::encodeQueryBatch(Items);
      };
      auto onePass = [&] {
        for (std::size_t Begin = 0; Begin < Workload.size();
             Begin += FrameQueries) {
          std::size_t End = std::min(Workload.size(), Begin + FrameQueries);
          if (!proto::roundTrip(Fd, Fd, sendSpan(Begin, End), Reply))
            fail("query batch");
        }
      };
      onePass(); // Precompute + prepared-cache fill.
      for (unsigned R = 0; R != Rounds; ++R) {
        Sync.arriveAndWait(); // Round start.
        for (unsigned P = 0; P != Passes; ++P)
          onePass();
        Sync.arriveAndWait(); // Round end.
      }
    });

  double BestMillis = 0;
  for (unsigned R = 0; R != Rounds; ++R) {
    Sync.arriveAndWait();
    double T0 = nowMillis();
    Sync.arriveAndWait();
    double Millis = nowMillis() - T0;
    if (R == 0 || Millis < BestMillis)
      BestMillis = Millis;
  }
  for (std::thread &T : Drivers)
    T.join();

  for (int Fd : ClientFds)
    ::close(Fd);
  for (std::thread &T : Handlers)
    T.join();
  return double(Workload.size()) * Clients * Passes / (BestMillis / 1e3);
}

} // namespace

int main(int Argc, char **Argv) {
  bool Smoke = false;
  unsigned Clients = 4;
  for (int I = 1; I != Argc; ++I) {
    if (std::strcmp(Argv[I], "--smoke") == 0)
      Smoke = true;
    else if (std::strncmp(Argv[I], "--clients=", 10) == 0)
      Clients = std::max(1u, static_cast<unsigned>(
                                 std::strtoul(Argv[I] + 10, nullptr, 10)));
  }

  // ---- Corpus: SPEC-profile procedures (176.gcc row), one shared module
  // text; every client session loads and prepares its own copy.
  RandomEngine Rng(0xc1a5ull);
  const SpecProfile &P = spec2000Profiles()[2];
  unsigned NumFuncs = Smoke ? 6 : 12;
  std::string Text;
  for (unsigned I = 0; I != NumFuncs; ++I)
    Text += printFunction(*synthesizeProcedure(P, Rng)) + "\n";
  ModuleParseResult Parsed = parseModule(Text);
  if (!Parsed.Error.empty()) {
    std::fprintf(stderr, "corpus does not parse: %s\n", Parsed.Error.c_str());
    return 1;
  }
  std::vector<const Function *> Funcs;
  for (const auto &F : Parsed.Funcs)
    Funcs.push_back(F.get());
  std::size_t WarmQueries = (Smoke ? 2 : 8) * FrameQueries;
  std::vector<BatchQuery> Workload =
      BatchLivenessDriver::generateWorkload(Funcs, 42, WarmQueries);
  unsigned Rounds = Smoke ? 2 : 3;
  unsigned Passes = Smoke ? 1 : 2;

  const unsigned Cores = std::thread::hardware_concurrency();
  std::printf("bench_cluster: %u functions, %zu warm queries/pass, "
              "%u clients, one shared pool, %u core(s)\n",
              NumFuncs, Workload.size(), Clients, Cores);

  TablePrinter Table({"pool threads", "clients", "queries/s"});
  std::vector<JsonRecord> Records;
  double Qps1 = 0, Qps2 = 0;
  for (unsigned Threads : {1u, 2u}) {
    double Qps = runCluster(Threads, Clients, Text, Workload, Rounds, Passes);
    if (Threads == 1)
      Qps1 = Qps;
    else
      Qps2 = Qps;
    Table.addRow({std::to_string(Threads), std::to_string(Clients),
                  TablePrinter::fmt(Qps, 0)});
    JsonRecord J;
    J.num("threads", std::uint64_t(Threads));
    J.num("clients", std::uint64_t(Clients));
    J.num("queries_per_second", Qps);
    Records.push_back(std::move(J));
  }

  {
    JsonRecord J;
    J.str("metric", "pool_scaling");
    J.num("warm_cluster_queries_per_second", Qps2);
    J.num("speedup_threads2_vs_1", Qps1 > 0 ? Qps2 / Qps1 : 0);
    Records.push_back(std::move(J));
  }

  Table.print();
  std::printf("warm aggregate throughput: 1 pool thread %.0f q/s, 2 pool "
              "threads %.0f q/s (%.2fx)\n",
              Qps1, Qps2, Qps1 > 0 ? Qps2 / Qps1 : 0);
  if (Cores < 2)
    std::printf("note: %u-core host — pool workers time-slice one core, so "
                "~1.0x is the honest expectation here; pool scaling needs "
                "a multi-core machine\n",
                Cores ? Cores : 1);

  std::string Path = writeBenchJson("cluster", Records);
  if (!Path.empty())
    std::printf("wrote %s\n", Path.c_str());
  return 0;
}
