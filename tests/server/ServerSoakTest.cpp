//===- tests/server/ServerSoakTest.cpp ------------------------------------===//
//
// Part of the ssalive project, released under the MIT license.
//
//===----------------------------------------------------------------------===//
//
// The differential soak harness of the liveness server: several concurrent
// clients (>= 4), each with its own module, backend, and query plane,
// replay randomized query+edit streams against one LivenessServer over
// socketpair transports — >= 100k requests in total — and every single
// reply is compared byte for byte against an in-process oracle built from
// the exact bytes each client sent. Edits are chosen by the CFGMutator on
// the oracle copy and shipped as deterministic replays, so the server's
// refresh plane and the oracle stay in lockstep; any divergence (a stale
// repatch, a cross-session race on the shared pool, a framing bug) shows
// up as a byte mismatch with a replayable (client, seed, request) tag.
//
//===----------------------------------------------------------------------===//

#include "server/LivenessServer.h"

#include "TestUtil.h"
#include "ir/IRParser.h"
#include "ir/IRPrinter.h"
#include "pipeline/BatchLivenessDriver.h"
#include "support/Telemetry.h"
#include "workload/CFGMutator.h"

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <atomic>
#include <cstring>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sstream>
#include <string>
#include <sys/socket.h>
#include <sys/un.h>
#include <thread>
#include <unistd.h>
#include <vector>

using namespace ssalive;
using namespace ssalive::testutil;
namespace proto = ssalive::protocol;

namespace {

/// One client's configuration for a soak campaign.
struct ClientPlan {
  std::uint64_t Seed;
  BatchBackend Backend;
  QueryPlane Plane;
  unsigned Iterations;
  unsigned QueriesPerBatch;
  unsigned EditPercent; ///< Chance an iteration sends edits, in percent.
};

/// Builds a small module deterministically from \p Seed and renders it to
/// the text both the server and the oracle will parse.
std::string makeModuleText(std::uint64_t Seed, unsigned NumFuncs) {
  std::string Text;
  for (unsigned I = 0; I != NumFuncs; ++I) {
    auto F = randomSSAFunction(Seed * 101 + I,
                               {/*TargetBlocks=*/20 + (I % 3) * 8});
    Text += printFunction(*F);
    Text += "\n";
  }
  return Text;
}

bool roundTrip(int Fd, const std::vector<std::uint8_t> &Request,
               std::vector<std::uint8_t> &Reply) {
  return proto::roundTrip(Fd, Fd, Request, Reply);
}

/// Runs one client's whole stream; returns the number of requests
/// (queries + edits) it executed, or 0 after a recorded failure.
std::uint64_t runClient(int Fd, const ClientPlan &Plan, unsigned ClientId,
                        std::atomic<std::uint64_t> *QueryLedger = nullptr) {
  auto tag = [&](const char *What, std::uint64_t Index) {
    std::ostringstream OS;
    OS << "client " << ClientId << " seed=" << Plan.Seed << " backend="
       << batchBackendName(Plan.Backend) << " plane="
       << queryPlaneName(Plan.Plane) << ": " << What << " #" << Index
       << " (replay: rerun this client alone with this seed)";
    return OS.str();
  };

  // The oracle: parse the same text the server will parse, drive it with
  // a single-threaded driver of the same backend/plane.
  std::string Text = makeModuleText(Plan.Seed, /*NumFuncs=*/4);
  ModuleParseResult Oracle = parseModule(Text);
  if (!Oracle.Error.empty()) {
    ADD_FAILURE() << tag("module parse", 0) << ": " << Oracle.Error;
    return 0;
  }
  std::vector<const Function *> Funcs;
  std::uint64_t Blocks = 0, Values = 0;
  for (const auto &F : Oracle.Funcs) {
    Funcs.push_back(F.get());
    Blocks += F->numBlocks();
    Values += F->numValues();
  }
  // The oracle always answers through the classic block-id entry points,
  // whatever plane the server session runs: all planes answer identically
  // by construction, so every byte-compared Answers frame below doubles
  // as a cross-plane differential — in particular the cached prepared
  // plane (the server default) is checked bit for bit against block-id
  // entries across the whole query+edit stream.
  BatchOptions OOpts;
  OOpts.Backend = Plan.Backend;
  OOpts.Plane = QueryPlane::BlockId;
  OOpts.Threads = 1;
  BatchLivenessDriver OracleDriver(Funcs, OOpts);

  std::vector<std::uint8_t> Reply;
  if (!roundTrip(Fd,
                 proto::encodeLoadModule(
                     static_cast<std::uint8_t>(Plan.Backend),
                     static_cast<std::uint8_t>(Plan.Plane), Text),
                 Reply)) {
    ADD_FAILURE() << tag("load transport", 0);
    return 0;
  }
  std::vector<std::uint8_t> WantLoaded = proto::encodeModuleLoaded(
      static_cast<std::uint32_t>(Funcs.size()), Blocks, Values);
  if (Reply != WantLoaded) {
    ADD_FAILURE() << tag("load reply mismatch", 0);
    return 0;
  }

  RandomEngine Rng(Plan.Seed * 7919 + ClientId);
  CFGMutatorOptions MOpts;
  MOpts.MaxNodes = 128;
  std::uint64_t Requests = 0;
  std::uint64_t ExpectQueries = 0, ExpectEdits = 0;

  for (unsigned It = 0; It != Plan.Iterations; ++It) {
    if (Rng.chancePercent(Plan.EditPercent)) {
      // --- Edit batch: 1-3 mutator-chosen edits, mirrored locally.
      unsigned Count = 1 + Rng.nextBelow(3);
      std::vector<proto::EditItem> Items;
      std::vector<std::pair<std::uint8_t, std::uint64_t>> Expect;
      for (unsigned E = 0; E != Count; ++E) {
        unsigned FI =
            Rng.nextBelow(static_cast<unsigned>(Oracle.Funcs.size()));
        Function &F = *Oracle.Funcs[FI];
        auto M = mutateFunctionCFG(F, Rng, MOpts);
        if (!M)
          continue;
        if (batchBackendUsesLiveCheck(Plan.Backend))
          OracleDriver.analysisManager().refresh(F);
        Items.push_back({static_cast<std::uint8_t>(M->Kind), FI, M->From,
                         M->To, M->To2});
        Expect.emplace_back(1, F.cfgVersion());
      }
      // Occasionally ship a known-inapplicable edit: the server must
      // reject it exactly like the oracle's applyFunctionMutation would
      // (applied=0, epoch unchanged).
      if (Rng.chancePercent(25)) {
        unsigned FI =
            Rng.nextBelow(static_cast<unsigned>(Oracle.Funcs.size()));
        Function &F = *Oracle.Funcs[FI];
        // A self-AddEdge on block 0 -> 0 usually exists or is rejected
        // consistently; mirror the decision locally either way.
        Mutation M{MutationKind::AddEdge, 0, 0, 0};
        bool Applied = applyFunctionMutation(F, M);
        if (Applied && batchBackendUsesLiveCheck(Plan.Backend))
          OracleDriver.analysisManager().refresh(F);
        Items.push_back({static_cast<std::uint8_t>(M.Kind), FI, M.From,
                         M.To, M.To2});
        Expect.emplace_back(Applied ? 1 : 0, F.cfgVersion());
      }
      if (Items.empty())
        continue;
      OracleDriver.notifyCFGEdited();
      if (!roundTrip(Fd, proto::encodeEditBatch(Items), Reply)) {
        ADD_FAILURE() << tag("edit transport", It);
        return Requests;
      }
      std::vector<std::uint8_t> Want = proto::encodeEditApplied(Expect);
      if (Reply != Want) {
        ADD_FAILURE() << tag("edit reply mismatch", It);
        return Requests;
      }
      Requests += Items.size();
      ExpectEdits += Expect.size();
    } else {
      // --- Query batch drawn fresh each iteration (post-edit modules
      // reshuffle which values/blocks exist, so regenerate from the
      // oracle copy).
      std::vector<BatchQuery> Workload =
          BatchLivenessDriver::generateWorkload(Funcs, Rng.next(),
                                                Plan.QueriesPerBatch);
      if (Workload.empty())
        continue;
      std::vector<proto::QueryItem> Items;
      Items.reserve(Workload.size());
      for (const BatchQuery &Q : Workload)
        Items.push_back({Q.FuncIndex, Q.ValueId, Q.BlockId, Q.IsLiveOut});
      if (!roundTrip(Fd, proto::encodeQueryBatch(Items), Reply)) {
        ADD_FAILURE() << tag("query transport", It);
        return Requests;
      }
      std::vector<std::uint8_t> Want =
          proto::encodeAnswers(OracleDriver.run(Workload).Answers);
      if (Reply != Want) {
        ADD_FAILURE() << tag("query reply mismatch", It);
        return Requests;
      }
      Requests += Workload.size();
      ExpectQueries += Workload.size();
    }
  }

  // Final stats cross-check (field-wise: cache counters include engine
  // internals the oracle does not model byte for byte).
  if (!roundTrip(Fd, proto::encodeStats(), Reply) || Reply.empty() ||
      Reply[0] != static_cast<std::uint8_t>(proto::Opcode::StatsReply)) {
    ADD_FAILURE() << tag("stats", Plan.Iterations);
    return Requests;
  }
  proto::WireReader R(Reply.data() + 1, Reply.size() - 1);
  std::uint64_t Served = R.u64();
  (void)R.u64(); // positives
  std::uint64_t Applied = R.u64();
  std::uint64_t Rejected = R.u64();
  EXPECT_EQ(Served, ExpectQueries) << tag("stats queries", 0);
  EXPECT_EQ(Applied + Rejected, ExpectEdits) << tag("stats edits", 0);
  if (QueryLedger)
    QueryLedger->fetch_add(ExpectQueries);
  return Requests;
}

} // namespace

//===----------------------------------------------------------------------===//
// The soak campaign: >= 4 concurrent clients, >= 100k requests total.
//===----------------------------------------------------------------------===//

TEST(ServerSoak, ConcurrentClientsMatchOracleByteForByte) {
  proto::ignoreSigpipe();
  server::ServerConfig Cfg;
  Cfg.Threads = 2; // Sharded fan-out shared by all sessions.
  server::LivenessServer Server(Cfg);

  // Six clients across backends and query planes; the shapes chosen so
  // the request total comfortably clears 100k. The cached prepared plane
  // (the production default) runs under both T modes and edit streams of
  // different density, so stale-entry bugs in the cache interaction
  // surface as byte mismatches against the block-id oracle.
  std::vector<ClientPlan> Plans = {
      {1001, BatchBackend::LiveCheckPropagated, QueryPlane::Prepared, 560,
       42, 8},
      {1002, BatchBackend::LiveCheckFiltered, QueryPlane::BlockId, 560, 42,
       6},
      {1003, BatchBackend::LiveCheckFiltered, QueryPlane::Prepared, 560, 42,
       8},
      {1004, BatchBackend::LiveCheckPropagated, QueryPlane::BlockId, 560,
       42, 6},
      {1005, BatchBackend::Dataflow, QueryPlane::BlockId, 150, 42, 4},
      {1006, BatchBackend::LiveCheckPropagated, QueryPlane::Prepared, 560,
       42, 12},
  };

  std::vector<int> ClientFds;
  std::vector<std::thread> ServerSide;
  for (std::size_t I = 0; I != Plans.size(); ++I) {
    int Pair[2];
    ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, Pair), 0);
    ClientFds.push_back(Pair[0]);
    int ServerFd = Pair[1];
    ServerSide.emplace_back([&Server, ServerFd] {
      Server.serveStream(ServerFd, ServerFd);
      ::close(ServerFd);
    });
  }

  // Registry reconcile: the process-wide telemetry counter must advance by
  // exactly the number of queries the clients' oracles ledger — across six
  // concurrent sessions, three backends, and both planes. (Snapshot deltas,
  // not absolutes: earlier tests in this binary also serve queries.)
  std::uint64_t QueriesBefore =
      telemetry::Registry::global().value("ssalive_server_queries_total");
  std::atomic<std::uint64_t> QueryLedger{0};

  std::atomic<std::uint64_t> TotalRequests{0};
  std::vector<std::thread> Clients;
  for (std::size_t I = 0; I != Plans.size(); ++I) {
    Clients.emplace_back([&, I] {
      TotalRequests.fetch_add(runClient(ClientFds[I], Plans[I],
                                        static_cast<unsigned>(I),
                                        &QueryLedger));
      ::close(ClientFds[I]);
    });
  }
  for (std::thread &T : Clients)
    T.join();
  for (std::thread &T : ServerSide)
    T.join();

  RecordProperty("requests", static_cast<int>(TotalRequests.load()));
  EXPECT_GE(TotalRequests.load(), 100000u)
      << "the soak must replay at least 100k query+edit requests";
  EXPECT_EQ(Server.connectionsServed(), Plans.size());
  EXPECT_EQ(telemetry::Registry::global().value(
                "ssalive_server_queries_total") -
                QueriesBefore,
            QueryLedger.load())
      << "server telemetry must reconcile with the oracle request ledger";
}

//===----------------------------------------------------------------------===//
// The accept-loop transport: same differential client over a real
// unix-domain socket, plus server shutdown via the protocol.
//===----------------------------------------------------------------------===//

TEST(ServerSoak, UnixSocketAcceptLoopServesAndShutsDown) {
  proto::ignoreSigpipe();
  server::ServerConfig Cfg;
  Cfg.Threads = 2;
  server::LivenessServer Server(Cfg);
  std::string Path =
      "/tmp/ssalive-soak-" + std::to_string(::getpid()) + ".sock";
  std::string Err;
  ASSERT_TRUE(Server.listenUnix(Path, Err)) << Err;
  Server.start();

  auto connect = [&]() {
    int Fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    EXPECT_GE(Fd, 0);
    sockaddr_un Addr{};
    Addr.sun_family = AF_UNIX;
    std::memcpy(Addr.sun_path, Path.c_str(), Path.size() + 1);
    EXPECT_EQ(
        ::connect(Fd, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr)),
        0);
    return Fd;
  };

  // Two short differential clients in parallel over the real socket.
  std::vector<std::thread> Clients;
  std::atomic<std::uint64_t> Requests{0};
  for (unsigned I = 0; I != 2; ++I) {
    Clients.emplace_back([&, I] {
      int Fd = connect();
      ClientPlan Plan{2000 + I, BatchBackend::LiveCheckPropagated,
                      I == 0 ? QueryPlane::BlockId : QueryPlane::Prepared, 40,
                      32, 10};
      Requests.fetch_add(runClient(Fd, Plan, I));
      ::close(Fd);
    });
  }
  for (std::thread &T : Clients)
    T.join();
  EXPECT_GT(Requests.load(), 1000u);

  // Shutdown through the protocol stops the accept loop.
  int Fd = connect();
  std::vector<std::uint8_t> Reply;
  ASSERT_TRUE(roundTrip(Fd, proto::encodeShutdown(), Reply));
  EXPECT_EQ(Reply, proto::encodeOk());
  ::close(Fd);
  Server.wait();
  EXPECT_TRUE(Server.stopRequested());
}

//===----------------------------------------------------------------------===//
// The resume differential over TCP loopback: each client replays >= 1k
// mixed query/edit frames, is killed mid-stream with replies in flight,
// reconnects with Resume, and every reply — before the kill, re-sent as
// pending, and after the resume — must be byte-identical to an
// uninterrupted in-process oracle session fed the same sequence. Soaked
// across both LiveCheck flavors and both planes concurrently against one
// server, beside plain differential clients on every backend.
//===----------------------------------------------------------------------===//

namespace {

int connectLoopback(std::uint16_t Port) {
  sockaddr_in Addr;
  std::memset(&Addr, 0, sizeof(Addr));
  Addr.sin_family = AF_INET;
  Addr.sin_port = htons(Port);
  ::inet_pton(AF_INET, "127.0.0.1", &Addr.sin_addr);
  int Fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (Fd < 0)
    return -1;
  if (::connect(Fd, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr)) != 0) {
    ::close(Fd);
    return -1;
  }
  int One = 1;
  ::setsockopt(Fd, IPPROTO_TCP, TCP_NODELAY, &One, sizeof(One));
  return Fd;
}

bool readResumed(const std::vector<std::uint8_t> &Reply, std::uint64_t &Sid,
                 std::uint64_t &JournalLen, std::uint64_t &Pending) {
  if (Reply.empty() ||
      Reply[0] != static_cast<std::uint8_t>(proto::Opcode::Resumed))
    return false;
  proto::WireReader R(Reply.data() + 1, Reply.size() - 1);
  Sid = R.u64();
  JournalLen = R.u64();
  Pending = R.u64();
  return R.ok() && R.atEnd();
}

void runResumeClient(std::uint16_t Port, std::uint64_t Seed,
                     BatchBackend Backend, QueryPlane Plane,
                     unsigned ClientId,
                     std::atomic<std::uint64_t> *QueryLedger = nullptr) {
  auto tag = [&](const char *What, std::size_t Index) {
    std::ostringstream OS;
    OS << "resume client " << ClientId << " seed=" << Seed << " backend="
       << batchBackendName(Backend) << ": " << What << " #" << Index;
    return OS.str();
  };

  // ---- The deterministic request sequence: module load plus >= 1.2k
  // mixed query/edit frames. The local module copy evolves in lockstep so
  // every generated edit and workload is valid on the server's copy too.
  std::string Text = makeModuleText(Seed, /*NumFuncs=*/4);
  ModuleParseResult Local = parseModule(Text);
  ASSERT_TRUE(Local.Error.empty()) << tag("parse", 0) << Local.Error;
  std::vector<const Function *> Funcs;
  for (const auto &F : Local.Funcs)
    Funcs.push_back(F.get());

  RandomEngine Rng(Seed * 733 + ClientId);
  CFGMutatorOptions MOpts;
  MOpts.MaxNodes = 128;
  const std::size_t TotalFrames = 1200;
  std::uint64_t QueriesInStream = 0;
  std::vector<std::vector<std::uint8_t>> Requests;
  Requests.push_back(proto::encodeLoadModule(
      static_cast<std::uint8_t>(Backend), static_cast<std::uint8_t>(Plane),
      Text));
  while (Requests.size() != TotalFrames) {
    if (Rng.chancePercent(10)) {
      std::vector<proto::EditItem> Items;
      unsigned Count = 1 + Rng.nextBelow(2);
      for (unsigned E = 0; E != Count; ++E) {
        unsigned FI =
            Rng.nextBelow(static_cast<unsigned>(Local.Funcs.size()));
        auto M = mutateFunctionCFG(*Local.Funcs[FI], Rng, MOpts);
        if (M)
          Items.push_back({static_cast<std::uint8_t>(M->Kind), FI, M->From,
                           M->To, M->To2});
      }
      if (!Items.empty())
        Requests.push_back(proto::encodeEditBatch(Items));
    } else {
      std::vector<BatchQuery> Workload =
          BatchLivenessDriver::generateWorkload(Funcs, Rng.next(), 24);
      if (Workload.empty())
        continue;
      std::vector<proto::QueryItem> Items;
      for (const BatchQuery &Q : Workload)
        Items.push_back({Q.FuncIndex, Q.ValueId, Q.BlockId, Q.IsLiveOut});
      Requests.push_back(proto::encodeQueryBatch(Items));
      QueriesInStream += Workload.size();
    }
  }
  // Every frame is dispatched exactly once by the oracle session and
  // exactly once by the live server — resume REPLAYS must not re-count
  // (the registry double-count fix) — so the campaign's expected
  // queries_total delta is 2x this ledger per client.
  if (QueryLedger)
    QueryLedger->fetch_add(2 * QueriesInStream);

  // ---- The uninterrupted oracle: a fresh in-process session fed the
  // exact same sequence. Reply purity makes its output the ground truth
  // for the killed-and-resumed connection.
  server::SessionManager OracleMgr(
      server::ServerConfig{/*Threads=*/1, proto::DefaultMaxFrameBytes});
  auto OracleS = OracleMgr.createSession();
  std::vector<std::vector<std::uint8_t>> Expected;
  Expected.reserve(Requests.size());
  for (const auto &Req : Requests)
    Expected.push_back(OracleS->handle(Req));

  // ---- Live run: handshake, then kill mid-stream with replies unread.
  const std::size_t KillAt = 1050;  // Round-tripped before the kill.
  const std::size_t Unacked = 30;   // Sent with replies left in flight.
  const std::size_t DrainAck = 10;  // ...of which this many get read.
  int Fd = connectLoopback(Port);
  ASSERT_GE(Fd, 0) << tag("connect", 0);
  std::vector<std::uint8_t> Reply;
  ASSERT_TRUE(roundTrip(Fd, proto::encodeResume(0, 0), Reply))
      << tag("handshake", 0);
  std::uint64_t Sid = 0, JournalLen = 0, Pending = 0;
  ASSERT_TRUE(readResumed(Reply, Sid, JournalLen, Pending))
      << tag("handshake reply", 0);
  ASSERT_NE(Sid, 0u);

  for (std::size_t I = 0; I != KillAt; ++I) {
    ASSERT_TRUE(roundTrip(Fd, Requests[I], Reply)) << tag("transport", I);
    ASSERT_EQ(Reply, Expected[I]) << tag("pre-kill reply mismatch", I);
  }
  for (std::size_t I = KillAt; I != KillAt + Unacked; ++I)
    ASSERT_TRUE(proto::writeFrame(Fd, Requests[I])) << tag("flood", I);
  for (std::size_t I = KillAt; I != KillAt + DrainAck; ++I) {
    ASSERT_EQ(proto::readFrame(Fd, Reply), proto::ReadStatus::Ok)
        << tag("drain", I);
    ASSERT_EQ(Reply, Expected[I]) << tag("drained reply mismatch", I);
  }
  // The kill: half-close, discard whatever was in flight, hang up. The
  // server dispatches everything it already received (journalLen is
  // exactly KillAt + Unacked), parks the journal on EOF.
  ::shutdown(Fd, SHUT_WR);
  while (proto::readFrame(Fd, Reply) == proto::ReadStatus::Ok) {
  }
  ::close(Fd);

  // ---- Reconnect and resume at the true high-water mark. The old
  // handler may still be noticing the EOF, so retry UnknownSession.
  const std::uint64_t Hwm = KillAt + DrainAck;
  Fd = connectLoopback(Port);
  ASSERT_GE(Fd, 0) << tag("reconnect", 0);
  bool Resumed = false;
  for (int Try = 0; Try != 500 && !Resumed; ++Try) {
    ASSERT_TRUE(roundTrip(Fd, proto::encodeResume(Sid, Hwm), Reply))
        << tag("resume transport", Try);
    Resumed = readResumed(Reply, Sid, JournalLen, Pending);
    if (!Resumed)
      ::usleep(10000);
  }
  ASSERT_TRUE(Resumed) << tag("resume", 0);
  ASSERT_EQ(JournalLen, KillAt + Unacked) << tag("journal length", 0);
  ASSERT_EQ(Pending, Unacked - DrainAck) << tag("pending count", 0);
  for (std::uint64_t I = 0; I != Pending; ++I) {
    ASSERT_EQ(proto::readFrame(Fd, Reply), proto::ReadStatus::Ok)
        << tag("pending transport", I);
    ASSERT_EQ(Reply, Expected[Hwm + I])
        << tag("pending reply mismatch", Hwm + I);
  }

  // ---- The rebuilt session serves the rest of the stream byte-identically.
  for (std::size_t I = KillAt + Unacked; I != TotalFrames; ++I) {
    ASSERT_TRUE(roundTrip(Fd, Requests[I], Reply)) << tag("post", I);
    ASSERT_EQ(Reply, Expected[I]) << tag("post-resume reply mismatch", I);
  }
  ::close(Fd);
}

} // namespace

TEST(ServerSoak, TcpResumeDifferentialMatchesUninterruptedOracle) {
  proto::ignoreSigpipe();
  server::ServerConfig Cfg;
  Cfg.Threads = 2;
  server::LivenessServer Server(Cfg);
  std::string Err;
  ASSERT_TRUE(Server.listenTcp("127.0.0.1", /*Port=*/0, Err)) << Err;
  ASSERT_NE(Server.boundTcpPort(), 0);
  Server.start();

  std::uint64_t ResumesBefore = telemetry::Registry::global().value(
      "ssalive_server_resume_ok_total");
  // Registry reconcile ACROSS the kill/resume cycle: the journal replay
  // that rebuilds each killed session must not re-increment the
  // process-wide query counter, so the delta is exactly the oracle's
  // dispatch count plus the live server's — 2x each resume client's
  // stream; a plain client's oracle is a bare driver, so it adds 1x.
  std::uint64_t QueriesBefore =
      telemetry::Registry::global().value("ssalive_server_queries_total");
  std::atomic<std::uint64_t> QueryLedger{0};

  // Three sessions concurrently: both T modes on the cached prepared
  // plane and one on block-id — so the replayed journals rebuild both
  // planes and both engine flavors.
  struct ResumePlanEntry {
    std::uint64_t Seed;
    BatchBackend Backend;
    QueryPlane Plane;
  };
  std::vector<ResumePlanEntry> Plans = {
      {3001, BatchBackend::LiveCheckPropagated, QueryPlane::Prepared},
      {3002, BatchBackend::LiveCheckFiltered, QueryPlane::Prepared},
      {3003, BatchBackend::LiveCheckPropagated, QueryPlane::BlockId},
  };
  // Plain differential clients on the same server, covering the baseline
  // backends too: journal replay runs next to live sessions on the shared
  // pool, and neither may perturb the other's bytes.
  std::vector<ClientPlan> Plain = {
      {3101, BatchBackend::LiveCheckPropagated, QueryPlane::Prepared, 400,
       24, 10},
      {3102, BatchBackend::LiveCheckFiltered, QueryPlane::BlockId, 400, 24,
       10},
      {3103, BatchBackend::Dataflow, QueryPlane::BlockId, 400, 24, 10},
      {3104, BatchBackend::PathExploration, QueryPlane::BlockId, 400, 24, 10},
  };
  std::vector<std::thread> Clients;
  for (std::size_t I = 0; I != Plans.size(); ++I)
    Clients.emplace_back([&, I] {
      runResumeClient(Server.boundTcpPort(), Plans[I].Seed,
                      Plans[I].Backend, Plans[I].Plane,
                      static_cast<unsigned>(I), &QueryLedger);
    });
  std::atomic<std::uint64_t> PlainRequests{0};
  for (std::size_t I = 0; I != Plain.size(); ++I)
    Clients.emplace_back([&, I] {
      int Fd = connectLoopback(Server.boundTcpPort());
      ASSERT_GE(Fd, 0) << "plain client " << I;
      PlainRequests.fetch_add(runClient(Fd, Plain[I],
                                        static_cast<unsigned>(Plans.size() + I),
                                        &QueryLedger));
      ::close(Fd);
    });
  for (std::thread &T : Clients)
    T.join();
  EXPECT_GT(PlainRequests.load(), Plain.size() * 400u * 10u)
      << "the plain clients must run their streams";

  EXPECT_EQ(telemetry::Registry::global().value(
                "ssalive_server_resume_ok_total") -
                ResumesBefore,
            Plans.size());
  EXPECT_EQ(telemetry::Registry::global().value(
                "ssalive_server_queries_total") -
                QueriesBefore,
            QueryLedger.load())
      << "replayed journals must not re-count queries in the registry";

  int Fd = connectLoopback(Server.boundTcpPort());
  ASSERT_GE(Fd, 0);
  std::vector<std::uint8_t> Reply;
  ASSERT_TRUE(roundTrip(Fd, proto::encodeShutdown(), Reply));
  EXPECT_EQ(Reply, proto::encodeOk());
  ::close(Fd);
  Server.wait();
}
