//===- ssalive-bench/main.cpp - Closed-loop liveness server benchmark -----===//
//
// Part of the ssalive project, released under the MIT license.
//
//===----------------------------------------------------------------------===//
//
// One in-process LivenessServer (production defaults: LiveCheckPropagated
// backend, Prepared plane, a query pool of 2 workers) driven by 2
// closed-loop client connections over Unix socket pairs and serveStream.
// Every frame is generated before timing (Script.cpp) and every reply is
// byte-compared against the data-flow oracle's expected bytes.
//
//   ssalive-bench --workload NAME --seed N --seconds S --trace 0|1
//                 [--trace-out FILE] [--source-id ID] [--corrupt-frame K]
//
// A run: script generation; 7 fresh set-up sessions (LoadModule + the cold
// QueryBatch); both connections load, warm up for 1 s and run the timed
// window; then each sends a probe of back-to-back CFG edits and one check
// frame. --trace 1 halves the window and then replays every connection's
// identical frames through a traced frame loop, printing the per-layer
// ledger instead of the end-to-end metrics. --corrupt-frame K flips one bit
// of the expected reply of connection 0's main frame K (the self-test that
// a wrong reply counts as a failure).
//
// Every metric is printed as a "# name value unit" line, followed by one
// JSON line {"correct", "attempted", "failed", "metrics"}. The exit code is
// nonzero unless every reply matched.
//
//===----------------------------------------------------------------------===//

#include "Script.h"
#include "Trace.h"

#include "ir/IRParser.h"
#include "ir/Verifier.h"
#include "pipeline/AnalysisManager.h"
#include "server/LivenessServer.h"
#include "support/Telemetry.h"

#include <algorithm>
#include <atomic>
#include <barrier>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <fstream>
#include <functional>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include <malloc.h>
#include <sys/socket.h>
#include <unistd.h>

using namespace ssalive;
using namespace ssalive::benchmark;
namespace proto = ssalive::protocol;
using telemetry::nowNanos;

namespace {

constexpr unsigned Connections = 2;
constexpr unsigned PoolWorkers = 2;
constexpr unsigned SetupSessions = 7;
/// Frames per traced round: the program's per-thread span ring holds 4096
/// spans and a query frame records 2, so a round never wraps it.
constexpr unsigned TraceRound = 1024;
/// Edit steps per second per connection the edit script is sized for:
/// 1.6 times the rate measured on an uncontended 4-core Xeon host. A
/// connection that still runs out idles until the window closes; the CPU
/// figures stay exact, and the result's metadata says so.
constexpr double EditStepsPerSecond = 1200;

struct Args {
  Workload W = Workload::Uniform4k;
  std::uint64_t Seed = 1;
  double Seconds = 10;
  bool Trace = false;
  std::string TraceOut;
  std::string SourceId = "unknown";
  long CorruptFrame = -1;
};

[[noreturn]] void usage(const std::string &Msg) {
  std::fprintf(stderr,
               "error: %s\nusage: ssalive-bench --workload "
               "uniform-4k|skewed-large|edit-interleaved --seed N "
               "--seconds S --trace 0|1 [--trace-out FILE] [--source-id ID] "
               "[--corrupt-frame K]\n",
               Msg.c_str());
  std::exit(2);
}

Args parseArgs(int Argc, char **Argv) {
  Args A;
  bool HaveWorkload = false;
  for (int I = 1; I < Argc; I += 2) {
    std::string Key = Argv[I];
    if (I + 1 >= Argc)
      usage("missing value for " + Key);
    std::string Val = Argv[I + 1];
    if (Key == "--workload") {
      if (!parseWorkload(Val, A.W))
        usage("unknown workload " + Val);
      HaveWorkload = true;
    } else if (Key == "--seed") {
      A.Seed = std::strtoull(Val.c_str(), nullptr, 10);
    } else if (Key == "--seconds") {
      A.Seconds = std::strtod(Val.c_str(), nullptr);
      if (!(A.Seconds > 0 && A.Seconds <= 120))
        usage("--seconds must be in (0, 120]");
    } else if (Key == "--trace") {
      if (Val != "0" && Val != "1")
        usage("--trace takes 0 or 1");
      A.Trace = Val == "1";
    } else if (Key == "--trace-out") {
      A.TraceOut = Val;
    } else if (Key == "--source-id") {
      A.SourceId = Val;
    } else if (Key == "--corrupt-frame") {
      A.CorruptFrame = std::strtol(Val.c_str(), nullptr, 10);
    } else {
      usage("unknown option " + Key);
    }
  }
  if (!HaveWorkload)
    usage("--workload is required");
  return A;
}

/// Linear-interpolated percentile, \p P in [0, 100].
double percentile(std::vector<double> V, double P) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  double Pos = P / 100.0 * double(V.size() - 1);
  std::size_t Lo = static_cast<std::size_t>(Pos);
  std::size_t Hi = std::min(Lo + 1, V.size() - 1);
  return V[Lo] + (V[Hi] - V[Lo]) * (Pos - double(Lo));
}

double median(std::vector<double> V) { return percentile(std::move(V), 50); }

/// The median over \p Groups of each non-empty group's \p P-th
/// percentile. Grouping samples by 1-second slice (or probe round) makes a
/// latency figure the typical second's: a burst of contention from other
/// tenants of the host moves the slices it hits, not the median.
double groupedPercentile(const std::vector<std::vector<double>> &Groups,
                         double P) {
  std::vector<double> PerGroup;
  for (const std::vector<double> &G : Groups)
    if (!G.empty())
      PerGroup.push_back(percentile(G, P));
  return median(PerGroup);
}

/// CPU time of the whole process (or of the calling thread). The kernel
/// does not charge a task for time its virtual CPU was descheduled by the
/// hypervisor (steal), so these clocks measure work done, where wall time
/// also measures how busy the other tenants of a shared host are.
std::uint64_t cpuNanos(clockid_t Clock = CLOCK_PROCESS_CPUTIME_ID) {
  timespec T{};
  clock_gettime(Clock, &T);
  return std::uint64_t(T.tv_sec) * 1000000000ull + std::uint64_t(T.tv_nsec);
}

std::uint64_t statusKb(const char *Field) {
  std::ifstream In("/proc/self/status");
  std::string Line;
  std::size_t Len = std::strlen(Field);
  while (std::getline(In, Line))
    if (Line.compare(0, Len, Field) == 0 && Line.size() > Len)
      return std::strtoull(Line.c_str() + Len + 1, nullptr, 10);
  return 0;
}

/// Restarts the kernel's peak-RSS mark, so the peak covers serving and not
/// script generation. False where the kernel refuses.
bool resetPeakRss() {
  std::ofstream Out("/proc/self/clear_refs");
  Out << "5";
  Out.flush();
  return static_cast<bool>(Out);
}

std::string cpuModel() {
  std::ifstream In("/proc/cpuinfo");
  std::string Line;
  while (std::getline(In, Line))
    if (Line.compare(0, 10, "model name") == 0) {
      std::size_t Colon = Line.find(':');
      return Colon == std::string::npos ? Line : Line.substr(Colon + 2);
    }
  return "unknown";
}

std::string jsonEscape(const std::string &S) {
  std::string Out;
  for (char C : S) {
    if (C == '"' || C == '\\')
      Out += '\\';
    if (static_cast<unsigned char>(C) >= 0x20)
      Out += C;
  }
  return Out;
}

/// A counter or gauge value (a histogram's sum) from a registry snapshot.
double series(const std::vector<telemetry::Metric> &Snap, const char *Name) {
  for (const telemetry::Metric &M : Snap)
    if (M.Name == Name)
      return double(M.Kind == telemetry::MetricKind::Histogram ? M.Hist.Sum
                                                               : M.Value);
  return 0;
}

/// One frame as the client saw it.
struct Sample {
  FrameKind Kind = FrameKind::Query;
  std::uint32_t Queries = 0;
  std::uint64_t StartNs = 0, EndNs = 0;
};

/// One connection in one pass. Frames[0] is LoadModule, Frames[1] the cold
/// QueryBatch, then the main frames, then the probe.
struct ConnRun {
  std::vector<Sample> Frames;
  std::size_t MainSent = 0;   ///< Main frames sent (the replay count).
  std::size_t ProbeBegin = 0; ///< Index of the first probe frame.
  std::uint64_t Sent = 0, Mismatched = 0, ErrorReplies = 0;
  bool TransportFailed = false;
  bool Exhausted = false; ///< The edit script ran out before the deadline.
  std::vector<std::uint8_t> Reply; ///< Receive buffer, reused.
};

/// What the clients of one pass do.
struct ClientPlan {
  /// Timed: run the main frames until the deadline and the probe until
  /// its time is up. Otherwise replay exactly ReplayMain[conn] main frames
  /// and ReplayProbeRounds probe rounds, pausing every TraceRound frames.
  bool Timed = true;
  std::vector<std::size_t> ReplayMain;
  unsigned ReplayProbeRounds = 0;
};

/// The clients' rendezvous points. A timed pass meets when both sessions
/// are warm (the window opens), then twice per probe round: the edits about
/// to start (after the reload) and the edits done (before the check frame).
/// A replayed pass meets every TraceRound frames. Hook runs once per
/// meeting, on one thread, before anyone leaves it.
struct Phase {
  std::function<void()> Hook;
  unsigned Meetings = 0;
  std::atomic<std::uint64_t> WarmEndNs{0}, DeadlineNs{0};
  std::uint64_t ProbeEndNs = 0, EditCpu0 = 0;
  std::vector<std::uint64_t> EditCpuNs; ///< Per probe round, both clients.
  unsigned ProbeRounds = 0;
  bool MoreProbeRounds = true;
};

using Barrier = std::barrier<std::function<void()>>;

class Bench {
public:
  explicit Bench(const Args &A) : A(A) {}
  int run();

private:
  /// Sends one request, reads its reply, and checks it against \p Expected
  /// (\p Len bytes). False on transport failure.
  bool exchange(int Fd, const std::vector<std::uint8_t> &Request,
                const std::uint8_t *Expected, std::size_t Len, FrameKind Kind,
                std::uint32_t Queries, ConnRun &R);
  bool exchange(int Fd, const ConnScript &C, const Frame &F, ConnRun &R) {
    return exchange(Fd, C.request(F), C.Expected.data() + F.ExpectedOff,
                    F.ExpectedLen, F.Kind, F.Queries, R);
  }
  bool loadModule(int Fd, ConnRun &R) {
    return exchange(Fd, Script_.LoadRequest, Script_.ExpectedLoaded.data(),
                    Script_.ExpectedLoaded.size(), FrameKind::Load, 0, R);
  }

  void client(int Fd, unsigned CI, const ClientPlan &Plan, Phase &P,
              Barrier &Sync, ConnRun &R);
  void runPass(server::LivenessServer &Server, const ClientPlan &Plan,
               bool Traced, std::vector<ConnRun> &Runs, Phase &P);
  void tracedServe(server::LivenessServer &Server, int Fd, unsigned CI);
  void measureSetup(server::LivenessServer &Server);
  void setupLedger();
  void frameLedger(const std::vector<ConnRun> &Runs,
                   const std::vector<ConnRun> &Traced, const Phase &P);

  const Args &A;
  Script Script_;

  ConnRun SetupRun;
  std::vector<double> SetupWall, SetupCpu;

  /// \name Traced-pass state.
  /// @{
  std::vector<Span> HandleSpans[Connections];
  std::vector<telemetry::TraceEvent> Harvest;
  std::vector<Span> OwnSpans;
  std::vector<std::pair<std::uint64_t, std::uint64_t>> Pauses;
  /// LiveCheck::update tallies of edited engines, per handler thread.
  std::uint64_t EngineUpdates[Connections] = {}, EngineRepatches[Connections] = {};
  /// @}

  /// name -> (value, unit), everything this run measured.
  std::map<std::string, std::pair<double, const char *>> Metrics;
};

bool Bench::exchange(int Fd, const std::vector<std::uint8_t> &Request,
                     const std::uint8_t *Expected, std::size_t Len,
                     FrameKind Kind, std::uint32_t Queries, ConnRun &R) {
  std::vector<std::uint8_t> &Reply = R.Reply;
  Sample S;
  S.Kind = Kind;
  S.Queries = Queries;
  S.StartNs = nowNanos();
  bool Ok = proto::writeFrame(Fd, Request) &&
            proto::readFrame(Fd, Reply) == proto::ReadStatus::Ok;
  S.EndNs = nowNanos();
  ++R.Sent;
  if (!Ok) {
    R.TransportFailed = true;
    return false;
  }
  if (Reply.size() != Len || std::memcmp(Reply.data(), Expected, Len) != 0) {
    ++R.Mismatched;
    if (!Reply.empty() &&
        Reply[0] == static_cast<std::uint8_t>(proto::Opcode::Error))
      ++R.ErrorReplies;
  }
  R.Frames.push_back(S);
  return true;
}

void Bench::client(int Fd, unsigned CI, const ClientPlan &Plan, Phase &P,
                   Barrier &Sync, ConnRun &R) {
  const ConnScript &C = Script_.Conns[CI];
  // Every exit leaves the barrier, so the other client never waits on a
  // connection that is gone.
  struct Leave {
    Barrier &Sync;
    ~Leave() { (void)Sync.arrive_and_drop(); }
  } Leaver{Sync};
  auto Send = [&](const Frame &F) {
    if (!Plan.Timed && R.Frames.size() % TraceRound == 0)
      Sync.arrive_and_wait();
    return exchange(Fd, C, F, R);
  };
  if (!loadModule(Fd, R) || !exchange(Fd, C, C.Cold, R))
    return;
  if (Plan.Timed)
    Sync.arrive_and_wait();
  for (std::size_t I = 0;; ++I) {
    if (Plan.Timed) {
      if (nowNanos() >= P.DeadlineNs)
        break;
      if (I == C.Main.size() && !C.Cyclic) {
        // Idle out the window, so that the probe stays outside it.
        R.Exhausted = true;
        std::uint64_t Now = nowNanos(), Deadline = P.DeadlineNs;
        if (Deadline > Now)
          std::this_thread::sleep_for(std::chrono::nanoseconds(Deadline - Now));
        break;
      }
    } else if (I == Plan.ReplayMain[CI]) {
      break;
    }
    if (!Send(C.Main[I % C.Main.size()]))
      return;
    ++R.MainSent;
  }
  // The probe (reload, cold frame, edits, check frame) repeats until its
  // time is up; every round replays the same frames, since the reload
  // resets the module. Timed rounds meet when the edits start and when
  // they end, so the CPU between is the edits' alone.
  R.ProbeBegin = R.Frames.size();
  const std::size_t Check = C.Probe.size() - 1;
  for (unsigned Round = 0;; ++Round) {
    if (!Plan.Timed && Round == Plan.ReplayProbeRounds)
      break;
    for (std::size_t I = 0; I != C.Probe.size(); ++I) {
      if (Plan.Timed && (I == 2 || I == Check))
        Sync.arrive_and_wait();
      if (!Send(C.Probe[I]))
        return;
    }
    if (Plan.Timed && !P.MoreProbeRounds)
      break;
  }
}

void Bench::tracedServe(server::LivenessServer &Server, int Fd, unsigned CI) {
  // A zero-length marker span tells the ledger which recorder thread id
  // this handler has.
  static const char *const Marker[Connections] = {"bench.handler0",
                                                  "bench.handler1"};
  telemetry::TraceRecorder::record(Marker[CI], "bench", nowNanos(), 0);
  std::unique_ptr<server::Session> S = Server.router().createSession();
  std::map<unsigned, LiveCheckUpdateStats> Prev;
  std::vector<std::uint8_t> Payload;
  // serveStream's frame loop minus resume and shedding, with the span
  // around Session::handle that serveStream cannot give from outside.
  while (proto::readFrame(Fd, Payload) == proto::ReadStatus::Ok) {
    Span H;
    H.Name = "server.handle";
    H.Conn = static_cast<int>(CI);
    H.FrameIndex = static_cast<long>(HandleSpans[CI].size());
    H.StartNs = nowNanos();
    std::vector<std::uint8_t> Reply = S->handle(Payload);
    H.EndNs = nowNanos();
    HandleSpans[CI].push_back(H);
    // After an EditCFG (count at bytes 1-4, the first item's function at
    // bytes 6-9), read the edited engine's update tallies: the session is
    // idle between frames and this is its only thread.
    if (Payload.size() >= 10 &&
        Payload[0] == static_cast<std::uint8_t>(proto::Opcode::EditCFG) &&
        S->hasModule()) {
      proto::WireReader R(Payload.data() + 6, 4);
      unsigned FI = R.u32();
      if (FI < S->numFunctions()) {
        const LiveCheckUpdateStats &Now = S->driver()
                                              .analysisManager()
                                              .get(S->function(FI))
                                              .liveCheck()
                                              .updateStats();
        LiveCheckUpdateStats Base = Prev[FI];
        if (Now.Updates < Base.Updates)
          Base = {}; // The engine was rebuilt: its tallies restarted.
        EngineUpdates[CI] += Now.Updates - Base.Updates;
        EngineRepatches[CI] +=
            Now.IncrementalRepatches - Base.IncrementalRepatches;
        Prev[FI] = Now;
      }
    }
    if (!proto::writeFrame(Fd, Reply))
      break;
  }
}

void Bench::runPass(server::LivenessServer &Server, const ClientPlan &Plan,
                    bool Traced, std::vector<ConnRun> &Runs, Phase &P) {
  Runs.assign(Connections, ConnRun());
  // Touch the sample buffers up front: grown on demand, they would add
  // RSS in proportion to the frames the host let the run send.
  for (unsigned CI = 0; CI != Connections; ++CI) {
    const ConnScript &C = Script_.Conns[CI];
    std::size_t Bound = 2 + (C.Cyclic ? 65536 : C.Main.size()) +
                        64 * C.Probe.size();
    Runs[CI].Frames.resize(Bound);
    Runs[CI].Frames.clear();
  }
  Barrier Sync(Connections, [&P]() noexcept {
    P.Hook();
    ++P.Meetings;
  });
  std::vector<std::thread> Servers, Clients;
  int ClientFd[Connections];
  for (unsigned CI = 0; CI != Connections; ++CI) {
    int Fds[2];
    if (::socketpair(AF_UNIX, SOCK_STREAM, 0, Fds) != 0) {
      std::perror("socketpair");
      std::exit(1);
    }
    ClientFd[CI] = Fds[0];
    Servers.emplace_back([this, &Server, Traced, CI, Fd = Fds[1]] {
      if (Traced)
        tracedServe(Server, Fd, CI);
      else
        Server.serveStream(Fd, Fd);
      ::close(Fd);
    });
  }
  for (unsigned CI = 0; CI != Connections; ++CI)
    Clients.emplace_back(
        [&, CI] { client(ClientFd[CI], CI, Plan, P, Sync, Runs[CI]); });
  for (std::thread &T : Clients)
    T.join();
  for (int Fd : ClientFd)
    ::close(Fd); // The server loops see EOF and return.
  for (std::thread &T : Servers)
    T.join();
}

/// setup_s: LoadModule plus the cold QueryBatch on fresh sessions, one at a
/// time; the median of SetupSessions, in wall and in CPU time.
void Bench::measureSetup(server::LivenessServer &Server) {
  const ConnScript &C = Script_.Conns[0];
  for (unsigned I = 0; I != SetupSessions; ++I) {
    int Fds[2];
    if (::socketpair(AF_UNIX, SOCK_STREAM, 0, Fds) != 0) {
      std::perror("socketpair");
      std::exit(1);
    }
    std::thread T([&Server, Fd = Fds[1]] {
      Server.serveStream(Fd, Fd);
      ::close(Fd);
    });
    std::uint64_t Cpu0 = cpuNanos(), Wall0 = nowNanos();
    bool Ok = loadModule(Fds[0], SetupRun) &&
              exchange(Fds[0], C, C.Cold, SetupRun);
    std::uint64_t Wall1 = nowNanos(), Cpu1 = cpuNanos();
    ::close(Fds[0]);
    T.join();
    if (!Ok)
      break;
    SetupWall.push_back(double(Wall1 - Wall0) / 1e9);
    SetupCpu.push_back(double(Cpu1 - Cpu0) / 1e9);
  }
}

/// The set-up layers timed around their public calls on a private copy of
/// the module: what LoadModule (parse, verify) and the cold frame
/// (dominator trees, LiveCheck precompute) spend, one layer at a time, in
/// CPU time like setup_s (single-threaded here, so thread CPU time).
void Bench::setupLedger() {
  std::vector<double> Parse, Verify, Dom, Pre;
  double RtBytes = 0;
  for (unsigned Rep = 0; Rep != 3; ++Rep) {
    auto Timed = [&](const char *Name, std::vector<double> &Into, auto &&Fn) {
      Span S;
      S.Name = Name;
      S.Tid = 999;
      S.StartNs = nowNanos();
      std::uint64_t Cpu0 = cpuNanos(CLOCK_THREAD_CPUTIME_ID);
      Fn();
      Into.push_back(double(cpuNanos(CLOCK_THREAD_CPUTIME_ID) - Cpu0) / 1e6);
      S.EndNs = nowNanos();
      OwnSpans.push_back(S);
    };
    ModuleParseResult P;
    Timed("ir.parse", Parse, [&] { P = parseModule(Script_.ModuleText); });
    Timed("ir.verify", Verify, [&] {
      for (const auto &F : P.Funcs)
        (void)verifySSA(*F);
    });
    AnalysisManager AM;
    Timed("analysis.domtree", Dom, [&] {
      for (const auto &F : P.Funcs)
        (void)AM.domTree(*F);
    });
    Timed("core.precompute", Pre, [&] {
      for (const auto &F : P.Funcs)
        (void)AM.liveCheck(*F);
    });
    RtBytes = 0;
    for (const auto &F : P.Funcs)
      RtBytes += double(AM.liveCheck(*F).memoryBytes());
  }
  Metrics["ir.parse_ms"] = {median(Parse), "ms"};
  Metrics["ir.verify_ms"] = {median(Verify), "ms"};
  Metrics["analysis.domtree_ms"] = {median(Dom), "ms"};
  Metrics["core.precompute_ms"] = {median(Pre), "ms"};
  Metrics["core.rt_bytes"] = {RtBytes, "bytes"};
}

/// The timed window of an untraced pass, by frame completion time.
struct WindowStats {
  double Seconds = 0;
  std::uint64_t Queries = 0;
  std::size_t QueryFrames = 0, EditFrames = 0;
  /// Answered queries per second: the median over the window's 1-second
  /// slices.
  double QueriesPerS = 0;
  std::vector<double> SliceQueries; ///< Queries answered, by slice.
  /// Round-trip latencies by 1-second slice.
  std::vector<std::vector<double>> QueryUs, EditUs;
  std::size_t Begin[Connections], End[Connections]; ///< Frame index range.
};

WindowStats windowStats(const std::vector<ConnRun> &Runs, const Phase &P) {
  WindowStats W;
  W.Seconds = double(P.DeadlineNs - P.WarmEndNs) / 1e9;
  std::vector<double> Slices(std::max<std::size_t>(1, std::lround(W.Seconds)));
  const double SliceNs =
      double(P.DeadlineNs - P.WarmEndNs) / double(Slices.size());
  W.QueryUs.resize(Slices.size());
  W.EditUs.resize(Slices.size());
  for (unsigned CI = 0; CI != Connections; ++CI) {
    const ConnRun &R = Runs[CI];
    W.Begin[CI] = W.End[CI] = 0;
    for (std::size_t I = 2; I < R.ProbeBegin; ++I) {
      const Sample &S = R.Frames[I];
      if (S.EndNs <= P.WarmEndNs || S.EndNs > P.DeadlineNs)
        continue;
      if (W.End[CI] == 0)
        W.Begin[CI] = I;
      W.End[CI] = I + 1;
      double Us = double(S.EndNs - S.StartNs) / 1e3;
      std::size_t K = std::min(
          Slices.size() - 1, static_cast<std::size_t>(
                                 double(S.EndNs - P.WarmEndNs - 1) / SliceNs));
      if (S.Kind == FrameKind::Query) {
        W.QueryUs[K].push_back(Us);
        W.Queries += S.Queries;
        ++W.QueryFrames;
        Slices[K] += S.Queries;
      } else {
        W.EditUs[K].push_back(Us);
        ++W.EditFrames;
      }
    }
  }
  W.SliceQueries = Slices;
  for (double &Q : Slices)
    Q /= SliceNs / 1e9;
  W.QueriesPerS = median(Slices);
  return W;
}

/// Per-frame splits of the traced pass over the untraced window's frames
/// (and the probe's edits), reported as per-layer medians.
void Bench::frameLedger(const std::vector<ConnRun> &Runs,
                        const std::vector<ConnRun> &Traced, const Phase &P) {
  WindowStats W = windowStats(Runs, P);
  std::vector<double> Transport, Session, Ensure, Query, RoundTrip;
  std::vector<double> Refresh, EditTransport, EditSession;
  std::uint64_t Queries = 0, First = UINT64_MAX, Last = 0;
  for (unsigned CI = 0; CI != Connections; ++CI) {
    std::uint32_t Tid = 0;
    for (const telemetry::TraceEvent &E : Harvest)
      if (std::strcmp(E.Name, CI == 0 ? "bench.handler0" : "bench.handler1") ==
          0)
        Tid = E.Tid;
    const ConnRun &R = Traced[CI];
    std::vector<Span> &H = HandleSpans[CI];
    std::vector<FrameSplit> Split(H.size());
    attributeProgramSpans(Harvest, Tid, H, Split);
    std::size_t N = std::min(H.size(), R.Frames.size());
    for (std::size_t I = 0; I != N; ++I) {
      const Sample &S = R.Frames[I];
      H[I].Tid = Tid;
      OwnSpans.push_back(H[I]);
      Span C;
      C.Name = "client.frame";
      C.StartNs = S.StartNs;
      C.EndNs = S.EndNs;
      C.Tid = 900 + CI;
      C.Conn = static_cast<int>(CI);
      C.FrameIndex = static_cast<long>(I);
      OwnSpans.push_back(C);

      double Rt = double(S.EndNs - S.StartNs) / 1e3;
      double Handle = double(H[I].EndNs - H[I].StartNs) / 1e3;
      const FrameSplit &F = Split[I];
      bool InWindow = I >= W.Begin[CI] && I < W.End[CI];
      if (S.Kind == FrameKind::Edit && (InWindow || I >= R.ProbeBegin)) {
        Refresh.push_back(double(F.Refresh) / 1e3);
        EditTransport.push_back(Rt - Handle);
        EditSession.push_back(Handle - double(F.Refresh) / 1e3);
      }
      if (!InWindow || S.Kind != FrameKind::Query)
        continue;
      Transport.push_back(Rt - Handle);
      Session.push_back(Handle - double(F.QueryBatch) / 1e3);
      Ensure.push_back(double(F.Precompute) / 1e3);
      Query.push_back(double(F.QueryBatch - F.Precompute) / 1e3);
      RoundTrip.push_back(Rt);
      Queries += S.Queries;
      First = std::min(First, S.StartNs);
      Last = std::max(Last, S.EndNs);
    }
  }
  // Traced throughput over the same frames, minus the harvest pauses.
  std::uint64_t Paused = 0;
  for (auto [B, E] : Pauses)
    if (B >= First && E <= Last)
      Paused += E - B;
  double TracedQps = Last > First + Paused
                         ? double(Queries) / (double(Last - First - Paused) / 1e9)
                         : 0;
  // Both throughputs as total over elapsed, the same estimator.
  double UntracedQps = double(W.Queries) / W.Seconds;
  double FrameP50 = groupedPercentile(W.QueryUs, 50);

  Metrics["pipeline.ensure_us"] = {median(Ensure), "us"};
  Metrics["pipeline.query_us"] = {median(Query), "us"};
  Metrics["pipeline.refresh_us"] = {median(Refresh), "us"};
  std::uint64_t Updates = 0, Repatches = 0;
  for (unsigned CI = 0; CI != Connections; ++CI) {
    Updates += EngineUpdates[CI];
    Repatches += EngineRepatches[CI];
  }
  Metrics["pipeline.repatch_ratio"] = {
      Updates ? double(Repatches) / double(Updates) : 0, "ratio"};
  Metrics["server.session_us"] = {median(Session), "us"};
  Metrics["server.transport_us"] = {median(Transport), "us"};
  Metrics["server.edit_session_us"] = {median(EditSession), "us"};
  Metrics["server.edit_transport_us"] = {median(EditTransport), "us"};
  double Sum = median(Transport) + median(Session) + median(Ensure) +
               median(Query);
  Metrics["ledger.frame_sum_us"] = {Sum, "us"};
  Metrics["ledger.reconcile_err"] = {
      FrameP50 > 0 ? std::fabs(Sum / FrameP50 - 1) : 0, "ratio"};
  Metrics["trace.overhead_frac"] = {
      UntracedQps > 0 && TracedQps > 0 ? 1 - TracedQps / UntracedQps : 0,
      "ratio"};
  std::printf("# untraced window: %.0f q/s, frame p50 %.1f us; traced "
              "replay: %.0f q/s, frame p50 %.1f us\n",
              UntracedQps, FrameP50, TracedQps, median(RoundTrip));
}

int Bench::run() {
  const double WarmSeconds = A.Seconds >= 5 ? 1.0 : 0.2 * A.Seconds;
  const double Window = A.Trace ? A.Seconds / 2 : A.Seconds;
  const double ProbeSeconds = 0.15 * Window;
  std::uint64_t GenStart = nowNanos();
  ScriptOptions SOpts;
  SOpts.Connections = Connections;
  if (A.W == Workload::EditInterleaved)
    SOpts.EditSteps = static_cast<unsigned>(
        std::ceil((WarmSeconds + Window) * EditStepsPerSecond));
  try {
    Script_ = buildScript(A.W, A.Seed, SOpts);
  } catch (const std::exception &E) {
    std::fprintf(stderr, "error: script generation failed: %s\n", E.what());
    return 1;
  }
  if (A.CorruptFrame >= 0) {
    ConnScript &C = Script_.Conns[0];
    C.corrupt(C.Main[static_cast<std::size_t>(A.CorruptFrame) % C.Main.size()]);
  }
  double GenSeconds = double(nowNanos() - GenStart) / 1e9;
  std::fprintf(stderr, "[%s seed %llu] script generated in %.2f s\n",
               workloadName(A.W), static_cast<unsigned long long>(A.Seed),
               GenSeconds);
  ::malloc_trim(0); // Return generation garbage before the peak restarts.
  bool PeakReset = resetPeakRss();

  server::ServerConfig Cfg;
  Cfg.Threads = PoolWorkers;
  server::LivenessServer Server(Cfg);
  if (!A.Trace)
    measureSetup(Server);

  // ---- The untraced pass: window, then the edit probe.
  Phase P;
  P.Hook = [&] {
    switch (P.Meetings) {
    case 0: {
      std::uint64_t WarmEnd =
          nowNanos() + static_cast<std::uint64_t>(WarmSeconds * 1e9);
      P.DeadlineNs = WarmEnd + static_cast<std::uint64_t>(Window * 1e9);
      P.WarmEndNs = WarmEnd;
      break;
    }
    default:
      if (P.Meetings % 2 == 1) {
        if (P.Meetings == 1)
          P.ProbeEndNs =
              nowNanos() + static_cast<std::uint64_t>(ProbeSeconds * 1e9);
        P.EditCpu0 = cpuNanos();
      } else {
        P.EditCpuNs.push_back(cpuNanos() - P.EditCpu0);
        ++P.ProbeRounds;
        P.MoreProbeRounds = nowNanos() < P.ProbeEndNs;
      }
      break;
    }
  };
  std::vector<telemetry::Metric> SnapBegin, SnapEnd;
  // The process CPU clock at every 1-second slice boundary of the window
  // (the slices windowStats cuts), plus the registry at both ends, read
  // from a sleeping side thread.
  const std::size_t NumSlices = std::max<long>(1, std::lround(Window));
  std::vector<std::uint64_t> SliceCpu(NumSlices + 1);
  std::thread Snapper([&] {
    while (P.WarmEndNs == 0)
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    const std::uint64_t Begin = P.WarmEndNs, End = P.DeadlineNs;
    for (std::size_t K = 0; K <= NumSlices; ++K) {
      std::uint64_t T = Begin + (End - Begin) * K / NumSlices, Now = nowNanos();
      if (T > Now)
        std::this_thread::sleep_for(std::chrono::nanoseconds(T - Now));
      SliceCpu[K] = cpuNanos();
      if (K == 0)
        SnapBegin = telemetry::Registry::global().snapshot();
    }
    SnapEnd = telemetry::Registry::global().snapshot();
  });
  std::vector<ConnRun> Runs;
  ClientPlan Plan;
  runPass(Server, Plan, /*Traced=*/false, Runs, P);
  if (P.WarmEndNs == 0) { // A client failed before the window opened.
    P.DeadlineNs = 1;
    P.WarmEndNs = 1;
  }
  Snapper.join();
  double PeakMb = double(statusKb("VmHWM")) / 1024.0;
  WindowStats W = windowStats(Runs, P);

  // ---- The traced pass replays each connection's identical frames.
  std::vector<ConnRun> TracedRuns;
  if (A.Trace) {
    setupLedger();
    telemetry::TraceRecorder::clear();
    telemetry::TraceRecorder::setEnabled(true);
    Phase TP;
    TP.Hook = [&] {
      std::uint64_t Start = nowNanos();
      std::vector<telemetry::TraceEvent> E =
          telemetry::TraceRecorder::events();
      telemetry::TraceRecorder::clear();
      Harvest.insert(Harvest.end(), E.begin(), E.end());
      Pauses.push_back({Start, nowNanos()});
    };
    ClientPlan Replay;
    Replay.Timed = false;
    for (const ConnRun &R : Runs)
      Replay.ReplayMain.push_back(R.MainSent);
    Replay.ReplayProbeRounds = P.ProbeRounds;
    runPass(Server, Replay, /*Traced=*/true, TracedRuns, TP);
    TP.Hook();
    telemetry::TraceRecorder::setEnabled(false);
  }

  // ---- Correctness.
  std::uint64_t Attempted = 0, Failed = 0, ErrorReplies = 0;
  bool Exhausted = false;
  std::vector<const ConnRun *> All{&SetupRun};
  for (const std::vector<ConnRun> *Set : {&Runs, &TracedRuns})
    for (const ConnRun &R : *Set)
      All.push_back(&R);
  for (const ConnRun *R : All) {
    Attempted += R->Sent;
    Failed += R->Mismatched + (R->TransportFailed ? 1 : 0);
    ErrorReplies += R->ErrorReplies;
    Exhausted |= R->Exhausted;
  }
  bool Correct = Failed == 0 && Attempted != 0;

  // ---- Metrics.
  if (!A.Trace) {
    // Edit latency: the window's edits where the workload has them, else
    // the probe's, grouped by probe round.
    std::vector<std::vector<double>> ProbeUs(P.ProbeRounds);
    double ProbeEdits = 0;
    for (unsigned CI = 0; CI != Connections; ++CI) {
      const ConnRun &R = Runs[CI];
      const std::size_t RoundLen = Script_.Conns[CI].Probe.size();
      for (std::size_t I = R.ProbeBegin; I < R.Frames.size(); ++I)
        if (R.Frames[I].Kind == FrameKind::Edit) {
          ++ProbeEdits;
          std::size_t Round = (I - R.ProbeBegin) / RoundLen;
          if (Round < ProbeUs.size())
            ProbeUs[Round].push_back(
                double(R.Frames[I].EndNs - R.Frames[I].StartNs) / 1e3);
        }
    }
    const std::vector<std::vector<double>> &EditUs =
        W.EditFrames ? W.EditUs : ProbeUs;
    // The CPU figures are medians too: over the window's slices, and over
    // the probe's rounds.
    std::vector<double> QueriesPerCpuS, EditCpuUs;
    for (std::size_t K = 0; K != W.SliceQueries.size(); ++K)
      if (SliceCpu[K + 1] > SliceCpu[K])
        QueriesPerCpuS.push_back(W.SliceQueries[K] /
                                 (double(SliceCpu[K + 1] - SliceCpu[K]) / 1e9));
    if (P.ProbeRounds)
      for (std::uint64_t Ns : P.EditCpuNs)
        EditCpuUs.push_back(double(Ns) / 1e3 / (ProbeEdits / P.ProbeRounds));
    Metrics["setup_s"] = {median(SetupCpu), "s"};
    Metrics["setup_wall_s"] = {median(SetupWall), "s"};
    Metrics["queries_per_s"] = {W.QueriesPerS, "1/s"};
    Metrics["queries_per_cpu_s"] = {median(QueriesPerCpuS), "1/s"};
    Metrics["frame_p50_us"] = {groupedPercentile(W.QueryUs, 50), "us"};
    Metrics["frame_p90_us"] = {groupedPercentile(W.QueryUs, 90), "us"};
    Metrics["edit_p50_us"] = {groupedPercentile(EditUs, 50), "us"};
    Metrics["edit_p90_us"] = {groupedPercentile(EditUs, 90), "us"};
    Metrics["edit_cpu_us"] = {median(EditCpuUs), "us"};
    Metrics["peak_rss_mb"] = {PeakMb, "MB"};
    std::printf("# samples: %zu query frames, %zu edits (%s); window %.2f s, "
                "%llu queries\n",
                W.QueryFrames,
                W.EditFrames ? W.EditFrames : std::size_t(ProbeEdits),
                W.EditFrames ? "in window" : "post-window probe",
                W.Seconds, static_cast<unsigned long long>(W.Queries));
  } else {
    frameLedger(Runs, TracedRuns, P);
    auto Delta = [&](const char *Name) {
      return series(SnapEnd, Name) - series(SnapBegin, Name);
    };
    double Queries = Delta("ssalive_driver_queries_total");
    double Hits = Delta("ssalive_prepared_hits_total");
    double Builds = Delta("ssalive_prepared_builds_total") +
                    Delta("ssalive_prepared_rebuilds_total") +
                    Delta("ssalive_prepared_epoch_drops_total");
    double Chunks = Delta("ssalive_driver_chunks_total");
    double Edits = double(W.EditFrames);
    Metrics["core.prepared_arena_bytes"] = {
        series(SnapEnd, "ssalive_prepared_arena_bytes"), "bytes"};
    Metrics["core.prepared_hit_ratio"] = {
        Hits + Builds > 0 ? Hits / (Hits + Builds) : 0, "ratio"};
    Metrics["core.prepared_epoch_drops"] = {
        Edits > 0 ? Delta("ssalive_prepared_epoch_drops_total") / Edits : 0,
        "count/edit"};
    Metrics["core.targets_per_query"] = {
        Queries > 0 ? Delta("ssalive_engine_targets_visited_total") / Queries
                    : 0,
        "count"};
    Metrics["core.use_tests_per_query"] = {
        Queries > 0 ? Delta("ssalive_engine_use_tests_total") / Queries : 0,
        "count"};
    Metrics["support.steal_ratio"] = {
        Chunks > 0 ? Delta("ssalive_driver_steals_total") / Chunks : 0,
        "ratio"};
    if (!A.TraceOut.empty() && !writeChromeTrace(A.TraceOut, OwnSpans, Harvest))
      std::fprintf(stderr, "warning: could not write %s\n", A.TraceOut.c_str());
  }

  // ---- Report: metadata, tallies, every metric, then the result line.
  std::printf("# meta {\"workload\":\"%s\",\"seed\":%llu,\"nproc\":%ld,"
              "\"cpu\":\"%s\",\"build_type\":\"%s\",\"compiler\":\"%s\","
              "\"source\":\"%s\",\"module_functions\":%u,"
              "\"module_blocks\":%llu,\"module_values\":%llu,"
              "\"connections\":%u,\"pool_workers\":%u,\"script_s\":%.3f,"
              "\"peak_rss_reset\":%s,\"script_exhausted\":%s}\n",
              workloadName(A.W), static_cast<unsigned long long>(A.Seed),
              ::sysconf(_SC_NPROCESSORS_ONLN), jsonEscape(cpuModel()).c_str(),
              SSALIVE_BENCH_BUILD_TYPE, SSALIVE_BENCH_COMPILER,
              jsonEscape(A.SourceId).c_str(), Script_.NumFuncs,
              static_cast<unsigned long long>(Script_.NumBlocks),
              static_cast<unsigned long long>(Script_.NumValues), Connections,
              PoolWorkers, GenSeconds, PeakReset ? "true" : "false",
              Exhausted ? "true" : "false");
  std::uint64_t EditsKept = 0, EditsRejected = 0;
  for (const ConnScript &C : Script_.Conns) {
    EditsKept += C.EditsKept;
    EditsRejected += C.EditsRejected;
  }
  std::printf("# edits: %llu kept, %llu candidates rejected as non-strict\n",
              static_cast<unsigned long long>(EditsKept),
              static_cast<unsigned long long>(EditsRejected));
  std::printf("# frames: %llu attempted, %llu failed (%llu error replies), "
              "failed_frac %.6g\n",
              static_cast<unsigned long long>(Attempted),
              static_cast<unsigned long long>(Failed),
              static_cast<unsigned long long>(ErrorReplies),
              Attempted ? double(Failed) / double(Attempted) : 1.0);
  if (Exhausted)
    std::fprintf(stderr, "warning: a connection ran out of script before "
                         "the window closed\n");
  for (const auto &[Name, V] : Metrics)
    std::printf("# %-28s %16.10g %s\n", Name.c_str(), V.first, V.second);
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              Correct ? "true" : "false",
              static_cast<unsigned long long>(Attempted),
              static_cast<unsigned long long>(Failed));
  const char *Sep = "";
  for (const auto &[Name, V] : Metrics) {
    std::printf("%s\"%s\": {\"value\": %.10g, \"unit\": \"%s\"}", Sep,
                Name.c_str(), V.first, V.second);
    Sep = ", ";
  }
  std::printf("}}\n");
  std::fflush(stdout);
  return Correct ? 0 : 1;
}

} // namespace

int main(int Argc, char **Argv) {
  Args A = parseArgs(Argc, Argv);
  proto::ignoreSigpipe();
  return Bench(A).run();
}
