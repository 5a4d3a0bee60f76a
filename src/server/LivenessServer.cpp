//===- server/LivenessServer.cpp - Long-lived liveness server -------------===//
//
// Part of the ssalive project, released under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "server/LivenessServer.h"

#include "support/Telemetry.h"

#include <arpa/inet.h>
#include <cerrno>
#include <cstring>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/ioctl.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

using namespace ssalive;
using namespace ssalive::server;
using namespace ssalive::protocol;

namespace ssalive::server::detail {
// Defined in SessionManager.cpp: encodeError plus the shared error
// taxonomy counter.
std::vector<std::uint8_t> countedErrorReply(protocol::ErrorCode Code,
                                            const std::string &Msg);
} // namespace ssalive::server::detail

namespace {

/// Wire-level telemetry: byte counters for both directions, one latency
/// histogram per frame (and a second one for query frames specifically —
/// the latency distribution the amortization profile is about), the
/// transport's connection count, and the overload-shedding tallies (one
/// per shedding gate: frames, connections, and session admission).
struct WireTelemetry {
  telemetry::Counter RxBytes{"ssalive_server_rx_bytes_total"};
  telemetry::Counter TxBytes{"ssalive_server_tx_bytes_total"};
  telemetry::Counter Connections{"ssalive_server_connections_total"};
  telemetry::Counter ShedFrames{"ssalive_server_shed_frames_total"};
  telemetry::Counter ShedConnections{"ssalive_server_shed_connections_total"};
  telemetry::Counter ShedSessions{"ssalive_server_shed_sessions_total"};
  telemetry::Histogram FrameNs{"ssalive_server_frame_ns"};
  telemetry::Histogram QueryFrameNs{"ssalive_server_query_frame_ns"};

  static const WireTelemetry &get() {
    static WireTelemetry T;
    return T;
  }
};

/// The reply to a frame that would open a new session past
/// ServerConfig::MaxSessions (SessionManager refused the session).
std::vector<std::uint8_t> shedSessionReply() {
  WireTelemetry::get().ShedSessions.inc();
  return detail::countedErrorReply(ErrorCode::Overloaded,
                                   "session cap reached; retry later");
}

} // namespace

LivenessServer::LivenessServer(ServerConfig Cfg) : Cfg(Cfg), Manager(Cfg) {
  ignoreSigpipe();
}

LivenessServer::~LivenessServer() {
  stop();
  if (Acceptor.joinable())
    Acceptor.join();
  joinHandlers();
  if (ListenFd >= 0)
    ::close(ListenFd);
  if (TcpListenFd >= 0)
    ::close(TcpListenFd);
  if (!SocketPath.empty())
    ::unlink(SocketPath.c_str());
}

void LivenessServer::serveStream(int InFd, int OutFd) {
  Connections.fetch_add(1, std::memory_order_relaxed);
  WireTelemetry::get().Connections.inc();
  // Created lazily so the first frame can be a Resume handshake that
  // re-attaches to a parked session instead of opening a plain one.
  std::unique_ptr<Session> S;
  serveFrames(InFd, OutFd, S);
  // No-op unless the session is resumable and did not request shutdown:
  // the journal outlives the connection, not the server.
  Manager.parkSession(std::move(S));
}

void LivenessServer::serveFrames(int InFd, int OutFd,
                                 std::unique_ptr<Session> &S) {
  const WireTelemetry &T = WireTelemetry::get();
  std::vector<std::uint8_t> Payload;
  for (;;) {
    ReadStatus RS = readFrame(InFd, Payload, Cfg.MaxFrameBytes);
    if (RS == ReadStatus::TooLarge) {
      // The oversized frame was never consumed, so the stream cannot be
      // resynchronized: answer once, well-formed, and hang up.
      (void)writeFrame(OutFd,
                       detail::countedErrorReply(
                           ErrorCode::FrameTooLarge,
                           "frame exceeds the server's size cap"),
                       Cfg.MaxFrameBytes);
      return;
    }
    if (RS != ReadStatus::Ok)
      return; // Eof / Truncated / IoError: nothing sane left to say.
    T.RxBytes.inc(4 + Payload.size());

    if (!S && !Payload.empty() &&
        Payload[0] == static_cast<std::uint8_t>(protocol::Opcode::Resume)) {
      if (!handleResume(OutFd, Payload, S))
        return;
      continue;
    }

    // In-flight budget: a client flooding frames faster than it drains
    // replies gets them shed, not queued. The frame is answered with a
    // well-formed Error(Overloaded) and never dispatched (and never
    // journaled — shed frames are retryable and do not count toward the
    // resume high-water mark), so the work per flooded frame is bounded
    // by this check regardless of how deep the flood runs.
    if (Cfg.InFlightBudgetBytes != 0) {
      int Queued = 0;
      if (::ioctl(InFd, FIONREAD, &Queued) == 0 && Queued > 0 &&
          static_cast<std::size_t>(Queued) > Cfg.InFlightBudgetBytes) {
        T.ShedFrames.inc();
        std::vector<std::uint8_t> Reply = detail::countedErrorReply(
            ErrorCode::Overloaded,
            "in-flight frame budget exceeded; drain replies and retry");
        T.TxBytes.inc(4 + Reply.size());
        if (!writeFrame(OutFd, Reply, Cfg.MaxFrameBytes))
          return;
        continue;
      }
    }

    if (!S) {
      // Admission control: past MaxSessions, a frame that would open a
      // NEW session is shed (existing sessions keep being served —
      // shedding admissions, not service).
      S = Manager.createSession();
      if (!S) {
        std::vector<std::uint8_t> Reply = shedSessionReply();
        T.TxBytes.inc(4 + Reply.size());
        if (!writeFrame(OutFd, Reply, Cfg.MaxFrameBytes))
          return;
        continue;
      }
    }
    // Frame latency covers dispatch through reply encode — the request's
    // resident cost — not the peer-dependent socket I/O around it.
    std::uint64_t Start = telemetry::nowNanos();
    bool IsQuery =
        !Payload.empty() &&
        Payload[0] == static_cast<std::uint8_t>(protocol::Opcode::QueryBatch);
    std::vector<std::uint8_t> Reply = S->handle(Payload);
    std::uint64_t Elapsed = telemetry::nowNanos() - Start;
    T.FrameNs.observe(Elapsed);
    if (IsQuery)
      T.QueryFrameNs.observe(Elapsed);
    T.TxBytes.inc(4 + Reply.size());
    if (!writeFrame(OutFd, Reply, Cfg.MaxFrameBytes))
      return;
    if (S->shutdownRequested()) {
      stop();
      return;
    }
  }
}

bool LivenessServer::handleResume(int OutFd,
                                  const std::vector<std::uint8_t> &Payload,
                                  std::unique_ptr<Session> &S) {
  const WireTelemetry &T = WireTelemetry::get();
  auto Send = [&](const std::vector<std::uint8_t> &Reply) {
    T.TxBytes.inc(4 + Reply.size());
    return writeFrame(OutFd, Reply, Cfg.MaxFrameBytes);
  };
  WireReader R(Payload.data(), Payload.size());
  (void)R.u8(); // Opcode byte, already matched by the caller.
  std::uint64_t Sid = R.u64();
  std::uint64_t Hwm = R.u64();
  if (!R.ok() || !R.atEnd())
    return Send(detail::countedErrorReply(ErrorCode::BadResume,
                                          "malformed Resume body"));
  if (Sid == 0) {
    // The open-handshake form: start journaling under a fresh id.
    if (Hwm != 0)
      return Send(detail::countedErrorReply(
          ErrorCode::BadResume, "high-water mark without a session id"));
    S = Manager.createResumableSession();
    if (!S)
      return Send(shedSessionReply());
    return Send(encodeResumed(S->sessionId(), 0, 0));
  }
  SessionManager::ResumeResult RR = Manager.resumeSession(Sid, Hwm);
  if (!Send(RR.Reply))
    return false;
  for (const std::vector<std::uint8_t> &P : RR.PendingReplies)
    if (!Send(P))
      return false;
  // Null when the resume was refused; the connection stays open and the
  // client may retry with another id or continue as a plain session.
  S = std::move(RR.S);
  return true;
}

bool LivenessServer::listenUnix(const std::string &Path, std::string &Err) {
  sockaddr_un Addr;
  std::memset(&Addr, 0, sizeof(Addr));
  Addr.sun_family = AF_UNIX;
  if (Path.size() >= sizeof(Addr.sun_path)) {
    Err = "socket path too long: " + Path;
    return false;
  }
  std::memcpy(Addr.sun_path, Path.c_str(), Path.size() + 1);

  // Refuse to orphan a live server: if something still accepts at Path,
  // binding over it would steal the name while the old process serves
  // its remaining clients into the void. Only a dead server's stale file
  // (probe connect refused) is cleaned up.
  int Probe = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (Probe >= 0) {
    bool Live =
        ::connect(Probe, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr)) ==
        0;
    ::close(Probe);
    if (Live) {
      Err = "refusing to bind " + Path +
            ": a live server is already listening there";
      return false;
    }
  }
  ::unlink(Path.c_str()); // A stale file from a dead server would EADDRINUSE.

  int Fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (Fd < 0) {
    Err = std::string("socket(): ") + std::strerror(errno);
    return false;
  }
  if (::bind(Fd, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr)) != 0) {
    Err = std::string("bind(") + Path + "): " + std::strerror(errno);
    ::close(Fd);
    return false;
  }
  if (::listen(Fd, 64) != 0) {
    Err = std::string("listen(): ") + std::strerror(errno);
    ::close(Fd);
    ::unlink(Path.c_str());
    return false;
  }
  ListenFd = Fd;
  SocketPath = Path;
  return true;
}

bool LivenessServer::listenTcp(const std::string &Host, std::uint16_t Port,
                               std::string &Err) {
  sockaddr_in Addr;
  std::memset(&Addr, 0, sizeof(Addr));
  Addr.sin_family = AF_INET;
  Addr.sin_port = htons(Port);
  const char *HostC = Host.empty() ? "127.0.0.1" : Host.c_str();
  if (::inet_pton(AF_INET, HostC, &Addr.sin_addr) != 1) {
    Err = std::string("bad IPv4 address: ") + HostC;
    return false;
  }
  int Fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (Fd < 0) {
    Err = std::string("socket(): ") + std::strerror(errno);
    return false;
  }
  int One = 1;
  ::setsockopt(Fd, SOL_SOCKET, SO_REUSEADDR, &One, sizeof(One));
  if (::bind(Fd, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr)) != 0) {
    Err = std::string("bind(") + HostC + ":" + std::to_string(Port) +
          "): " + std::strerror(errno);
    ::close(Fd);
    return false;
  }
  if (::listen(Fd, 64) != 0) {
    Err = std::string("listen(): ") + std::strerror(errno);
    ::close(Fd);
    return false;
  }
  if (Port == 0) {
    sockaddr_in Bound;
    socklen_t BoundLen = sizeof(Bound);
    if (::getsockname(Fd, reinterpret_cast<sockaddr *>(&Bound), &BoundLen) !=
        0) {
      Err = std::string("getsockname(): ") + std::strerror(errno);
      ::close(Fd);
      return false;
    }
    BoundTcpPort = ntohs(Bound.sin_port);
  } else {
    BoundTcpPort = Port;
  }
  TcpListenFd = Fd;
  return true;
}

void LivenessServer::start() {
  Acceptor = std::thread([this] { acceptLoop(); });
}

void LivenessServer::acceptLoop() {
  // Poll with a timeout instead of blocking in accept(): stop() only has
  // to raise the flag — no fd games, no race with a handler closing it.
  // Finished handlers are reaped every iteration (idle ticks included),
  // so disconnected clients never leave unjoined threads lingering.
  while (!stopRequested()) {
    reapFinishedHandlers();
    pollfd Ps[2];
    nfds_t N = 0;
    int TcpIdx = -1;
    if (ListenFd >= 0)
      Ps[N++] = {ListenFd, POLLIN, 0};
    if (TcpListenFd >= 0) {
      TcpIdx = static_cast<int>(N);
      Ps[N++] = {TcpListenFd, POLLIN, 0};
    }
    int R = ::poll(Ps, N, /*timeout ms=*/100);
    if (R < 0) {
      if (errno == EINTR)
        continue;
      return;
    }
    if (R == 0)
      continue;
    for (nfds_t I = 0; I != N; ++I)
      if (Ps[I].revents & POLLIN)
        acceptOn(Ps[I].fd, static_cast<int>(I) == TcpIdx);
  }
  // A connection accepted in the same instant stop() scanned the handler
  // list would miss its shutdown(); re-issue now that this thread — the
  // only spawner — is done, so no idle client can outlive stop().
  std::lock_guard<std::mutex> Lock(HandlersMutex);
  for (auto &H : Handlers)
    if (!H->Done.load(std::memory_order_acquire) && H->Fd >= 0)
      ::shutdown(H->Fd, SHUT_RDWR);
}

void LivenessServer::acceptOn(int Fd, bool IsTcp) {
  int Client = ::accept(Fd, nullptr, nullptr);
  if (Client < 0)
    return;
  if (IsTcp) {
    // writeFrame emits header+payload in one writev, so with Nagle off
    // every reply leaves in a single segment immediately.
    int One = 1;
    ::setsockopt(Client, IPPROTO_TCP, TCP_NODELAY, &One, sizeof(One));
  }
  if (Cfg.MaxConnections != 0) {
    // Count only live handlers: finished ones may still sit in the list
    // (the reaper runs once per accept-loop iteration), and counting them
    // would shed churning clients below the configured cap.
    std::size_t Active = 0;
    {
      std::lock_guard<std::mutex> Lock(HandlersMutex);
      for (const auto &H : Handlers)
        if (!H->Done.load(std::memory_order_acquire))
          ++Active;
    }
    if (Active >= Cfg.MaxConnections) {
      shedConnection(Client);
      return;
    }
  }
  auto H = std::make_unique<Handler>();
  Handler *Raw = H.get();
  Raw->Fd = Client;
  {
    std::lock_guard<std::mutex> Lock(HandlersMutex);
    Handlers.push_back(std::move(H));
  }
  // The fd is closed by the reaper after the join, never here: stop()'s
  // shutdown() must not race a close that lets the kernel recycle the
  // number under it.
  Raw->Thread = std::thread([this, Client, Raw] {
    serveStream(Client, Client);
    Raw->Done.store(true, std::memory_order_release);
  });
}

void LivenessServer::shedConnection(int Fd) {
  const WireTelemetry &T = WireTelemetry::get();
  T.ShedConnections.inc();
  std::vector<std::uint8_t> Reply = detail::countedErrorReply(
      ErrorCode::Overloaded, "connection cap reached; retry later");
  T.TxBytes.inc(4 + Reply.size());
  (void)writeFrame(Fd, Reply, Cfg.MaxFrameBytes);
  ::close(Fd);
}

void LivenessServer::reapFinishedHandlers() {
  std::vector<std::unique_ptr<Handler>> Finished;
  {
    std::lock_guard<std::mutex> Lock(HandlersMutex);
    for (auto It = Handlers.begin(); It != Handlers.end();) {
      if ((*It)->Done.load(std::memory_order_acquire)) {
        Finished.push_back(std::move(*It));
        It = Handlers.erase(It);
      } else {
        ++It;
      }
    }
  }
  for (auto &H : Finished) {
    H->Thread.join(); // Done was set last; the join is near-instant.
    if (H->Fd >= 0)
      ::close(H->Fd);
  }
}

void LivenessServer::wait() {
  if (Acceptor.joinable())
    Acceptor.join();
  joinHandlers();
}

void LivenessServer::stop() {
  StopFlag.store(true, std::memory_order_release);
  // Raising the flag is not enough: a handler blocked in readFrame on an
  // idle-but-connected client never observes it, and wait() would hang
  // until that client deigns to disconnect. Shutting the socket down
  // forces the blocked read to return EOF now. The fds are safe to touch:
  // they are closed only after the handler thread is joined.
  std::lock_guard<std::mutex> Lock(HandlersMutex);
  for (auto &H : Handlers)
    if (!H->Done.load(std::memory_order_acquire) && H->Fd >= 0)
      ::shutdown(H->Fd, SHUT_RDWR);
}

void LivenessServer::joinHandlers() {
  // Handlers may still be spawning while we drain (the acceptor appends
  // under the same mutex), so swap the vector out repeatedly until it
  // stays empty.
  for (;;) {
    std::vector<std::unique_ptr<Handler>> Local;
    {
      std::lock_guard<std::mutex> Lock(HandlersMutex);
      Local.swap(Handlers);
    }
    if (Local.empty())
      return;
    for (auto &H : Local) {
      H->Thread.join();
      if (H->Fd >= 0)
        ::close(H->Fd);
    }
  }
}
