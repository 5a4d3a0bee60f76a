//===- server/SessionManager.h - Per-client liveness sessions ---*- C++ -*-===//
//
// Part of the ssalive project, released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Session state of the liveness query server: each connected client owns a
/// Session — its loaded module, a BatchLivenessDriver over the process-wide
/// ThreadPool, and request counters. Session::handle is the whole command
/// interpreter: one decoded request payload in, the exact reply payload
/// out, so socket handlers, in-process tests, and the protocol fuzzer all
/// drive the identical dispatch path.
///
/// Query batches fan out across the shared pool exactly like the batch
/// driver's workloads: the reply's answer bytes are the driver's per-worker
/// answer spans (each worker writes only its contiguous slice — no
/// cross-worker locks on the hot path), so replies are byte-identical for
/// any thread count and any interleaving of other sessions on the pool.
///
/// CFG-edit commands replay deterministic mutations against the session's
/// module (workload::applyFunctionMutation), coalesced per frame: all
/// mutations apply first, then one AnalysisManager::refresh per touched
/// function consumes that function's whole delta journal — the incremental
/// repair plane — instead of dropping the cached analyses or repairing
/// once per edit. A client that applies the same mutation sequence to its
/// own copy of the module can therefore predict every reply bit, which is
/// the contract the differential soak suite enforces.
///
/// Sessions default to the driver's cached prepared plane: each value's
/// use blocks are collected and renumbered once (core/PreparedCache) and
/// reused across every later query batch of the connection; CFG edits
/// invalidate the affected entries through the cache's epoch contract, so
/// a long-lived session pays the chain walk once per value per edit, not
/// once per query.
///
/// The resume plane rides the same purity: a resumable session journals
/// every dispatched request payload (bounded), the manager parks the
/// journal when the connection drops, and a Resume handshake rebuilds the
/// session by replaying the sequence against a fresh Session — replies are
/// byte-identical to the uninterrupted session's, so the client is handed
/// exactly the replies it missed and the connection continues as if the
/// drop never happened. Parked journals are evicted oldest-first past the
/// configured caps; the `ssalive_server_resume_*` telemetry series report
/// attempts, replays, evictions, and the parked footprint.
///
/// A LivenessServer owns exactly one SessionManager, and the manager owns
/// the one query pool every session fans out on — that shared pool is what
/// the paper's amortization buys a multi-client server. The manager is
/// also the admission point: ServerConfig::MaxSessions is enforced in the
/// same atomic step that reserves a session slot.
///
//===----------------------------------------------------------------------===//

#ifndef SSALIVE_SERVER_SESSIONMANAGER_H
#define SSALIVE_SERVER_SESSIONMANAGER_H

#include "pipeline/BatchLivenessDriver.h"
#include "server/Protocol.h"
#include "support/ThreadPool.h"

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <vector>

namespace ssalive {

class Function;

namespace server {

/// Server-wide knobs: one SessionManager applies them to every session.
struct ServerConfig {
  /// Workers in the manager's one query pool; 0 = hardware concurrency.
  unsigned Threads = 1;
  /// Frame cap for both directions.
  std::size_t MaxFrameBytes = protocol::DefaultMaxFrameBytes;

  /// \name Overload shedding.
  /// @{
  /// Accepted connections beyond this cap get one well-formed
  /// Error(Overloaded) and an immediate close instead of a handler.
  /// 0 = unlimited.
  unsigned MaxConnections = 1024;
  /// Per-connection in-flight budget: when a just-read frame still has
  /// more than this many request bytes queued behind it (the client is
  /// flooding frames faster than it drains replies), the frame is answered
  /// Error(Overloaded) WITHOUT being dispatched — bounded shed work per
  /// frame, no allocation proportional to the flood. 0 = disabled.
  std::size_t InFlightBudgetBytes = 8u << 20;
  /// Session admission: once this many sessions are live, a frame that
  /// would open a NEW session (a connection's first plain frame or a
  /// Resume(0, 0) handshake) is answered Error(Overloaded) instead, while
  /// existing sessions — and Resume re-attaches to parked ones — keep
  /// being served. 0 = unlimited.
  std::size_t MaxSessions = 0;
  /// @}

  /// \name Session resume.
  /// @{
  /// Journal cap per resumable session; outgrowing it keeps the session
  /// serving but permanently drops resumability.
  std::size_t MaxJournalBytes = 64u << 20;
  /// Caps on *parked* (disconnected, resumable) sessions; past either,
  /// the oldest parked journal is evicted.
  std::size_t MaxParkedSessions = 64;
  std::size_t MaxParkedJournalBytes = 256u << 20;
  /// @}
};

class SessionManager;

/// One client's state. Not thread-safe by itself — exactly one connection
/// handler drives a session (the phase discipline of the pipeline layer);
/// concurrency comes from many sessions sharing the pool.
class Session {
public:
  ~Session();

  Session(const Session &) = delete;
  Session &operator=(const Session &) = delete;

  /// Interprets one request payload and returns the reply payload. Never
  /// throws and never crashes on malformed input: anything undecodable or
  /// out of range yields an Error reply.
  std::vector<std::uint8_t> handle(const std::uint8_t *Data,
                                   std::size_t Len);
  std::vector<std::uint8_t> handle(const std::vector<std::uint8_t> &Payload) {
    return handle(Payload.data(), Payload.size());
  }

  /// True once a Shutdown request was seen (the transport layer stops the
  /// server after sending the Ok reply).
  bool shutdownRequested() const { return ShutdownSeen; }

  /// \name Resume plane (driven by SessionManager and the transport).
  /// A resumable session journals every payload handle() dispatches, in
  /// order, so a reconnecting client can be re-served by replaying the
  /// sequence against a fresh Session — every reply is a pure function of
  /// it. The journal is bounded by ServerConfig::MaxJournalBytes;
  /// overflowing drops it and latches the session unresumable (it keeps
  /// serving, a later Resume gets Error(UnknownSession)).
  /// @{
  /// Nonzero once markResumable was called.
  std::uint64_t sessionId() const { return SessionId; }
  bool resumable() const { return Resumable && !JournalOverflowed; }
  void markResumable(std::uint64_t Id) {
    SessionId = Id;
    Resumable = true;
  }
  /// Requests dispatched (and journaled) so far; what Resumed reports as
  /// journalLen.
  std::uint64_t journalLength() const { return Journal.size(); }
  /// @}

  /// Replays \p Request without re-journaling it (resume rebuilds).
  std::vector<std::uint8_t> replay(const std::vector<std::uint8_t> &Request);

  /// \name Introspection for tests (the server-routed fuzz mode compares
  /// the session's repaired analyses bit for bit against fresh rebuilds).
  /// @{
  bool hasModule() const { return Driver != nullptr; }
  unsigned numFunctions() const {
    return static_cast<unsigned>(Module.size());
  }
  Function &function(unsigned I) { return *Module[I]; }
  BatchLivenessDriver &driver() { return *Driver; }
  /// @}

private:
  std::vector<std::uint8_t> handleLoadModule(protocol::WireReader &R);
  std::vector<std::uint8_t> handleQueryBatch(protocol::WireReader &R);
  std::vector<std::uint8_t> handleEditCFG(protocol::WireReader &R);
  std::vector<std::uint8_t> handleStats();
  std::vector<std::uint8_t> handleMetrics();

  /// Sessions are only made by SessionManager, which has already reserved
  /// this session's slot in its live-session count.
  explicit Session(SessionManager &Owner);
  friend class SessionManager;

  SessionManager &Owner;
  std::vector<std::unique_ptr<Function>> Module;
  std::vector<const Function *> FuncPtrs;
  std::unique_ptr<BatchLivenessDriver> Driver;
  /// Per-session tallies, kept in reply shape. StatsReply stays a pure
  /// function of this session's request sequence (the differential oracles
  /// byte-compare it); the process-wide registry — what the Metrics opcode
  /// reports — accumulates the same events across all sessions.
  protocol::StatsWire Tally;
  bool ShutdownSeen = false;

  /// Decode staging reused across frames: a session serving a steady query
  /// stream decodes thousands of frames, and a fresh std::vector per frame
  /// put an allocate/free pair on every one. clear() keeps capacity, so
  /// after the first frame of each size class the handlers allocate
  /// nothing. Replies are unaffected — reuse never reaches the wire.
  std::vector<BatchQuery> WorkloadBuf;
  std::vector<protocol::EditItem> EditsBuf;
  std::vector<std::pair<std::uint8_t, std::uint64_t>> EditResultsBuf;
  std::vector<std::uint8_t> TouchedBuf;

  /// Resume state (see the resume-plane accessors above).
  std::uint64_t SessionId = 0;
  bool Resumable = false;
  bool Replaying = false;
  bool JournalOverflowed = false;
  std::vector<std::vector<std::uint8_t>> Journal;
  std::size_t JournalBytes = 0;
};

/// Owns what every session shares: the config, the one query pool,
/// session admission, and the parked-journal store of the resume plane.
/// Thread-safe; sessions are created, parked, and resumed from concurrent
/// connection handlers.
class SessionManager {
public:
  explicit SessionManager(ServerConfig Cfg) : Cfg(Cfg), Pool(Cfg.Threads) {}

  const ServerConfig &config() const { return Cfg; }
  ThreadPool &pool() { return Pool; }

  /// Admits a new session, or returns null when ServerConfig::MaxSessions
  /// sessions are already live — the caller sheds the frame that asked.
  /// The cap check and the slot reservation are one compare-exchange, so
  /// concurrent callers can never overshoot the cap.
  std::unique_ptr<Session> createSession();

  /// createSession() for the Resume sessionId=0 handshake: the session
  /// journals its dispatched requests under a fresh id. Null when shed.
  std::unique_ptr<Session> createResumableSession();

  /// Outcome of a Resume(sessionId != 0) handshake.
  struct ResumeResult {
    /// The rebuilt session; null if the resume was refused (Reply is an
    /// Error frame then).
    std::unique_ptr<Session> S;
    /// The Resumed (or Error) frame to send first.
    std::vector<std::uint8_t> Reply;
    /// Replies to journaled requests past the client's high-water mark,
    /// re-sent right after \p Reply, in request order.
    std::vector<std::vector<std::uint8_t>> PendingReplies;
  };

  /// Re-attaches to a parked session: pops its journal, replays the whole
  /// request sequence against a fresh Session, and returns the replies the
  /// client acknowledged not having seen. Error(UnknownSession) if the id
  /// was never issued, was evicted, or overflowed its journal bound;
  /// Error(BadResume) if \p HighWaterMark exceeds the journal length (the
  /// journal stays parked in that case). Not subject to MaxSessions: a
  /// re-attach serves an existing session, it does not admit a new one.
  ResumeResult resumeSession(std::uint64_t SessionId,
                             std::uint64_t HighWaterMark);

  /// Parks a disconnected session's journal for a later resume. No-op
  /// unless the session is resumable and did not request shutdown. Evicts
  /// the oldest parked journals past the configured caps.
  void parkSession(std::unique_ptr<Session> S);

  /// Sessions currently alive (admitted, not yet destroyed) — the figure
  /// MaxSessions caps.
  std::int64_t activeSessions() const {
    return ActiveSessions.load(std::memory_order_relaxed);
  }

  /// Parked journals currently held (tests).
  std::size_t parkedSessions() const;

private:
  friend class Session;

  /// Reserves a live-session slot and builds the session on it; null past
  /// MaxSessions when \p Capped.
  std::unique_ptr<Session> openSession(bool Capped);
  void evictLockedPastCaps();

  /// One parked session's replayable state.
  struct ParkedJournal {
    std::vector<std::vector<std::uint8_t>> Journal;
    std::size_t Bytes = 0;
  };

  ServerConfig Cfg;
  ThreadPool Pool;
  std::atomic<std::int64_t> ActiveSessions{0};
  std::atomic<std::uint64_t> NextSessionId{1};

  mutable std::mutex ParkedMutex;
  /// Ordered by id, and ids are minted monotonically: begin() is the
  /// oldest session, the one the eviction policy drops first.
  std::map<std::uint64_t, ParkedJournal> ParkedById;
  std::size_t ParkedBytes = 0;
};

} // namespace server
} // namespace ssalive

#endif // SSALIVE_SERVER_SESSIONMANAGER_H
