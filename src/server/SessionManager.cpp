//===- server/SessionManager.cpp - Per-client liveness sessions -----------===//
//
// Part of the ssalive project, released under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "server/SessionManager.h"

#include "ir/Function.h"
#include "ir/IRParser.h"
#include "ir/Verifier.h"
#include "support/Telemetry.h"
#include "workload/CFGMutator.h"

#include <sstream>

using namespace ssalive;
using namespace ssalive::server;
using namespace ssalive::protocol;

namespace {

/// Process-wide server telemetry: per-opcode request counters, the error
/// taxonomy, per-session lifecycle, and the query/edit totals the soak
/// suite reconciles against its request ledger. These aggregate across
/// every session; the per-session StatsWire tally is separate and stays
/// byte-stable per connection.
struct ServerTelemetry {
  telemetry::Counter ReqLoadModule{"ssalive_server_requests_load_module_total"};
  telemetry::Counter ReqQueryBatch{"ssalive_server_requests_query_batch_total"};
  telemetry::Counter ReqEditCFG{"ssalive_server_requests_edit_cfg_total"};
  telemetry::Counter ReqStats{"ssalive_server_requests_stats_total"};
  telemetry::Counter ReqMetrics{"ssalive_server_requests_metrics_total"};
  telemetry::Counter ReqShutdown{"ssalive_server_requests_shutdown_total"};
  telemetry::Counter ReqUnknown{"ssalive_server_requests_unknown_total"};
  telemetry::Counter Queries{"ssalive_server_queries_total"};
  telemetry::Counter Positives{"ssalive_server_answers_positive_total"};
  telemetry::Counter EditsApplied{"ssalive_server_edits_applied_total"};
  telemetry::Counter EditsRejected{"ssalive_server_edits_rejected_total"};
  telemetry::Counter ReqResume{"ssalive_server_requests_resume_total"};
  telemetry::Counter SessionsOpened{"ssalive_server_sessions_opened_total"};
  telemetry::Counter SessionsClosed{"ssalive_server_sessions_closed_total"};
  telemetry::Gauge SessionsActive{"ssalive_server_sessions_active"};

  /// The resume plane: handshake outcomes, replay volume, and the parked
  /// journal footprint the eviction policy manages.
  telemetry::Counter ResumeOpened{
      "ssalive_server_resume_sessions_opened_total"};
  telemetry::Counter ResumeAttempts{"ssalive_server_resume_attempts_total"};
  telemetry::Counter ResumeOk{"ssalive_server_resume_ok_total"};
  telemetry::Counter ResumeUnknown{"ssalive_server_resume_unknown_total"};
  telemetry::Counter ResumeReplayed{
      "ssalive_server_resume_replayed_requests_total"};
  telemetry::Counter ResumeEvictions{
      "ssalive_server_resume_evictions_total"};
  telemetry::Counter ResumeOverflows{
      "ssalive_server_resume_journal_overflow_total"};
  telemetry::Gauge ResumeParked{"ssalive_server_resume_parked_sessions"};
  telemetry::Gauge ResumeParkedBytes{
      "ssalive_server_resume_parked_journal_bytes"};

  static const ServerTelemetry &get() {
    static ServerTelemetry T;
    return T;
  }
};

/// True while the current thread is replaying a journal (Session::replay
/// is synchronous). Registry counters — the error taxonomy below and the
/// request/query/edit totals in Session's handlers — must not re-count
/// work that was already counted on first dispatch: a resume would
/// permanently skew every reconcile read off the process-wide series.
/// The per-session Tally is exempt: it must replay to the byte-identical
/// StatsReply.
thread_local bool ReplayingOnThisThread = false;

/// encodeError plus the error-taxonomy counter for \p Code — every error
/// reply the dispatcher produces routes through here.
std::vector<std::uint8_t> countedError(ErrorCode Code,
                                       const std::string &Msg) {
  static telemetry::Counter ByCode[] = {
      telemetry::Counter("ssalive_server_errors_unknown_total"),
      telemetry::Counter("ssalive_server_errors_malformed_frame_total"),
      telemetry::Counter("ssalive_server_errors_unknown_opcode_total"),
      telemetry::Counter("ssalive_server_errors_no_module_total"),
      telemetry::Counter("ssalive_server_errors_bad_module_total"),
      telemetry::Counter("ssalive_server_errors_bad_backend_total"),
      telemetry::Counter("ssalive_server_errors_bad_plane_total"),
      telemetry::Counter("ssalive_server_errors_bad_query_total"),
      telemetry::Counter("ssalive_server_errors_bad_edit_total"),
      telemetry::Counter("ssalive_server_errors_frame_too_large_total"),
      telemetry::Counter("ssalive_server_errors_unknown_session_total"),
      telemetry::Counter("ssalive_server_errors_overloaded_total"),
      telemetry::Counter("ssalive_server_errors_bad_resume_total")};
  if (!ReplayingOnThisThread) {
    std::size_t I = static_cast<std::size_t>(Code);
    ByCode[I < 13 ? I : 0].inc();
  }
  return encodeError(Code, Msg);
}

} // namespace

/// Shared with LivenessServer.cpp, which answers oversized frames at the
/// transport layer (the frame never reaches a session) but must still land
/// in the same error taxonomy.
namespace ssalive::server::detail {
std::vector<std::uint8_t> countedErrorReply(protocol::ErrorCode Code,
                                            const std::string &Msg) {
  return countedError(Code, Msg);
}
} // namespace ssalive::server::detail

Session::Session(SessionManager &Owner) : Owner(Owner) {
  ServerTelemetry::get().SessionsOpened.inc();
  ServerTelemetry::get().SessionsActive.add(1);
}

Session::~Session() {
  ServerTelemetry::get().SessionsClosed.inc();
  ServerTelemetry::get().SessionsActive.add(-1);
  Owner.ActiveSessions.fetch_sub(1, std::memory_order_relaxed);
}

std::vector<std::uint8_t> Session::handle(const std::uint8_t *Data,
                                          std::size_t Len) {
  // Journal every dispatched payload of a resumable session, in order,
  // BEFORE dispatch — replies (including error replies) are pure functions
  // of the sequence, so replaying it rebuilds the session bit for bit.
  // Resume frames are transport-level and never journaled. Outgrowing the
  // bound latches the session unresumable instead of evicting a prefix:
  // a truncated journal could not replay to the same state.
  if (Resumable && !Replaying && !JournalOverflowed &&
      !(Len != 0 &&
        Data[0] == static_cast<std::uint8_t>(protocol::Opcode::Resume))) {
    if (JournalBytes + Len > Owner.config().MaxJournalBytes) {
      Journal.clear();
      Journal.shrink_to_fit();
      JournalBytes = 0;
      JournalOverflowed = true;
      ServerTelemetry::get().ResumeOverflows.inc();
    } else {
      Journal.emplace_back(Data, Data + Len);
      JournalBytes += Len;
    }
  }

  WireReader R(Data, Len);
  std::uint8_t Op = R.u8();
  if (!R.ok())
    return countedError(ErrorCode::MalformedFrame, "empty payload");
  // Replayed frames were counted on first dispatch; a resume must leave
  // the process-wide request totals exactly where they were.
  const ServerTelemetry &T = ServerTelemetry::get();
  const bool Count = !Replaying;
  switch (static_cast<protocol::Opcode>(Op)) {
  case protocol::Opcode::LoadModule:
    if (Count)
      T.ReqLoadModule.inc();
    return handleLoadModule(R);
  case protocol::Opcode::QueryBatch:
    if (Count)
      T.ReqQueryBatch.inc();
    return handleQueryBatch(R);
  case protocol::Opcode::EditCFG:
    if (Count)
      T.ReqEditCFG.inc();
    return handleEditCFG(R);
  case protocol::Opcode::Stats:
    if (Count)
      T.ReqStats.inc();
    if (!R.atEnd())
      return countedError(ErrorCode::MalformedFrame,
                          "stats request carries a body");
    return handleStats();
  case protocol::Opcode::Metrics:
    if (Count)
      T.ReqMetrics.inc();
    if (!R.atEnd())
      return countedError(ErrorCode::MalformedFrame,
                          "metrics request carries a body");
    return handleMetrics();
  case protocol::Opcode::Shutdown:
    if (Count)
      T.ReqShutdown.inc();
    if (!R.atEnd())
      return countedError(ErrorCode::MalformedFrame,
                          "shutdown request carries a body");
    ShutdownSeen = true;
    return encodeOk();
  case protocol::Opcode::Resume:
    // The transport layer handles Resume as the first frame of a
    // connection; one that reaches a live session arrived mid-stream.
    if (Count)
      T.ReqResume.inc();
    return countedError(ErrorCode::BadResume,
                        "resume must be the first frame of a connection");
  default:
    if (Count)
      T.ReqUnknown.inc();
    break;
  }
  std::ostringstream OS;
  OS << "unknown opcode 0x" << std::hex << static_cast<unsigned>(Op);
  return countedError(ErrorCode::UnknownOpcode, OS.str());
}

std::vector<std::uint8_t> Session::handleLoadModule(WireReader &R) {
  SSALIVE_SPAN("load-module");
  std::uint8_t Backend = R.u8();
  std::uint8_t Plane = R.u8();
  if (!R.ok())
    return countedError(ErrorCode::MalformedFrame, "load-module too short");
  // Wire ids are the enumerator values; retired ids are rejected rather
  // than silently mapped onto another engine.
  if (!isValidBatchBackendId(Backend))
    return countedError(ErrorCode::BadBackend, "unknown backend id");
  if (!isValidQueryPlaneId(Plane))
    return countedError(ErrorCode::BadPlane, "unknown query plane id");

  std::string Text = R.rest();
  ModuleParseResult P = parseModule(Text);
  if (!P.Error.empty())
    return countedError(ErrorCode::BadModule, P.Error);
  if (P.Funcs.empty())
    return countedError(ErrorCode::BadModule, "module has no functions");
  // The engines require strict SSA; unlike the batch CLI (which skips bad
  // functions with a warning), a server rejects the whole load — silently
  // renumbering the surviving functions would corrupt every FuncIndex the
  // client sends afterwards.
  for (const auto &F : P.Funcs) {
    VerifyResult V = verifySSA(*F);
    if (!V.ok())
      return countedError(ErrorCode::BadModule,
                         "function @" + F->name() + ": " + V.message());
  }

  // Replace any previously loaded module wholesale (drop the old driver
  // first: it holds pointers into the old functions).
  Driver.reset();
  Module = std::move(P.Funcs);
  FuncPtrs.clear();
  std::uint64_t TotalBlocks = 0, TotalValues = 0;
  for (const auto &F : Module) {
    FuncPtrs.push_back(F.get());
    TotalBlocks += F->numBlocks();
    TotalValues += F->numValues();
  }
  BatchOptions DOpts;
  DOpts.Backend = static_cast<BatchBackend>(Backend);
  DOpts.Plane = static_cast<QueryPlane>(Plane);
  Driver = std::make_unique<BatchLivenessDriver>(FuncPtrs, DOpts,
                                                 Owner.pool());
  return encodeModuleLoaded(static_cast<std::uint32_t>(Module.size()),
                            TotalBlocks, TotalValues);
}

std::vector<std::uint8_t> Session::handleQueryBatch(WireReader &R) {
  if (!Driver)
    return countedError(ErrorCode::NoModule, "no module loaded");
  std::uint32_t Count = R.u32();
  if (!R.ok())
    return countedError(ErrorCode::MalformedFrame, "query batch too short");
  constexpr std::size_t ItemBytes = 3 * 4 + 1;
  if (R.remaining() != static_cast<std::size_t>(Count) * ItemBytes)
    return countedError(ErrorCode::MalformedFrame,
                       "query batch body does not match its count");

  // Decode into the session-owned buffer: capacity persists across frames,
  // so a steady stream stops paying an allocation per QueryBatch.
  std::vector<BatchQuery> &Workload = WorkloadBuf;
  Workload.clear();
  Workload.reserve(Count);
  for (std::uint32_t I = 0; I != Count; ++I) {
    BatchQuery Q;
    Q.FuncIndex = R.u32();
    Q.ValueId = R.u32();
    Q.BlockId = R.u32();
    Q.IsLiveOut = (R.u8() & 1) != 0;
    if (Q.FuncIndex >= Module.size()) {
      std::ostringstream OS;
      OS << "query " << I << ": function index " << Q.FuncIndex
         << " out of range";
      return countedError(ErrorCode::BadQuery, OS.str());
    }
    const Function &F = *Module[Q.FuncIndex];
    if (Q.ValueId >= F.numValues() || Q.BlockId >= F.numBlocks()) {
      std::ostringstream OS;
      OS << "query " << I << ": value/block id out of range";
      return countedError(ErrorCode::BadQuery, OS.str());
    }
    Workload.push_back(Q);
  }

  BatchResult Result = Driver->run(Workload);
  Tally.Queries += Result.Answers.size();
  std::uint64_t Positives = 0;
  for (const BatchThreadStats &S : Result.PerThread)
    Positives += S.PositiveAnswers;
  Tally.Positives += Positives;
  if (!Replaying) {
    ServerTelemetry::get().Queries.inc(Result.Answers.size());
    ServerTelemetry::get().Positives.inc(Positives);
  }
  return encodeAnswers(Result.Answers);
}

std::vector<std::uint8_t> Session::handleEditCFG(WireReader &R) {
  if (!Driver)
    return countedError(ErrorCode::NoModule, "no module loaded");
  std::uint32_t Count = R.u32();
  if (!R.ok())
    return countedError(ErrorCode::MalformedFrame, "edit batch too short");
  constexpr std::size_t ItemBytes = 1 + 4 * 4;
  if (R.remaining() != static_cast<std::size_t>(Count) * ItemBytes)
    return countedError(ErrorCode::MalformedFrame,
                       "edit batch body does not match its count");

  // Session-owned decode staging, same reuse story as handleQueryBatch.
  std::vector<EditItem> &Edits = EditsBuf;
  Edits.clear();
  Edits.reserve(Count);
  for (std::uint32_t I = 0; I != Count; ++I) {
    EditItem E;
    E.Kind = R.u8();
    E.FuncIndex = R.u32();
    E.From = R.u32();
    E.To = R.u32();
    E.To2 = R.u32();
    if (E.Kind > static_cast<std::uint8_t>(MutationKind::SplitBlock)) {
      std::ostringstream OS;
      OS << "edit " << I << ": unknown edit kind "
         << static_cast<unsigned>(E.Kind);
      return countedError(ErrorCode::BadEdit, OS.str());
    }
    if (E.FuncIndex >= Module.size()) {
      std::ostringstream OS;
      OS << "edit " << I << ": function index " << E.FuncIndex
         << " out of range";
      return countedError(ErrorCode::BadEdit, OS.str());
    }
    Edits.push_back(E);
  }

  // Apply in order, then repair once: every applied edit is journaled by
  // the IR mutators, and after the whole frame is in, one
  // AnalysisManager::refresh per *touched function* consumes that
  // function's accumulated delta journal — the coalesced form of the PR-3
  // incremental repair plane (one DFS/DomTree/LiveCheck repair pass
  // amortized over the frame instead of one per edit; the repaired result
  // is bit-identical either way, which the fuzz suites assert). The reply
  // still carries per-edit (applied, epoch) pairs captured at apply time,
  // so clients mirroring the sequence predict every byte regardless of
  // how the server schedules its repairs. Rejected edits (inapplicable to
  // the current graph) leave the function untouched and are reported per
  // item rather than failing the batch: the client's mirror makes the
  // same accept/reject decision.
  std::vector<std::pair<std::uint8_t, std::uint64_t>> &Results =
      EditResultsBuf;
  Results.clear();
  Results.reserve(Edits.size());
  std::vector<std::uint8_t> &Touched = TouchedBuf;
  Touched.assign(Module.size(), 0);
  bool AnyApplied = false;
  for (const EditItem &E : Edits) {
    Function &F = *Module[E.FuncIndex];
    Mutation M;
    M.Kind = static_cast<MutationKind>(E.Kind);
    M.From = E.From;
    M.To = E.To;
    M.To2 = E.To2;
    bool Applied = applyFunctionMutation(F, M);
    if (Applied) {
      AnyApplied = true;
      Touched[E.FuncIndex] = 1;
      ++Tally.EditsApplied;
      if (!Replaying)
        ServerTelemetry::get().EditsApplied.inc();
    } else {
      ++Tally.EditsRejected;
      if (!Replaying)
        ServerTelemetry::get().EditsRejected.inc();
    }
    Results.emplace_back(Applied ? 1 : 0, F.cfgVersion());
  }
  if (AnyApplied) {
    // Baseline sessions (dataflow/path-exploration) never read the
    // manager's analyses — their engines are simply rebuilt — so the
    // in-place repair is LiveCheck-only work. The session's prepared
    // caches ride the same epoch contract: stale per-value entries are
    // dropped and rebuilt lazily against the repaired analyses.
    if (batchBackendUsesLiveCheck(Driver->backend()))
      for (std::size_t I = 0; I != Module.size(); ++I)
        if (Touched[I])
          Driver->analysisManager().refresh(*Module[I]);
    Driver->notifyCFGEdited();
  }
  return encodeEditApplied(Results);
}

std::vector<std::uint8_t> Session::handleStats() {
  StatsWire S = Tally;
  S.NumFuncs = static_cast<std::uint32_t>(Module.size());
  S.Threads = Owner.pool().numThreads();
  if (Driver) {
    AnalysisManager::CacheCounters C = Driver->analysisManager().counters();
    S.CacheHits = C.Hits;
    S.CacheMisses = C.Misses;
    S.Invalidations = C.Invalidations;
    S.Refreshes = C.Refreshes;
  }
  return encodeStatsReply(S);
}

std::vector<std::uint8_t>
Session::replay(const std::vector<std::uint8_t> &Request) {
  // The member flag gates the handlers' own registry increments; the
  // thread-local one reaches countedError(), which has no session context
  // (replay is synchronous on this thread, so the pairing is exact).
  Replaying = true;
  ReplayingOnThisThread = true;
  std::vector<std::uint8_t> Reply = handle(Request);
  ReplayingOnThisThread = false;
  Replaying = false;
  return Reply;
}

std::vector<std::uint8_t> Session::handleMetrics() {
  // The registry is process-wide: counters from every session, every
  // layer, aggregated across thread shards at this instant. Flush the
  // session's prepared caches first so their delta-published counters are
  // current as of this reply.
  if (Driver)
    Driver->publishPreparedTelemetry();
  return encodeMetricsReply(telemetry::Registry::global().snapshot());
}

//===----------------------------------------------------------------------===//
// SessionManager: admission and the resume plane.
//===----------------------------------------------------------------------===//

std::unique_ptr<Session> SessionManager::openSession(bool Capped) {
  // Check and reserve in one step: a separate read-then-increment would
  // let K simultaneous first frames all pass a cap of 1.
  const std::int64_t Max =
      Capped ? static_cast<std::int64_t>(Cfg.MaxSessions) : 0;
  std::int64_t Live = ActiveSessions.load(std::memory_order_relaxed);
  do {
    if (Max != 0 && Live >= Max)
      return nullptr;
  } while (!ActiveSessions.compare_exchange_weak(Live, Live + 1,
                                                 std::memory_order_relaxed));
  return std::unique_ptr<Session>(new Session(*this));
}

std::unique_ptr<Session> SessionManager::createSession() {
  return openSession(/*Capped=*/true);
}

std::unique_ptr<Session> SessionManager::createResumableSession() {
  std::unique_ptr<Session> S = createSession();
  if (!S)
    return S;
  S->markResumable(NextSessionId.fetch_add(1, std::memory_order_relaxed));
  ServerTelemetry::get().ResumeOpened.inc();
  return S;
}

void SessionManager::parkSession(std::unique_ptr<Session> S) {
  if (!S || !S->resumable() || S->shutdownRequested())
    return;
  ParkedJournal P;
  P.Journal = std::move(S->Journal);
  P.Bytes = S->JournalBytes;
  std::uint64_t Id = S->sessionId();
  S.reset(); // The live session closes; only the replayable bytes persist.
  const ServerTelemetry &T = ServerTelemetry::get();
  std::lock_guard<std::mutex> Lock(ParkedMutex);
  ParkedBytes += P.Bytes;
  ParkedById[Id] = std::move(P); // Ids are unique; no clobber possible.
  evictLockedPastCaps();
  T.ResumeParked.set(static_cast<std::int64_t>(ParkedById.size()));
  T.ResumeParkedBytes.set(static_cast<std::int64_t>(ParkedBytes));
}

void SessionManager::evictLockedPastCaps() {
  const ServerTelemetry &T = ServerTelemetry::get();
  while (!ParkedById.empty() &&
         ((Cfg.MaxParkedSessions != 0 &&
           ParkedById.size() > Cfg.MaxParkedSessions) ||
          (Cfg.MaxParkedJournalBytes != 0 &&
           ParkedBytes > Cfg.MaxParkedJournalBytes))) {
    auto Oldest = ParkedById.begin(); // Monotone ids: begin() = oldest.
    ParkedBytes -= Oldest->second.Bytes;
    ParkedById.erase(Oldest);
    T.ResumeEvictions.inc();
  }
}

SessionManager::ResumeResult
SessionManager::resumeSession(std::uint64_t SessionId,
                              std::uint64_t HighWaterMark) {
  const ServerTelemetry &T = ServerTelemetry::get();
  T.ResumeAttempts.inc();
  ResumeResult R;
  ParkedJournal P;
  {
    std::lock_guard<std::mutex> Lock(ParkedMutex);
    auto It = ParkedById.find(SessionId);
    if (It == ParkedById.end()) {
      T.ResumeUnknown.inc();
      R.Reply = countedError(ErrorCode::UnknownSession,
                             "session id was never issued, was evicted, or "
                             "outgrew its journal");
      return R;
    }
    if (HighWaterMark > It->second.Journal.size()) {
      // The journal stays parked: a confused client must not destroy a
      // resumable session.
      R.Reply = countedError(ErrorCode::BadResume,
                             "high-water mark beyond the journal");
      return R;
    }
    P = std::move(It->second);
    ParkedById.erase(It);
    ParkedBytes -= P.Bytes;
    T.ResumeParked.set(static_cast<std::int64_t>(ParkedById.size()));
    T.ResumeParkedBytes.set(static_cast<std::int64_t>(ParkedBytes));
  }

  // Replay outside the lock: rebuilding a long session is real work and
  // must not serialize unrelated park/resume traffic. Every reply is a
  // pure function of the request prefix, so the rebuilt session — module,
  // driver caches, tally — is byte-identical to the uninterrupted one, and
  // the replies past the client's high-water mark are exactly the bytes
  // it never received.
  std::unique_ptr<Session> S = openSession(/*Capped=*/false);
  S->markResumable(SessionId);
  for (std::size_t I = 0; I != P.Journal.size(); ++I) {
    std::vector<std::uint8_t> Reply = S->replay(P.Journal[I]);
    if (I >= HighWaterMark)
      R.PendingReplies.push_back(std::move(Reply));
  }
  T.ResumeReplayed.inc(P.Journal.size());
  S->Journal = std::move(P.Journal);
  S->JournalBytes = P.Bytes;
  R.Reply = encodeResumed(SessionId, S->Journal.size(),
                          R.PendingReplies.size());
  T.ResumeOk.inc();
  R.S = std::move(S);
  return R;
}

std::size_t SessionManager::parkedSessions() const {
  std::lock_guard<std::mutex> Lock(ParkedMutex);
  return ParkedById.size();
}
