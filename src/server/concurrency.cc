#include "server/concurrency.h"

#include <chrono>
#include <optional>
#include <unordered_set>
#include <utility>
#include <vector>

#include "eval/evaluator.h"
#include "obs/metrics.h"
#include "obs/status.h"
#include "parser/lexer.h"
#include "server/replication.h"
#include "store/method.h"

namespace xsql {
namespace server {

namespace {

/// Latch waits poll in short slices so a parked statement notices its
/// deadline and cancel token about as fast as a running one would.
constexpr std::chrono::milliseconds kWaitSlice(10);

using Clock = std::chrono::steady_clock;

Status CheckWaitGuards(const std::optional<Clock::time_point>& deadline,
                       const std::shared_ptr<CancelToken>& cancel) {
  if (cancel != nullptr && cancel->cancelled()) {
    return Status::Cancelled(
        "statement cancelled while waiting for the statement latch "
        "(guard: latch-wait)");
  }
  if (deadline.has_value() && Clock::now() >= *deadline) {
    return Status::ResourceExhausted(
        "deadline exceeded while waiting for the statement latch "
        "(guard: latch-wait)");
  }
  return Status::OK();
}

std::optional<Clock::time_point> DeadlineFrom(const ExecLimits& limits) {
  if (limits.deadline_ms == 0) return std::nullopt;
  return Clock::now() + std::chrono::milliseconds(limits.deadline_ms);
}

/// How long a statement sat parked before taking the latch — the
/// writer-writer contention signal to watch on a loaded server (reads
/// no longer take any latch).
void RecordLatchWait(Clock::time_point entered) {
  static obs::Histogram& wait_us =
      obs::MetricsRegistry::Global().GetHistogram(
          "xsql.server.latch_wait_us");
  wait_us.Observe(static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(Clock::now() -
                                                            entered)
          .count()));
}

/// Scoped census of statements currently holding a snapshot pin.
class PinnedSnapshotScope {
 public:
  PinnedSnapshotScope() { Gauge().Add(1); }
  ~PinnedSnapshotScope() { Gauge().Add(-1); }
  PinnedSnapshotScope(const PinnedSnapshotScope&) = delete;
  PinnedSnapshotScope& operator=(const PinnedSnapshotScope&) = delete;

 private:
  static obs::Gauge& Gauge() {
    static obs::Gauge& g = obs::MetricsRegistry::Global().GetGauge(
        "xsql.mvcc.pinned_snapshots");
    return g;
  }
};

}  // namespace

Status StatementLatch::AcquireExclusive(
    const ExecLimits& limits, const std::shared_ptr<CancelToken>& cancel) {
  const Clock::time_point entered = Clock::now();
  const std::optional<Clock::time_point> deadline = DeadlineFrom(limits);
  std::unique_lock<std::mutex> lock(mu_);
  while (writer_) {
    XSQL_RETURN_IF_ERROR(CheckWaitGuards(deadline, cancel));
    cv_.wait_for(lock, kWaitSlice);
  }
  writer_ = true;
  RecordLatchWait(entered);
  return Status::OK();
}

void StatementLatch::ReleaseExclusive() {
  std::lock_guard<std::mutex> lock(mu_);
  writer_ = false;
  cv_.notify_all();
}

StatementMode ClassifyMode(const std::string& text,
                           const storage::StatementClass& cls,
                           const Database& db, const ViewManager& views) {
  if (!cls.parse_ok) return StatementMode::kWrite;
  if (cls.is_mutation_kind || cls.creates_objects) {
    return StatementMode::kWrite;
  }
  if (cls.is_explain_analyze) {
    // Executes for real and rolls back — all scratch, no shared writes.
    return StatementMode::kPrivateRead;
  }
  // Mention check: lazy-mutation trapdoors. Applied to plain queries
  // AND to EXPLAIN (its range analysis walks the same catalogs).
  Result<std::vector<Token>> tokens = Lex(text);
  if (!tokens.ok()) {
    return StatementMode::kWrite;  // unlexable yet resolvable:
                                   // impossible, but stay conservative
  }
  std::unordered_set<std::string> idents;
  for (const Token& t : *tokens) {
    if (t.type == TokenType::kIdent) idents.insert(t.text);
  }
  for (const std::string& name : views.ViewNames()) {
    if (idents.count(name) == 0) continue;
    // A fresh materialization makes reading the view a pure read; a
    // stale or absent one means evaluation re-materializes — into the
    // reader's private fork, not the shared snapshot.
    if (!views.IsMaterializedFresh(name)) return StatementMode::kPrivateRead;
  }
  for (const std::string& ident : idents) {
    for (const MethodRegistry::Def& def :
         db.methods().DefinitionsOf(Oid::Atom(ident))) {
      if (def.body->kind() == "query") {
        // Invoking a query-defined method can evaluate an OID clause and
        // mint result objects — scratch state for a read.
        return StatementMode::kPrivateRead;
      }
    }
  }
  return StatementMode::kSharedRead;
}

ConcurrencyManager::ConcurrencyManager(storage::DurableDatabase* dd,
                                       Options options)
    : dd_(dd), options_(options), committer_(dd->wal()) {
  // Install the recovered state as version 1: readers have a snapshot
  // to pin before the first commit.
  chain_.Install(ForkVersionLocked());
  PublishStatus();
}

Result<uint64_t> ConcurrencyManager::CreateSession(SessionOptions options) {
  const ExecLimits limits = options.limits;
  const std::shared_ptr<CancelToken> cancel = options.cancel;
  // Exclusive: the Session constructor probes (and on the very first
  // session installs) the introspection methods in the master database,
  // and construction must not interleave with a mutation's fork point.
  XSQL_RETURN_IF_ERROR(latch_.AcquireExclusive(limits, cancel));
  // Connections share one view catalog AND one prepared-plan cache: a
  // statement prepared by any connection is a parse+typecheck saved on
  // every other. The cache takes its own mutex and checks
  // Database::version() at lookup, so snapshot readers at older
  // versions can never be served a newer preparation (nor vice versa).
  auto session = std::make_unique<Session>(&dd_->db(), std::move(options),
                                           &dd_->session().views(),
                                           &dd_->session().plan_cache());
  latch_.ReleaseExclusive();

  std::lock_guard<std::mutex> lock(sessions_mu_);
  const uint64_t id = ++next_session_id_;
  sessions_[id] = std::move(session);
  static obs::Gauge& gauge =
      obs::MetricsRegistry::Global().GetGauge("xsql.server.open_sessions");
  gauge.Set(static_cast<int64_t>(sessions_.size()));
  return id;
}

void ConcurrencyManager::CloseSession(uint64_t id) {
  std::lock_guard<std::mutex> lock(sessions_mu_);
  sessions_.erase(id);
  static obs::Gauge& gauge =
      obs::MetricsRegistry::Global().GetGauge("xsql.server.open_sessions");
  gauge.Set(static_cast<int64_t>(sessions_.size()));
}

Session* ConcurrencyManager::session(uint64_t id) {
  std::lock_guard<std::mutex> lock(sessions_mu_);
  auto it = sessions_.find(id);
  return it == sessions_.end() ? nullptr : it->second.get();
}

uint64_t ConcurrencyManager::open_sessions() const {
  std::lock_guard<std::mutex> lock(sessions_mu_);
  return sessions_.size();
}

Result<EvalOutput> ConcurrencyManager::Execute(uint64_t session_id,
                                               const std::string& text) {
  Session* session = this->session(session_id);
  if (session == nullptr) {
    return Status::InvalidArgument("unknown session id " +
                                   std::to_string(session_id));
  }
  bool committed = false;
  return ExecuteInternal(session, text, nullptr, &committed, nullptr);
}

Result<std::string> ConcurrencyManager::ExecuteIdempotent(
    uint64_t session_id, const storage::RequestId& rid,
    const std::string& text) {
  static obs::Counter& dedup_hits = obs::MetricsRegistry::Global()
      .GetCounter("xsql.server.dedup_hits");
  static obs::Counter& dedup_stale = obs::MetricsRegistry::Global()
      .GetCounter("xsql.server.dedup_stale");
  static obs::Counter& dedup_expired = obs::MetricsRegistry::Global()
      .GetCounter("xsql.server.dedup_expired");
  Session* session = this->session(session_id);
  if (session == nullptr) {
    return Status::InvalidArgument("unknown session id " +
                                   std::to_string(session_id));
  }
  const ExecLimits limits = session->options().limits;
  const std::shared_ptr<CancelToken> cancel = session->options().cancel;

  std::string cached;
  switch (dd_->dedup().Claim(rid, limits, cancel, &cached)) {
    case storage::DedupTable::ClaimResult::kCached:
      dedup_hits.Inc();
      return cached;
    case storage::DedupTable::ClaimResult::kExpired:
      // Committed, but the cached reply was evicted under the table's
      // memory bounds. A final error, never a re-execution — the
      // mutation is already applied.
      dedup_expired.Inc();
      return Status::InvalidArgument(
          "request " + rid.ToString() +
          " committed but its cached reply expired; issue a new "
          "statement to observe the current state");
    case storage::DedupTable::ClaimResult::kStale:
      dedup_stale.Inc();
      return Status::InvalidArgument(
          "stale request id " + rid.ToString() +
          ": a later statement from this client already committed");
    case storage::DedupTable::ClaimResult::kTimeout:
      return Status::ResourceExhausted(
          "deadline exceeded waiting for an in-flight duplicate "
          "(guard: dedup-wait)");
    case storage::DedupTable::ClaimResult::kExecute:
      break;  // claimed — every path below must Complete or Abandon
  }

  bool committed = false;
  std::string reply;
  Result<EvalOutput> out =
      ExecuteInternal(session, text, &rid, &committed, &reply);
  if (!out.ok()) {
    // Nothing durable happened under this rid (a failed commit wedges
    // the database *without* an entry, so a post-recovery retry
    // re-executes — the statement was never acknowledgeable).
    dd_->dedup().Abandon(rid);
    return out.status();
  }
  if (committed) {
    // ExecuteInternal already recorded the reply in the dedup table
    // (Complete released the claim), ordered before any checkpoint
    // could serialize the table without it.
    return reply;
  }
  // Read-only or diagnostic: re-executing a retry is safe (and the
  // table only tracks statements whose effects must not repeat).
  dd_->dedup().Abandon(rid);
  return RenderEvalOutput(*out);
}

Result<EvalOutput> ConcurrencyManager::ExecuteInternal(
    Session* session, const std::string& text,
    const storage::RequestId* rid, bool* committed, std::string* reply) {
  static obs::Counter& reads = obs::MetricsRegistry::Global().GetCounter(
      "xsql.server.read_statements");
  static obs::Counter& writes = obs::MetricsRegistry::Global().GetCounter(
      "xsql.server.write_statements");
  static obs::Counter& snapshot_reads =
      obs::MetricsRegistry::Global().GetCounter("xsql.mvcc.snapshot_reads");
  static obs::Counter& private_forks = obs::MetricsRegistry::Global()
      .GetCounter("xsql.mvcc.private_read_forks");
  *committed = false;
  const ExecLimits limits = session->options().limits;
  const std::shared_ptr<CancelToken> cancel = session->options().cancel;
  statements_.fetch_add(1, std::memory_order_relaxed);

  if (dd_->wedged()) {  // atomic — no latch needed
    // Final, not kUnavailable: a wedged instance needs an operator to
    // reopen the directory — a retrying client cannot wait it out.
    return Status::RuntimeError(
        "durable database crashed; reopen the directory to recover");
  }

  // Pin the current head version and classify against it — no latch,
  // regardless of what concurrent writers are doing. The pin keeps the
  // whole version (database + view catalog) alive for the duration of
  // this statement; releasing the last pin frees superseded versions.
  std::shared_ptr<const storage::DatabaseVersion> snap = chain_.Head();
  const storage::StatementClass cls =
      storage::ClassifyStatement(text, *snap->db);
  const StatementMode mode = ClassifyMode(text, cls, *snap->db, *snap->views);

  if (mode == StatementMode::kSharedRead) {
    // Latch-free snapshot read: a throwaway per-statement Session over
    // the pinned (immutable) version, carrying the connection's
    // guardrails and sharing the server-wide plan cache. Per-statement
    // construction is cheap (the introspection probe is read-only) and
    // guarantees an idle connection never pins an old version.
    PinnedSnapshotScope pinned;
    Session reader(snap->db.get(), session->options(), snap->views.get(),
                   &dd_->session().plan_cache());
    Result<EvalOutput> out = reader.ExecuteReadOnly(text);
    reads.Inc();
    snapshot_reads.Inc();
    return out;
  }

  if (mode == StatementMode::kPrivateRead) {
    // The statement reads, but its evaluation writes scratch state
    // (stale-view materialization, query-method objects, EXPLAIN
    // ANALYZE's rollback). Run it on a private copy-on-write fork of
    // the snapshot: writers and other readers never see the scratch,
    // and the fork is dropped wholesale on return. The private session
    // owns a private plan cache — plans prepared post-materialization
    // would poison the shared cache at the same version number.
    PinnedSnapshotScope pinned;
    std::unique_ptr<Database> fork = snap->db->Fork();
    ViewManager fork_views(fork.get(), *snap->views);
    Session scratch(fork.get(), session->options(), &fork_views,
                    /*shared_plans=*/nullptr);
    Result<EvalOutput> out = scratch.Execute(text);
    reads.Inc();
    private_forks.Inc();
    return out;
  }

  // kWrite: exclusive latch orders mutations against each other, the
  // checkpointer, and replica apply. ExecuteForCommit enqueues the WAL
  // record under the latch (ticket order = execution order), and the
  // fork below assigns the next version sequence under the same latch —
  // version order provably equals WAL order.
  XSQL_RETURN_IF_ERROR(latch_.AcquireExclusive(limits, cancel));
  if (dd_->wedged()) {  // re-check: a commit may have failed meanwhile
    latch_.ReleaseExclusive();
    return Status::RuntimeError(
        "durable database crashed; reopen the directory to recover");
  }
  uint64_t ticket = 0;
  Result<EvalOutput> out =
      dd_->ExecuteForCommit(session, text, &committer_, &ticket, rid);
  std::shared_ptr<storage::DatabaseVersion> next;
  if (ticket != 0) next = ForkVersionLocked();
  const bool pending_rid = ticket != 0 && rid != nullptr;
  if (pending_rid) {
    // Claimed under the latch: a checkpoint that serializes the dedup
    // table after this release is obliged to wait for our recording.
    std::lock_guard<std::mutex> lock(pending_mu_);
    ++pending_rid_commits_;
  }
  latch_.ReleaseExclusive();
  writes.Inc();

  if (ticket == 0) return out;  // failed, diagnostic, or read-only

  // Wait for durability with the latch free — the next writer executes
  // in memory while this record's fsync is in flight, and both records
  // share one fsync when the timing lines up.
  Status durable = committer_.WaitDurable(ticket);
  auto resolve_pending = [&]() {
    if (!pending_rid) return;
    std::lock_guard<std::mutex> lock(pending_mu_);
    --pending_rid_commits_;
    pending_cv_.notify_all();
  };
  if (!durable.ok()) {
    // In-memory state now leads durable state with no way to retreat:
    // same situation as a crash, handled the same way. The prepared
    // version is dropped uninstalled — readers keep the last durable
    // snapshot.
    dd_->Wedge();
    resolve_pending();
    return durable;
  }
  *committed = true;
  // Durable: publish this statement's state to readers. A group commit
  // waking several writers at once may run these installs out of order;
  // Install drops stale sequences (an earlier state is a prefix of the
  // current head — never a regression). Installing before the dedup
  // Complete / ack below means a connection always reads its own
  // committed writes.
  chain_.Install(std::move(next));
  if (pending_rid) {
    // Durable now; the retry of this rid must never run again. The
    // entry lands before the checkpoint trigger below AND before any
    // concurrent Checkpoint() serializes the table (it waits on the
    // pending count) — otherwise a rotation could discard this
    // statement's stamped WAL record while persisting a table without
    // its entry, and a crash in that window would re-execute the retry.
    std::string rendered = RenderEvalOutput(*out);
    dd_->dedup().Complete(*rid, rendered);
    if (reply != nullptr) *reply = std::move(rendered);
  }
  resolve_pending();
  if (options_.hub != nullptr && options_.sync_replication) {
    // Semi-sync: hold the ack until every live subscriber confirmed the
    // commit's durable position. Degrading (timeout, no subscriber) is
    // deliberate policy — availability over replication guarantees —
    // but it is *counted*, so a failover test can tell "every acked
    // write was replicated" from "the guarantee lapsed".
    static obs::Counter& degraded =
        obs::MetricsRegistry::Global().GetCounter("xsql.repl.sync_degraded");
    const storage::WalPoint point = dd_->DurableWalPoint();
    if (!options_.hub->WaitReplicated(point.generation, point.records,
                                      options_.sync_replication_timeout_ms)) {
      degraded.Inc();
    }
  }
  PublishStatus();
  const uint64_t since =
      mutations_since_checkpoint_.fetch_add(1, std::memory_order_relaxed) +
      1;
  if (options_.checkpoint_every != 0 &&
      since >= options_.checkpoint_every) {
    mutations_since_checkpoint_.store(0, std::memory_order_relaxed);
    // The statement is already durable in the current generation; a
    // failed rotation only matters if the instance wedged, which the
    // next statement will notice.
    (void)Checkpoint();
  }
  return out;
}

std::shared_ptr<storage::DatabaseVersion>
ConcurrencyManager::ForkVersionLocked() {
  // Fork the master (structural sharing, O(metadata)), then move the
  // master into a fresh COW epoch so its next mutation clones rather
  // than touching anything the fork now shares. The version sequence is
  // assigned here, under the exclusive latch, immediately after the WAL
  // enqueue — which is exactly what makes version order = WAL order.
  std::unique_ptr<Database> db = dd_->db().Fork();
  dd_->db().BeginNewEpoch();
  auto views =
      std::make_unique<ViewManager>(db.get(), dd_->session().views());
  return chain_.Prepare(std::move(db), std::move(views));
}

Status ConcurrencyManager::Checkpoint() {
  // Rotation is administrative: not bound by any statement's deadline.
  XSQL_RETURN_IF_ERROR(latch_.AcquireExclusive(ExecLimits{}, nullptr));
  // Under the exclusive latch nothing can enqueue, so after Drain the
  // committer is idle and Rebind is safe.
  Status out = committer_.Drain();
  if (!out.ok()) {
    dd_->Wedge();
  } else {
    // Drain made every enqueued rid-stamped record durable; wait for
    // their threads to finish recording into the dedup table before
    // serializing it (they need no latch, only their WaitDurable —
    // already satisfied — and the table mutex, so this is bounded).
    // New rid claims cannot arrive: enqueue happens under the
    // exclusive latch we hold.
    {
      std::unique_lock<std::mutex> lock(pending_mu_);
      pending_cv_.wait(lock, [&] { return pending_rid_commits_ == 0; });
    }
    out = dd_->Checkpoint();
    // On failure the old generation's WAL stays live and bound — no
    // rebind wanted. On success, point at the rotated appender.
    if (out.ok()) committer_.Rebind(dd_->wal());
  }
  latch_.ReleaseExclusive();
  PublishStatus();
  return out;
}

Result<uint64_t> ConcurrencyManager::ApplyReplicated(
    const std::vector<std::string>& records) {
  // Administrative like Checkpoint: no statement deadline applies.
  XSQL_RETURN_IF_ERROR(latch_.AcquireExclusive(ExecLimits{}, nullptr));
  if (dd_->wedged()) {
    latch_.ReleaseExclusive();
    return Status::RuntimeError(
        "durable database crashed; reopen the directory to recover");
  }
  Result<uint64_t> n = dd_->ApplyReplicated(records);
  if (n.ok() && *n > 0) {
    // Replica reads snapshot the post-batch state: install under the
    // latch so no half-applied batch is ever observable.
    chain_.Install(ForkVersionLocked());
  }
  latch_.ReleaseExclusive();
  if (n.ok()) {
    mutations_since_checkpoint_.fetch_add(*n, std::memory_order_relaxed);
    statements_.fetch_add(*n, std::memory_order_relaxed);
    PublishStatus();
  }
  return n;
}

Result<storage::BootstrapBundle> ConcurrencyManager::BuildBootstrapBundle() {
  XSQL_RETURN_IF_ERROR(latch_.AcquireExclusive(ExecLimits{}, nullptr));
  if (dd_->wedged()) {
    latch_.ReleaseExclusive();
    return Status::RuntimeError(
        "durable database crashed; reopen the directory to recover");
  }
  // Drain so the on-disk WAL holds every enqueued record — the bundle
  // is byte copies of the generation files, and they must reflect the
  // state the stream resumes from. (Rid entries recorded after their
  // fsync but before this drain are fine: the stamps ride in the WAL
  // records themselves, and replica recovery replays them.)
  Status drained = committer_.Drain();
  if (!drained.ok()) {
    dd_->Wedge();
    latch_.ReleaseExclusive();
    return drained;
  }
  Result<storage::BootstrapBundle> bundle = dd_->ReadBootstrapBundle();
  latch_.ReleaseExclusive();
  return bundle;
}

Result<bool> ConcurrencyManager::StatementNeedsExclusive(
    const std::string& text) {
  // Classify against the pinned snapshot — no latch, same as a read.
  std::shared_ptr<const storage::DatabaseVersion> snap = chain_.Head();
  const storage::StatementClass cls =
      storage::ClassifyStatement(text, *snap->db);
  return ClassifyMode(text, cls, *snap->db, *snap->views) ==
         StatementMode::kWrite;
}

void ConcurrencyManager::PublishStatus() {
  if (options_.status == nullptr) return;
  const storage::WalPoint point = dd_->DurableWalPoint();
  options_.status->Set("generation", static_cast<int64_t>(point.generation));
  options_.status->Set("wal_records", static_cast<int64_t>(point.records));
  options_.status->Set("dedup_entries",
                       static_cast<int64_t>(dd_->dedup().entries()));
  options_.status->Set("mvcc_head_sequence",
                       static_cast<int64_t>(chain_.head_sequence()));
  options_.status->Set("mvcc_live_versions",
                       storage::VersionChain::live_versions());
}

}  // namespace server
}  // namespace xsql
