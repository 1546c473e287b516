#include "server/replica.h"

#include <arpa/inet.h>
#include <errno.h>
#include <netinet/in.h>
#include <string.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <utility>
#include <vector>

#include "common/crc32.h"
#include "obs/metrics.h"
#include "obs/status.h"
#include "storage/file.h"
#include "storage/wal.h"

namespace xsql {
namespace server {

namespace {

using Clock = std::chrono::steady_clock;

constexpr uint64_t kWalMagicLen = sizeof(storage::Wal::kMagic) - 1;
/// Accumulated bootstrap bundle cap — far above any test database, far
/// below address-space trouble.
constexpr uint64_t kMaxBundleBytes = 1ull << 30;
/// Reconnect backoff bounds.
constexpr int kBackoffStartMs = 10;
constexpr int kBackoffMaxMs = 200;

Result<int> ConnectTcp(const std::string& host, int port) {
  int fd = socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    return Status::RuntimeError(std::string("socket: ") + strerror(errno));
  }
  struct sockaddr_in addr;
  memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  if (inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    close(fd);
    return Status::InvalidArgument("bad replication host: " + host);
  }
  if (connect(fd, reinterpret_cast<struct sockaddr*>(&addr),
              sizeof(addr)) < 0) {
    Status st = Status::RuntimeError(std::string("connect: ") +
                                     strerror(errno));
    close(fd);
    return st;
  }
  return fd;
}

}  // namespace

Result<std::unique_ptr<ReplicaNode>> ReplicaNode::Start(
    ReplicaOptions options) {
  std::unique_ptr<ReplicaNode> node(new ReplicaNode(std::move(options)));
  // Replicas never rotate on their own: generation numbering must track
  // the primary's, and rotation arrives through the stream as a
  // re-bootstrap.
  node->options_.durable.checkpoint_every = 0;
  node->options_.server.checkpoint_every = 0;
  XSQL_RETURN_IF_ERROR(node->OpenAndServe(ServerRole::kReplica));
  node->applier_ = std::thread([n = node.get()] { n->ApplierLoop(); });
  return node;
}

ReplicaNode::~ReplicaNode() { Shutdown(); }

void ReplicaNode::Shutdown() {
  applier_stop_.store(true, std::memory_order_release);
  if (applier_.joinable()) applier_.join();
  std::unique_ptr<Server> server;
  std::unique_ptr<storage::DurableDatabase> dd;
  {
    std::lock_guard<std::mutex> lock(state_mu_);
    server = std::move(server_);
    dd = std::move(dd_);
  }
  if (server != nullptr) server->Shutdown();
  server.reset();  // before the database it serves
  dd.reset();
}

void ReplicaNode::RequestPromote() {
  promote_requested_.store(true, std::memory_order_release);
}

bool ReplicaNode::AwaitPromoted(int timeout_ms) {
  std::unique_lock<std::mutex> lock(promote_mu_);
  return promote_cv_.wait_for(
      lock, std::chrono::milliseconds(timeout_ms),
      [&] { return promoted_.load(std::memory_order_acquire); });
}

Server* ReplicaNode::server() {
  std::lock_guard<std::mutex> lock(state_mu_);
  return server_.get();
}

storage::DurableDatabase* ReplicaNode::durable() {
  std::lock_guard<std::mutex> lock(state_mu_);
  return dd_.get();
}

Status ReplicaNode::OpenAndServe(ServerRole role) {
  ServerOptions sopts = options_.server;
  sopts.role = role;
  sopts.checkpoint_every = 0;
  if (sopts.redirect_hint.empty()) {
    sopts.redirect_hint = options_.primary_host + ":" +
                          std::to_string(options_.primary_port);
  }
  // First start binds the configured port (possibly ephemeral); every
  // restart — re-bootstrap, healing reopen, promotion — rebinds the
  // SAME port, so clients and tests keep one stable address.
  if (port_ != 0) sopts.port = port_;
  sopts.on_promote = [this](std::string* msg) {
    if (promoted_.load(std::memory_order_acquire)) {
      *msg = "already primary";
      return Status::OK();
    }
    RequestPromote();
    *msg = "promotion requested; applier is detaching from the primary";
    return Status::OK();
  };

  Result<std::unique_ptr<storage::DurableDatabase>> dd =
      storage::DurableDatabase::Open(options_.dir, options_.durable);
  if (!dd.ok()) return dd.status();
  Result<std::unique_ptr<Server>> server = Server::Start(dd->get(), sopts);
  if (!server.ok()) return server.status();

  std::lock_guard<std::mutex> lock(state_mu_);
  dd_ = std::move(*dd);
  server_ = std::move(*server);
  port_ = server_->port();
  applied_records_.store(dd_->wal_records(), std::memory_order_relaxed);
  generation_.store(dd_->generation(), std::memory_order_release);
  return Status::OK();
}

void ReplicaNode::ApplierLoop() {
  static obs::Counter& reconnect_counter =
      obs::MetricsRegistry::Global().GetCounter("xsql.repl.reconnects");
  int backoff_ms = kBackoffStartMs;
  while (!applier_stop_.load(std::memory_order_acquire) &&
         !promote_requested_.load(std::memory_order_acquire)) {
    bool progressed = false;
    Status st = RunOnce(&progressed);
    if (applier_stop_.load(std::memory_order_acquire) ||
        promote_requested_.load(std::memory_order_acquire)) {
      break;
    }
    // The connection died (primary crash, restart, or network fault):
    // back off and resubscribe from local durable state. Progress on
    // the dead connection resets the backoff — consecutive *barren*
    // attempts are what escalate it.
    reconnects_.fetch_add(1, std::memory_order_relaxed);
    reconnect_counter.Inc();
    if (progressed || st.ok()) backoff_ms = kBackoffStartMs;
    const auto wake = Clock::now() + std::chrono::milliseconds(backoff_ms);
    while (Clock::now() < wake &&
           !applier_stop_.load(std::memory_order_acquire) &&
           !promote_requested_.load(std::memory_order_acquire)) {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    backoff_ms = backoff_ms * 2 > kBackoffMaxMs ? kBackoffMaxMs
                                                : backoff_ms * 2;
  }
  if (promote_requested_.load(std::memory_order_acquire) &&
      !applier_stop_.load(std::memory_order_acquire)) {
    Promote();
  }
}

Status ReplicaNode::RunOnce(bool* progressed) {
  static obs::Gauge& lag_records =
      obs::MetricsRegistry::Global().GetGauge("xsql.repl.lag_records");
  static obs::Gauge& lag_ms =
      obs::MetricsRegistry::Global().GetGauge("xsql.repl.lag_ms");

  // Heal first: a wedged replica (a failed apply or torn local append)
  // reopens from its own durable prefix — recovery truncates any torn
  // tail — and resubscribes from the recovered position.
  if (dd_ == nullptr || dd_->wedged()) {
    std::unique_ptr<Server> old_server;
    std::unique_ptr<storage::DurableDatabase> old_dd;
    {
      std::lock_guard<std::mutex> lock(state_mu_);
      old_server = std::move(server_);
      old_dd = std::move(dd_);
    }
    if (old_server != nullptr) old_server->Shutdown();
    old_server.reset();
    old_dd.reset();
    XSQL_RETURN_IF_ERROR(OpenAndServe(ServerRole::kReplica));
  }
  storage::DurableDatabase* dd = dd_.get();

  // Our durable position, plus the CRC of our WAL prefix — the proof
  // of shared history the primary demands for incremental resume.
  storage::WalPoint local = dd->DurableWalPoint();
  uint32_t crc = 0;
  if (local.bytes >= kWalMagicLen) {
    Result<std::string> prefix = storage::File::ReadRange(
        storage::DurableDatabase::WalPath(options_.dir, local.generation),
        0, local.bytes);
    if (!prefix.ok()) return prefix.status();
    crc = Crc32(*prefix);
  }

  Result<int> fd = ConnectTcp(options_.primary_host, options_.primary_port);
  if (!fd.ok()) return fd.status();

  IoOptions io;
  io.stop = &applier_stop_;
  // Silence past this is a lost primary: heartbeats come every ~50ms,
  // so tripping the idle timeout means the stream is dead.
  io.idle_timeout_ms = options_.heartbeat_timeout_ms;
  io.io_timeout_ms = options_.heartbeat_timeout_ms;
  io.site = "repl";

  Status st = WriteAll(
      *fd, EncodeFrame(MsgType::kSubscribe,
                       EncodeSubscribePayload(local, crc)),
      io);
  if (!st.ok()) {
    close(*fd);
    return st;
  }

  std::string bundle_buf;
  auto last_caught_up = Clock::now();
  auto publish_lag = [&]() {
    const uint64_t primary = primary_records_.load(std::memory_order_relaxed);
    const uint64_t applied = applied_records_.load(std::memory_order_relaxed);
    const int64_t behind = primary > applied
                               ? static_cast<int64_t>(primary - applied)
                               : 0;
    if (behind == 0) last_caught_up = Clock::now();
    lag_records.Set(behind);
    lag_ms.Set(behind == 0
                   ? 0
                   : std::chrono::duration_cast<std::chrono::milliseconds>(
                         Clock::now() - last_caught_up)
                         .count());
    PublishStatus();
  };
  auto ack = [&]() -> Status {
    const storage::WalPoint now = dd->DurableWalPoint();
    applied_records_.store(now.records, std::memory_order_relaxed);
    return WriteAll(
        *fd,
        EncodeFrame(MsgType::kAck, EncodePosition(now.generation,
                                                  now.records)),
        io);
  };

  while (st.ok()) {
    if (applier_stop_.load(std::memory_order_acquire) ||
        promote_requested_.load(std::memory_order_acquire)) {
      break;
    }
    Result<Frame> frame = ReadFrame(*fd, io);
    if (!frame.ok()) {
      st = frame.status();
      break;
    }
    switch (frame->type) {
      case MsgType::kSnapshotChunk:
        if (bundle_buf.size() + frame->payload.size() > kMaxBundleBytes) {
          st = Status::ResourceExhausted("bootstrap bundle too large");
          break;
        }
        bundle_buf += frame->payload;
        break;
      case MsgType::kSnapshotDone: {
        storage::BootstrapBundle bundle;
        if (!DecodeBundle(bundle_buf, &bundle)) {
          st = Status::InvalidArgument("malformed bootstrap bundle");
          break;
        }
        bundle_buf.clear();
        st = Rebootstrap(bundle);
        if (!st.ok()) break;
        dd = dd_.get();  // Rebootstrap replaced the node state
        primary_records_.store(bundle.wal_records,
                               std::memory_order_relaxed);
        *progressed = true;
        st = ack();
        publish_lag();
        break;
      }
      case MsgType::kWalBatch: {
        uint64_t first = 0;
        if (!GetU64(frame->payload, 0, &first)) {
          st = Status::InvalidArgument("malformed WAL batch header");
          break;
        }
        const std::string raw = frame->payload.substr(8);
        uint64_t consumed = 0;
        std::vector<std::string> payloads;
        st = storage::Wal::ParseRecords(raw, &consumed, &payloads);
        if (!st.ok()) break;
        if (consumed != raw.size()) {
          st = Status::InvalidArgument("partial record in WAL batch");
          break;
        }
        const storage::WalPoint now = dd->DurableWalPoint();
        if (first != now.records) {
          // The stream and our state disagree (e.g. a reconnect raced a
          // rotation). Resubscribing renegotiates from durable truth.
          st = Status::InvalidArgument(
              "replication stream out of sync: batch starts at record " +
              std::to_string(first) + ", replica holds " +
              std::to_string(now.records));
          break;
        }
        Result<uint64_t> applied =
            server_->manager().ApplyReplicated(payloads);
        if (!applied.ok()) {
          // The apply wedged the database; the next RunOnce heals by
          // reopening from the durable prefix.
          st = applied.status();
          break;
        }
        primary_records_.store(
            first + *applied > primary_records_.load(
                                   std::memory_order_relaxed)
                ? first + *applied
                : primary_records_.load(std::memory_order_relaxed),
            std::memory_order_relaxed);
        *progressed = true;
        st = ack();
        publish_lag();
        break;
      }
      case MsgType::kHeartbeat: {
        uint64_t pgen = 0, precords = 0;
        if (DecodePosition(frame->payload, &pgen, &precords)) {
          primary_records_.store(precords, std::memory_order_relaxed);
        }
        st = ack();
        publish_lag();
        break;
      }
      case MsgType::kError:
        st = Status::RuntimeError("primary refused subscription: " +
                                  frame->payload);
        break;
      default:
        st = Status::InvalidArgument("unexpected replication frame");
        break;
    }
  }
  close(*fd);
  // Breaking for stop/promote is a clean end, not a stream failure.
  if (applier_stop_.load(std::memory_order_acquire) ||
      promote_requested_.load(std::memory_order_acquire)) {
    return Status::OK();
  }
  return st;
}

Status ReplicaNode::Rebootstrap(const storage::BootstrapBundle& bundle) {
  // The server holds sessions into the database being replaced: tear
  // everything down, install the primary's generation files verbatim,
  // and come back up through ordinary recovery on the same port.
  std::unique_ptr<Server> old_server;
  std::unique_ptr<storage::DurableDatabase> old_dd;
  {
    std::lock_guard<std::mutex> lock(state_mu_);
    old_server = std::move(server_);
    old_dd = std::move(dd_);
  }
  if (old_server != nullptr) old_server->Shutdown();
  old_server.reset();
  old_dd.reset();
  XSQL_RETURN_IF_ERROR(storage::DurableDatabase::InstallBootstrapBundle(
      options_.dir, bundle));
  return OpenAndServe(ServerRole::kReplica);
}

void ReplicaNode::PublishStatus() {
  Server* server = server_.get();
  if (server == nullptr) return;
  obs::StatusRegistry& board = server->status();
  board.Set("repl.primary", options_.primary_host + ":" +
                                std::to_string(options_.primary_port));
  const int64_t primary =
      static_cast<int64_t>(primary_records_.load(std::memory_order_relaxed));
  const int64_t applied =
      static_cast<int64_t>(applied_records_.load(std::memory_order_relaxed));
  board.Set("repl.primary_records", primary);
  board.Set("repl.applied_records", applied);
  board.Set("repl.lag_records", primary > applied ? primary - applied : 0);
}

void ReplicaNode::Promote() {
  static obs::Counter& promotions =
      obs::MetricsRegistry::Global().GetCounter("xsql.repl.promotions");
  // Crash promotion may find the replica wedged mid-apply (the primary
  // died while a batch was half-landing). Reopen from the local
  // durable prefix first — recovery truncates the unshipped torn tail
  // exactly like local crash recovery — then take over.
  if (dd_ == nullptr || dd_->wedged()) {
    std::unique_ptr<Server> old_server;
    std::unique_ptr<storage::DurableDatabase> old_dd;
    {
      std::lock_guard<std::mutex> lock(state_mu_);
      old_server = std::move(server_);
      old_dd = std::move(dd_);
    }
    if (old_server != nullptr) old_server->Shutdown();
    old_server.reset();
    old_dd.reset();
    Status reopened = OpenAndServe(ServerRole::kPrimary);
    if (!reopened.ok()) {
      // Leave promoted_ unset: AwaitPromoted reports the failure by
      // timing out, and the node stays a (dead) replica.
      return;
    }
  } else {
    std::lock_guard<std::mutex> lock(state_mu_);
    server_->SetRole(ServerRole::kPrimary);
  }
  {
    std::lock_guard<std::mutex> lock(state_mu_);
    if (server_ != nullptr) {
      server_->status().Set("repl.promoted_from",
                            options_.primary_host + ":" +
                                std::to_string(options_.primary_port));
    }
  }
  promotions.Inc();
  promoted_.store(true, std::memory_order_release);
  {
    std::lock_guard<std::mutex> lock(promote_mu_);
  }
  promote_cv_.notify_all();
}

}  // namespace server
}  // namespace xsql
