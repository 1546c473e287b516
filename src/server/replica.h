#ifndef XSQL_SERVER_REPLICA_H_
#define XSQL_SERVER_REPLICA_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>

#include "common/status.h"
#include "server/replication.h"
#include "server/server.h"
#include "storage/recovery.h"

namespace xsql {
namespace server {

/// Replica-node policy.
struct ReplicaOptions {
  /// The replica's own durable directory.
  std::string dir;
  /// Where the primary listens.
  std::string primary_host = "127.0.0.1";
  int primary_port = 0;
  /// Template for the replica's read-only server (role and redirect
  /// hint are filled in by Start).
  ServerOptions server;
  /// Durable-database options for the replica directory. Replicas keep
  /// `checkpoint_every` at 0: generations must rotate in lockstep with
  /// the primary (a local rotation would fork the numbering and force
  /// a re-bootstrap on the next subscribe).
  storage::DurableOptions durable;
  /// Losing heartbeats for this long counts as a dead primary: the
  /// applier reconnects (or, after RequestPromote, takes over).
  int heartbeat_timeout_ms = 1000;
};

/// A replica process-in-miniature: its own DurableDatabase, a
/// read-only Server for queries, and an applier thread that subscribes
/// to the primary, applies shipped batches, and acks. On promotion the
/// applier detaches from the primary and the server starts accepting
/// writes as the new primary — with the replicated dedup table intact,
/// so a client retrying a statement the dead primary acked gets its
/// cached reply instead of a double execution.
class ReplicaNode {
 public:
  static Result<std::unique_ptr<ReplicaNode>> Start(ReplicaOptions options);

  ~ReplicaNode();

  /// Stops the applier and the server; joins. Idempotent.
  void Shutdown();

  /// Asks the applier to promote. Asynchronous by design: this is
  /// called from the server's own connection threads (the kPromote
  /// handler), which the promotion path must never join from. The
  /// applier notices, detaches from the primary, and flips the role.
  void RequestPromote();

  /// Waits until promotion completes (role flipped, writes accepted).
  bool AwaitPromoted(int timeout_ms);
  bool promoted() const {
    return promoted_.load(std::memory_order_acquire);
  }

  /// The replica server's port (stable across re-bootstraps).
  int port() const { return port_; }

  /// The live server/database. The pointers are replaced during a
  /// mid-stream re-bootstrap; callers outside the applier should reach
  /// state through the wire instead where possible.
  Server* server();
  storage::DurableDatabase* durable();

  /// The generation of the durable database the node serves, published
  /// after each (re)open installs it. Safe to poll from any thread while
  /// the applier re-bootstraps, unlike dereferencing `durable()`.
  uint64_t generation() const {
    return generation_.load(std::memory_order_acquire);
  }

  /// Records the applier observed the primary at, and applied locally.
  uint64_t primary_records() const {
    return primary_records_.load(std::memory_order_relaxed);
  }
  uint64_t applied_records() const {
    return applied_records_.load(std::memory_order_relaxed);
  }
  uint64_t reconnects() const {
    return reconnects_.load(std::memory_order_relaxed);
  }

 private:
  explicit ReplicaNode(ReplicaOptions options)
      : options_(std::move(options)) {}

  /// Opens the durable directory and starts the server in `role`
  /// (first on options_.server.port, thereafter on the recorded port).
  Status OpenAndServe(ServerRole role);
  void ApplierLoop();
  /// One connect → subscribe → apply cycle. Returns when the
  /// connection dies, stop/promote is requested, or the stream went
  /// irrecoverably out of sync (the caller reconnects, which
  /// renegotiates the position from local durable state).
  /// `*progressed` reports whether anything was applied.
  Status RunOnce(bool* progressed);
  /// Tears down server+database, installs `bundle`, reopens both on
  /// the same port.
  Status Rebootstrap(const storage::BootstrapBundle& bundle);
  void PublishStatus();
  void Promote();

  ReplicaOptions options_;
  int port_ = 0;

  mutable std::mutex state_mu_;  // guards server_/dd_ swaps (re-bootstrap)
  std::unique_ptr<storage::DurableDatabase> dd_;
  std::unique_ptr<Server> server_;

  std::thread applier_;
  std::atomic<bool> applier_stop_{false};
  std::atomic<bool> promote_requested_{false};
  std::atomic<bool> promoted_{false};
  std::mutex promote_mu_;
  std::condition_variable promote_cv_;

  std::atomic<uint64_t> generation_{0};
  std::atomic<uint64_t> primary_records_{0};
  std::atomic<uint64_t> applied_records_{0};
  std::atomic<uint64_t> reconnects_{0};
};

}  // namespace server
}  // namespace xsql

#endif  // XSQL_SERVER_REPLICA_H_
