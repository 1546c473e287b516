#ifndef XSQL_SERVER_REPLICATION_H_
#define XSQL_SERVER_REPLICATION_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>

#include "common/status.h"
#include "server/concurrency.h"
#include "server/wire.h"
#include "storage/recovery.h"

namespace xsql {
namespace server {

/// Primary → replica WAL shipping over the wire protocol.
///
/// Protocol (frame types in wire.h):
///
///   1. The replica connects and sends kSubscribe with its durable
///      position `[u64 gen][u64 records][u64 bytes][u32 crc]`, where
///      `crc` is the CRC-32 of its WAL file's first `bytes` bytes.
///   2. The primary grants *incremental resume* iff the generation is
///      its live one, `bytes` is within its durable WAL, and the CRC of
///      its own prefix matches — the replica's WAL is then provably a
///      byte-prefix of the primary's. Otherwise it captures a
///      *bootstrap bundle* (exact byte copies of the generation's
///      snapshot/WAL/dedup files, taken under the exclusive latch
///      with the group committer drained) and streams it as
///      kSnapshotChunk frames closed by kSnapshotDone; the replica
///      installs the files verbatim and runs ordinary recovery.
///   3. From the agreed position the primary tails its WAL, shipping
///      raw records in kWalBatch frames (the replica WAL stays a
///      byte-prefix of the primary's), kHeartbeat when idle. The
///      replica applies each batch — statements into its database,
///      request-ID stamps into its dedup table, records onto its own
///      WAL with one fsync — and answers kAck with its new durable
///      position.
///   4. A checkpoint on the primary rotates the generation mid-stream;
///      the source notices and re-bootstraps the subscriber on the same
///      connection. Generations a subscriber still needs are pinned
///      against retention pruning.
///
/// Consistency contract: the replica serves reads from a committed
/// *prefix* of the primary's history (bounded staleness, never a torn
/// or uncommitted state). Writes are refused with a redirect hint.
/// Promotion (controlled via kPromote, or crash-driven when the
/// primary dies) flips the replica to primary after it has applied
/// everything it ever acked; the dedup table it replicated makes a
/// client retry of a statement the dead primary acked dedup instead of
/// double-executing.

// Little-endian integer codecs and the replication payload formats,
// shared by the source (primary side) and the applier (replica side).
void PutU32(std::string* out, uint32_t v);
void PutU64(std::string* out, uint64_t v);
bool GetU32(const std::string& in, size_t off, uint32_t* v);
bool GetU64(const std::string& in, size_t off, uint64_t* v);
/// kSubscribe: `[u64 gen][u64 records][u64 bytes][u32 crc]`.
std::string EncodeSubscribePayload(const storage::WalPoint& point,
                                   uint32_t crc);
bool DecodeSubscribePayload(const std::string& payload,
                            storage::WalPoint* point, uint32_t* crc);
/// kAck / kHeartbeat / kSnapshotDone: `[u64 gen][u64 records]`.
std::string EncodePosition(uint64_t gen, uint64_t records);
bool DecodePosition(const std::string& payload, uint64_t* gen,
                    uint64_t* records);
/// The bootstrap bundle blob carried (chunked) in kSnapshotChunk
/// frames: five u64 headers then the three file images.
std::string EncodeBundle(const storage::BootstrapBundle& bundle);
bool DecodeBundle(const std::string& blob, storage::BootstrapBundle* bundle);

/// Tracks live replication subscribers and their acked positions. The
/// hub is the meeting point between source threads (updating acks) and
/// the commit path (semi-synchronous waits).
class ReplicationHub {
 public:
  /// Registers a subscriber; returns its id.
  uint64_t Register();
  void Unregister(uint64_t id);
  /// Records a subscriber's acked durable position.
  void UpdateAck(uint64_t id, uint64_t gen, uint64_t records);

  /// Blocks until every live subscriber has acked at least
  /// (`gen`, `records`), the timeout expires, or no subscriber is
  /// live. True only in the first case — false means the write is NOT
  /// known replicated (semi-sync degrade).
  bool WaitReplicated(uint64_t gen, uint64_t records, int timeout_ms);

  /// Whether any subscriber ever connected. The server uses this to
  /// answer wedged-primary requests with retryable kUnavailable (a
  /// replica exists to fail over to) instead of a final error.
  bool ever_had_subscriber() const {
    return ever_.load(std::memory_order_relaxed);
  }
  int live_subscribers() const;

 private:
  struct Sub {
    uint64_t gen = 0;
    uint64_t records = 0;
  };

  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::map<uint64_t, Sub> subs_;
  uint64_t next_id_ = 0;
  std::atomic<bool> ever_{false};
};

/// The primary's shipping side: serves one subscriber on one connection
/// (the thread that received kSubscribe parks here until the replica
/// disconnects, the server stops, or the database wedges).
class ReplicationSource {
 public:
  ReplicationSource(ConcurrencyManager* cm, ReplicationHub* hub)
      : cm_(cm), hub_(hub) {}

  /// Serves the stream on `fd`. `subscribe_payload` is the kSubscribe
  /// frame's payload; `stop` is the owning server's stop flag.
  void Serve(int fd, const IoOptions& io,
             const std::string& subscribe_payload,
             const std::atomic<bool>* stop);

 private:
  /// Sends the bundle as kSnapshotChunk frames + kSnapshotDone.
  Status SendBundle(int fd, const IoOptions& io,
                    const storage::BootstrapBundle& bundle);

  ConcurrencyManager* cm_;
  ReplicationHub* hub_;
};

}  // namespace server
}  // namespace xsql

#endif  // XSQL_SERVER_REPLICATION_H_
