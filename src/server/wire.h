#ifndef XSQL_SERVER_WIRE_H_
#define XSQL_SERVER_WIRE_H_

#include <atomic>
#include <cstdint>
#include <string>

#include "common/status.h"

namespace xsql {
namespace server {

/// The XSQL wire protocol: length-prefixed frames over a byte stream.
///
///     [u32 frame_len | little-endian]   — bytes after this field
///     [u8  type]                        — MsgType
///     [frame_len - 1 payload bytes]
///
/// Client → server: kExecute (payload = statement text), kExecuteId
/// (payload = [16-byte client uuid][u64 seq LE][statement text] — the
/// exactly-once form, see storage/dedup.h), kPing (empty), kQuit
/// (empty). Server → client, one reply per request: kResult (payload =
/// rendered result text), kError (payload = the Status rendered as
/// `CodeName: message`, machine-splittable on the first `: `), or
/// kUnavailable (transient overload / shutdown pending; payload =
/// `<retry_after_ms> <message>` — safe to retry after the hint).
/// Frames above kMaxFrame are a protocol error — the peer is garbage
/// or hostile, and the connection drops.
///
/// Replication frames (see server/replication.h for the protocol; all
/// multi-byte integers little-endian):
///   kSubscribe  replica → primary: `[u64 gen][u64 records][u64 bytes]
///               [u32 crc]` — "I hold this durable prefix (crc of my
///               WAL's byte prefix proves it is yours); stream from
///               there". A fresh replica sends gen 0.
///   kSnapshotChunk / kSnapshotDone  primary → replica bootstrap: the
///               generation bundle (snapshot, WAL, dedup table)
///               chunked under kMaxFrame; kSnapshotDone carries
///               `[u64 gen][u64 records]`, the position the stream
///               resumes from.
///   kWalBatch   primary → replica: `[u64 first_record_index]` then
///               raw WAL records (len+crc+payload) verbatim — the
///               replica's WAL stays a byte-prefix of the primary's.
///   kHeartbeat  primary → replica when idle: `[u64 gen][u64 records]`
///               so lag is measurable without traffic.
///   kAck        replica → primary: `[u64 gen][u64 records]` applied
///               durably — feeds semi-sync waits and lag gauges.
///   kPromote    admin → replica: finish applying, detach, serve as
///               primary. Replied with kResult / kError.
enum class MsgType : uint8_t {
  kExecute = 0x01,
  kPing = 0x02,
  kQuit = 0x03,
  kExecuteId = 0x04,
  kSubscribe = 0x05,
  kAck = 0x06,
  kPromote = 0x07,
  kResult = 0x11,
  kError = 0x12,
  kUnavailable = 0x13,
  kSnapshotChunk = 0x14,
  kSnapshotDone = 0x15,
  kWalBatch = 0x16,
  kHeartbeat = 0x17,
};

/// Frame size cap (length field value): 16 MiB.
constexpr uint32_t kMaxFrame = 16u << 20;

/// One decoded frame.
struct Frame {
  MsgType type = MsgType::kPing;
  std::string payload;
};

/// Per-connection socket I/O policy. The zero value blocks forever and
/// names no fault-injection site.
struct IoOptions {
  /// Checked between poll slices; non-null on the server side so
  /// shutdown interrupts parked reads.
  const std::atomic<bool>* stop = nullptr;
  /// Max wait for the *first* byte of the next frame (0 = forever).
  /// Tripping it returns ResourceExhausted mentioning "idle timeout" —
  /// the server's idle-connection reaper.
  int idle_timeout_ms = 0;
  /// Max wall-clock for finishing a frame once its first byte arrived,
  /// and for draining one reply write (0 = forever). Defends against
  /// slow/stalled peers holding a thread and its buffers.
  int io_timeout_ms = 0;
  /// Fault-injection side tag ("srv" / "cli"); read ops draw from site
  /// "net-<site>-read", writes from "net-<site>-write" (see
  /// FaultInjector::ArmNet). Empty still participates when the armed
  /// filter is empty.
  const char* site = "";
};

/// Encodes a frame ready for the socket.
std::string EncodeFrame(MsgType type, const std::string& payload);

/// Reads one full frame under `io` (timeouts, stop flag, injected
/// faults). Errors: kCancelled when `io.stop` trips, ResourceExhausted
/// on a timeout, NotFound on EOF, InvalidArgument on a malformed
/// length, RuntimeError on socket failure or an injected reset.
Result<Frame> ReadFrame(int fd, const IoOptions& io);

/// Writes all of `data` under `io`, or fails having possibly sent a
/// prefix — the caller must treat any error as a poisoned connection
/// and close it (the peer then sees EOF mid-frame instead of a hang).
/// Uses MSG_NOSIGNAL + poll, so a dead peer yields EPIPE/ECONNRESET as
/// a NotFound status, never a SIGPIPE crash; ResourceExhausted when
/// `io.io_timeout_ms` expires before the final byte is accepted.
Status WriteAll(int fd, const std::string& data, const IoOptions& io);

}  // namespace server
}  // namespace xsql

#endif  // XSQL_SERVER_WIRE_H_
