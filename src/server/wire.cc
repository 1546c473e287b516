#include "server/wire.h"

#include <errno.h>
#include <poll.h>
#include <string.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <optional>
#include <thread>

#include "common/fault.h"

namespace xsql {
namespace server {

namespace {

/// How long one poll() slice lasts; the stop flag and deadlines are
/// checked between slices, bounding shutdown latency.
constexpr int kPollSliceMs = 100;

using Clock = std::chrono::steady_clock;

Status SocketError(const char* what) {
  return Status::RuntimeError(std::string(what) + ": " + strerror(errno));
}

std::optional<Clock::time_point> DeadlineAfter(int ms) {
  if (ms <= 0) return std::nullopt;
  return Clock::now() + std::chrono::milliseconds(ms);
}

/// Bounds one poll slice by the deadline (so a 100 ms slice never
/// overshoots a 10 ms budget).
int SliceMs(const std::optional<Clock::time_point>& deadline) {
  if (!deadline.has_value()) return kPollSliceMs;
  auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
                  *deadline - Clock::now())
                  .count();
  if (left < 1) return 1;
  if (left > kPollSliceMs) return kPollSliceMs;
  return static_cast<int>(left);
}

/// Draws the injected fault for one socket op. Read-side ops map
/// kTruncate/kDrop to kReset: a torn or swallowed inbound frame
/// surfaces to this process as a dead connection either way.
NetAction DrawNetFault(const IoOptions& io, bool is_read,
                       uint64_t op_bytes) {
  FaultInjector& fi = FaultInjector::Global();
  if (!fi.net_armed()) return NetAction{};
  std::string site = std::string("net-") + io.site +
                     (is_read ? "-read" : "-write");
  NetAction action = fi.NetNext(site.c_str(), op_bytes);
  if (is_read && (action.kind == NetFault::kTruncate ||
                  action.kind == NetFault::kDrop)) {
    action.kind = NetFault::kReset;
  }
  if (action.kind == NetFault::kDelay && action.delay_ms > 0) {
    std::this_thread::sleep_for(
        std::chrono::milliseconds(action.delay_ms));
    action.kind = NetFault::kNone;  // after the stall, proceed normally
  }
  return action;
}

/// Reads exactly `n` bytes into `out`, polling so the stop flag and
/// the deadline both work. `what` names the budget in the timeout
/// status ("idle timeout" / "read timeout").
Status ReadExact(int fd, size_t n, std::string* out, const IoOptions& io,
                 const std::optional<Clock::time_point>& deadline,
                 const char* what) {
  NetAction fault = DrawNetFault(io, /*is_read=*/true, n);
  if (fault.kind == NetFault::kReset) {
    return Status::RuntimeError("injected connection reset (read)");
  }
  out->clear();
  out->reserve(n);
  char buf[4096];
  while (out->size() < n) {
    if (io.stop != nullptr && io.stop->load(std::memory_order_relaxed)) {
      return Status::Cancelled("connection stopped");
    }
    if (deadline.has_value() && Clock::now() >= *deadline) {
      return Status::ResourceExhausted(std::string(what) +
                                       " on socket read");
    }
    struct pollfd pfd;
    pfd.fd = fd;
    pfd.events = POLLIN;
    pfd.revents = 0;
    int ready = poll(&pfd, 1, SliceMs(deadline));
    if (ready < 0) {
      if (errno == EINTR) continue;
      return SocketError("poll");
    }
    if (ready == 0) continue;  // slice expired; re-check stop/deadline
    size_t want = n - out->size();
    if (want > sizeof(buf)) want = sizeof(buf);
    ssize_t got = read(fd, buf, want);
    if (got < 0) {
      if (errno == EINTR) continue;
      if (errno == ECONNRESET) {
        return Status::NotFound("connection reset by peer");
      }
      return SocketError("read");
    }
    if (got == 0) return Status::NotFound("connection closed by peer");
    out->append(buf, static_cast<size_t>(got));
  }
  return Status::OK();
}

}  // namespace

std::string EncodeFrame(MsgType type, const std::string& payload) {
  const uint32_t len = static_cast<uint32_t>(payload.size()) + 1;
  std::string out;
  out.reserve(4 + len);
  out.push_back(static_cast<char>(len & 0xFF));
  out.push_back(static_cast<char>((len >> 8) & 0xFF));
  out.push_back(static_cast<char>((len >> 16) & 0xFF));
  out.push_back(static_cast<char>((len >> 24) & 0xFF));
  out.push_back(static_cast<char>(type));
  out.append(payload);
  return out;
}

Result<Frame> ReadFrame(int fd, const IoOptions& io) {
  // The wait for the first byte is idleness (bounded by the idle
  // budget); everything after it is one frame in flight (bounded by
  // the io budget) — a peer that starts a frame must finish it.
  std::string first;
  XSQL_RETURN_IF_ERROR(ReadExact(fd, 1, &first, io,
                                 DeadlineAfter(io.idle_timeout_ms),
                                 "idle timeout"));
  const std::optional<Clock::time_point> frame_deadline =
      DeadlineAfter(io.io_timeout_ms);
  std::string rest;
  XSQL_RETURN_IF_ERROR(
      ReadExact(fd, 3, &rest, io, frame_deadline, "read timeout"));
  const std::string header = first + rest;
  const auto* b = reinterpret_cast<const unsigned char*>(header.data());
  uint32_t len = static_cast<uint32_t>(b[0]) |
                 (static_cast<uint32_t>(b[1]) << 8) |
                 (static_cast<uint32_t>(b[2]) << 16) |
                 (static_cast<uint32_t>(b[3]) << 24);
  if (len == 0 || len > kMaxFrame) {
    return Status::InvalidArgument("bad frame length " +
                                   std::to_string(len));
  }
  std::string body;
  XSQL_RETURN_IF_ERROR(
      ReadExact(fd, len, &body, io, frame_deadline, "read timeout"));
  Frame frame;
  frame.type = static_cast<MsgType>(static_cast<uint8_t>(body[0]));
  frame.payload = body.substr(1);
  return frame;
}

Status WriteAll(int fd, const std::string& data, const IoOptions& io) {
  NetAction fault = DrawNetFault(io, /*is_read=*/false, data.size());
  if (fault.kind == NetFault::kReset) {
    return Status::RuntimeError("injected connection reset (write)");
  }
  if (fault.kind == NetFault::kDrop) {
    // The frame vanishes but the writer believes it was sent — the
    // lost-reply scenario. The peer's timeout is its only recourse.
    return Status::OK();
  }
  size_t limit = data.size();
  bool torn = false;
  if (fault.kind == NetFault::kTruncate) {
    limit = static_cast<size_t>(fault.keep_bytes);
    torn = true;  // send the prefix, then fail so the caller closes
  }
  const std::optional<Clock::time_point> deadline =
      DeadlineAfter(io.io_timeout_ms);
  size_t sent = 0;
  while (sent < limit) {
    if (io.stop != nullptr && io.stop->load(std::memory_order_relaxed)) {
      return Status::Cancelled("connection stopped");
    }
    if (deadline.has_value() && Clock::now() >= *deadline) {
      return Status::ResourceExhausted("write timeout on socket");
    }
    // MSG_NOSIGNAL: a peer that died mid-reply must surface as EPIPE,
    // not kill the process; MSG_DONTWAIT + poll keeps the deadline
    // honest when the kernel buffer is full (slow-reader defense).
    ssize_t n = send(fd, data.data() + sent, limit - sent,
                     MSG_NOSIGNAL | MSG_DONTWAIT);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        struct pollfd pfd;
        pfd.fd = fd;
        pfd.events = POLLOUT;
        pfd.revents = 0;
        int ready = poll(&pfd, 1, SliceMs(deadline));
        if (ready < 0 && errno != EINTR) return SocketError("poll");
        continue;
      }
      if (errno == EPIPE || errno == ECONNRESET) {
        return Status::NotFound("connection closed by peer (write)");
      }
      return SocketError("send");
    }
    sent += static_cast<size_t>(n);
  }
  if (torn) {
    return Status::RuntimeError("injected truncated write");
  }
  return Status::OK();
}

}  // namespace server
}  // namespace xsql
