#include "server/replication.h"

#include <poll.h>

#include <chrono>
#include <thread>
#include <utility>
#include <vector>

#include "common/crc32.h"
#include "obs/metrics.h"
#include "storage/file.h"
#include "storage/wal.h"

namespace xsql {
namespace server {

namespace {

using Clock = std::chrono::steady_clock;

/// Raw WAL bytes per kWalBatch frame — well under kMaxFrame, and small
/// enough that a replica ack (and thus semi-sync progress) is never
/// more than one frame of apply-work away.
constexpr uint64_t kMaxBatchBytes = 4u << 20;
/// Bundle bytes per kSnapshotChunk frame.
constexpr uint64_t kChunkBytes = 4u << 20;
/// Heartbeat cadence while idle.
constexpr std::chrono::milliseconds kHeartbeatEvery(50);
/// Ship-loop poll cadence.
constexpr std::chrono::milliseconds kShipPollSlice(2);

constexpr uint64_t kWalMagicLen = sizeof(storage::Wal::kMagic) - 1;

}  // namespace

void PutU32(std::string* out, uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    out->push_back(static_cast<char>((v >> (8 * i)) & 0xff));
  }
}

void PutU64(std::string* out, uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    out->push_back(static_cast<char>((v >> (8 * i)) & 0xff));
  }
}

bool GetU32(const std::string& in, size_t off, uint32_t* v) {
  if (in.size() < off + 4) return false;
  *v = 0;
  for (int i = 0; i < 4; ++i) {
    *v |= static_cast<uint32_t>(static_cast<unsigned char>(in[off + i]))
          << (8 * i);
  }
  return true;
}

bool GetU64(const std::string& in, size_t off, uint64_t* v) {
  if (in.size() < off + 8) return false;
  *v = 0;
  for (int i = 0; i < 8; ++i) {
    *v |= static_cast<uint64_t>(static_cast<unsigned char>(in[off + i]))
          << (8 * i);
  }
  return true;
}

std::string EncodeSubscribePayload(const storage::WalPoint& point,
                                   uint32_t crc) {
  std::string out;
  PutU64(&out, point.generation);
  PutU64(&out, point.records);
  PutU64(&out, point.bytes);
  PutU32(&out, crc);
  return out;
}

bool DecodeSubscribePayload(const std::string& payload,
                            storage::WalPoint* point, uint32_t* crc) {
  return GetU64(payload, 0, &point->generation) &&
         GetU64(payload, 8, &point->records) &&
         GetU64(payload, 16, &point->bytes) && GetU32(payload, 24, crc) &&
         payload.size() == 28;
}

std::string EncodePosition(uint64_t gen, uint64_t records) {
  std::string out;
  PutU64(&out, gen);
  PutU64(&out, records);
  return out;
}

bool DecodePosition(const std::string& payload, uint64_t* gen,
                    uint64_t* records) {
  return GetU64(payload, 0, gen) && GetU64(payload, 8, records) &&
         payload.size() == 16;
}

std::string EncodeBundle(const storage::BootstrapBundle& bundle) {
  const std::string* images[] = {&bundle.snapshot, &bundle.wal,
                                 &bundle.dedup};
  std::string out;
  PutU64(&out, bundle.generation);
  PutU64(&out, bundle.wal_records);
  for (const std::string* image : images) PutU64(&out, image->size());
  for (const std::string* image : images) out += *image;
  return out;
}

bool DecodeBundle(const std::string& blob,
                  storage::BootstrapBundle* bundle) {
  std::string* images[] = {&bundle->snapshot, &bundle->wal, &bundle->dedup};
  if (!GetU64(blob, 0, &bundle->generation) ||
      !GetU64(blob, 8, &bundle->wal_records)) {
    return false;
  }
  size_t off = 40;  // two u64 positions + three u64 lengths
  for (size_t i = 0; i < 3; ++i) {
    // Checked against what is left, so a hostile length cannot wrap.
    uint64_t len = 0;
    if (!GetU64(blob, 16 + 8 * i, &len) || off > blob.size() ||
        len > blob.size() - off) {
      return false;
    }
    *images[i] = blob.substr(off, len);
    off += len;
  }
  return off == blob.size();
}

uint64_t ReplicationHub::Register() {
  std::lock_guard<std::mutex> lock(mu_);
  ever_.store(true, std::memory_order_relaxed);
  const uint64_t id = ++next_id_;
  subs_[id] = Sub{};
  return id;
}

void ReplicationHub::Unregister(uint64_t id) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    subs_.erase(id);
  }
  // A semi-sync waiter must re-evaluate: with the laggard gone its
  // commit may now be "replicated everywhere live" — or hopeless.
  cv_.notify_all();
}

void ReplicationHub::UpdateAck(uint64_t id, uint64_t gen,
                               uint64_t records) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = subs_.find(id);
    if (it == subs_.end()) return;
    it->second.gen = gen;
    it->second.records = records;
  }
  cv_.notify_all();
}

bool ReplicationHub::WaitReplicated(uint64_t gen, uint64_t records,
                                    int timeout_ms) {
  const auto deadline =
      Clock::now() + std::chrono::milliseconds(timeout_ms);
  std::unique_lock<std::mutex> lock(mu_);
  auto caught_up = [&]() {
    for (const auto& [id, sub] : subs_) {
      (void)id;
      if (sub.gen > gen) continue;  // past the rotation that ate `gen`
      if (sub.gen == gen && sub.records >= records) continue;
      return false;
    }
    return true;
  };
  while (true) {
    if (subs_.empty()) return false;  // nobody to replicate to
    if (caught_up()) return true;
    if (cv_.wait_until(lock, deadline) == std::cv_status::timeout) {
      return subs_.empty() ? false : caught_up();
    }
  }
}

int ReplicationHub::live_subscribers() const {
  std::lock_guard<std::mutex> lock(mu_);
  return static_cast<int>(subs_.size());
}

Status ReplicationSource::SendBundle(int fd, const IoOptions& io,
                                     const storage::BootstrapBundle& bundle) {
  static obs::Counter& bootstraps = obs::MetricsRegistry::Global().GetCounter(
      "xsql.repl.snapshot_bootstraps");
  static obs::Counter& shipped_bytes =
      obs::MetricsRegistry::Global().GetCounter("xsql.repl.shipped_bytes");
  const std::string blob = EncodeBundle(bundle);
  for (uint64_t off = 0; off < blob.size(); off += kChunkBytes) {
    XSQL_RETURN_IF_ERROR(
        WriteAll(fd,
                 EncodeFrame(MsgType::kSnapshotChunk,
                             blob.substr(off, kChunkBytes)),
                 io));
  }
  XSQL_RETURN_IF_ERROR(WriteAll(
      fd,
      EncodeFrame(MsgType::kSnapshotDone,
                  EncodePosition(bundle.generation, bundle.wal_records)),
      io));
  bootstraps.Inc();
  shipped_bytes.Inc(blob.size());
  return Status::OK();
}

void ReplicationSource::Serve(int fd, const IoOptions& io,
                              const std::string& subscribe_payload,
                              const std::atomic<bool>* stop) {
  static obs::Counter& shipped_records =
      obs::MetricsRegistry::Global().GetCounter("xsql.repl.shipped_records");
  static obs::Counter& shipped_bytes =
      obs::MetricsRegistry::Global().GetCounter("xsql.repl.shipped_bytes");
  static obs::Gauge& lag_records =
      obs::MetricsRegistry::Global().GetGauge("xsql.repl.lag_records");
  static obs::Gauge& subscribers =
      obs::MetricsRegistry::Global().GetGauge("xsql.repl.subscribers");

  storage::WalPoint sub{};
  uint32_t sub_crc = 0;
  if (!DecodeSubscribePayload(subscribe_payload, &sub, &sub_crc)) {
    (void)WriteAll(fd,
                   EncodeFrame(MsgType::kError,
                               "InvalidArgument: malformed subscribe "
                               "position"),
                   io);
    return;
  }

  storage::DurableDatabase& dd = cm_->durable();
  const uint64_t id = hub_->Register();
  subscribers.Set(hub_->live_subscribers());
  uint64_t pinned = 0;
  auto unpin = [&] {
    if (pinned != 0) {
      dd.UnpinGeneration(pinned);
      pinned = 0;
    }
  };

  // Replication traffic uses its own fault-injection site, so a chaos
  // sweep can break the client path while the ship path lives (or vice
  // versa).
  IoOptions rio = io;
  rio.site = "repl";

  // The position being shipped from, and a tailer bound to that
  // generation's WAL file.
  uint64_t gen = 0, records = 0, bytes = 0;
  storage::WalTailer tailer;

  // Bootstrap the subscriber from a fresh bundle (also the re-sync
  // path after a generation rotation).
  auto bootstrap = [&]() -> Status {
    unpin();
    Result<storage::BootstrapBundle> bundle = cm_->BuildBootstrapBundle();
    if (!bundle.ok()) return bundle.status();
    pinned = bundle->generation;  // ReadBootstrapBundle pinned it
    XSQL_RETURN_IF_ERROR(SendBundle(fd, rio, *bundle));
    gen = bundle->generation;
    records = bundle->wal_records;
    bytes = bundle->wal.size();
    Result<storage::WalTailer> t = storage::WalTailer::Open(
        storage::DurableDatabase::WalPath(dd.dir(), gen));
    if (!t.ok()) return t.status();
    tailer = std::move(*t);
    return tailer.SkipRecords(records, bytes);
  };

  // Grant incremental resume only on *proof* of shared history: same
  // generation, a byte range within our durable WAL, and a CRC match
  // on our own prefix — a diverged replica (e.g. one that was briefly
  // promoted and took writes) fails the CRC and gets re-bootstrapped.
  Status init = Status::OK();
  bool incremental = false;
  if (sub.generation != 0 && sub.bytes >= kWalMagicLen) {
    dd.PinGeneration(sub.generation);
    pinned = sub.generation;
    const storage::WalPoint point = dd.DurableWalPoint();
    if (sub.generation == point.generation && sub.bytes <= point.bytes &&
        sub.records <= point.records) {
      Result<std::string> prefix = storage::File::ReadRange(
          storage::DurableDatabase::WalPath(dd.dir(), sub.generation), 0,
          sub.bytes);
      if (prefix.ok() && prefix->size() == sub.bytes &&
          Crc32(*prefix) == sub_crc) {
        Result<storage::WalTailer> t = storage::WalTailer::Open(
            storage::DurableDatabase::WalPath(dd.dir(), sub.generation));
        if (t.ok()) {
          init = t->SkipRecords(sub.records, sub.bytes);
          if (init.ok()) {
            tailer = std::move(*t);
            gen = sub.generation;
            records = sub.records;
            bytes = sub.bytes;
            incremental = true;
          }
        }
      }
    }
    if (!incremental) unpin();
  }
  if (!incremental && init.ok()) init = bootstrap();

  auto last_sent = Clock::now();
  Status st = init;
  while (st.ok()) {
    if (stop != nullptr && stop->load(std::memory_order_relaxed)) break;
    if (dd.wedged()) break;  // this node is "dead"; the stream dies too

    // Drain acks without blocking the ship direction.
    struct pollfd pfd;
    pfd.fd = fd;
    pfd.events = POLLIN;
    pfd.revents = 0;
    bool peer_gone = false;
    while (poll(&pfd, 1, 0) > 0 &&
           (pfd.revents & (POLLIN | POLLHUP | POLLERR)) != 0) {
      IoOptions ack_io = rio;
      ack_io.idle_timeout_ms = 1000;  // bytes are already waiting
      Result<Frame> f = ReadFrame(fd, ack_io);
      if (!f.ok()) {
        peer_gone = true;
        break;
      }
      uint64_t agen = 0, arecords = 0;
      if (f->type == MsgType::kAck &&
          DecodePosition(f->payload, &agen, &arecords)) {
        hub_->UpdateAck(id, agen, arecords);
        if (agen == gen) {
          lag_records.Set(static_cast<int64_t>(records) -
                          static_cast<int64_t>(arecords));
        }
      }
      pfd.revents = 0;
    }
    if (peer_gone) break;

    const storage::WalPoint point = dd.DurableWalPoint();
    if (point.generation != gen) {
      // A checkpoint rotated the generation mid-stream: re-sync the
      // subscriber with a fresh bundle on this same connection.
      st = bootstrap();
      last_sent = Clock::now();
      continue;
    }
    if (point.bytes > bytes) {
      std::string raw;
      std::vector<std::string> payloads;
      st = tailer.Poll(point.bytes, kMaxBatchBytes, &raw, &payloads);
      if (!st.ok()) break;
      if (!payloads.empty()) {
        std::string payload;
        PutU64(&payload, records);  // replica must be at this count
        payload += raw;
        st = WriteAll(fd, EncodeFrame(MsgType::kWalBatch, payload), rio);
        if (!st.ok()) break;
        records += payloads.size();
        bytes = tailer.offset();
        shipped_records.Inc(payloads.size());
        shipped_bytes.Inc(raw.size());
        last_sent = Clock::now();
        continue;  // there may be more ready right now
      }
    }
    if (Clock::now() - last_sent >= kHeartbeatEvery) {
      st = WriteAll(fd,
                    EncodeFrame(MsgType::kHeartbeat,
                                EncodePosition(gen, records)),
                    rio);
      last_sent = Clock::now();
      continue;
    }
    std::this_thread::sleep_for(kShipPollSlice);
  }

  unpin();
  hub_->Unregister(id);
  subscribers.Set(hub_->live_subscribers());
}

}  // namespace server
}  // namespace xsql
