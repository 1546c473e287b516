// Primary → replica replication end to end: the subscribe/bootstrap/
// ship protocol codecs, the hub's semi-sync accounting, WAL tailing,
// streaming a live primary into a ReplicaNode (byte-prefix invariant),
// read-only serving with a write redirect, mid-stream re-bootstrap on
// checkpoint rotation, controlled promotion carrying the dedup table
// (exactly-once across failover), checkpoint-generation retention GC,
// and the SYSTEM STATUS board. Run under TSan by ci.sh.
#include <gtest/gtest.h>

#include <chrono>
#include <filesystem>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/crc32.h"
#include "common/fault.h"
#include "server/client.h"
#include "server/replica.h"
#include "server/replication.h"
#include "server/server.h"
#include "storage/dedup.h"
#include "storage/file.h"
#include "storage/recovery.h"
#include "storage/snapshot.h"
#include "storage/wal.h"

namespace xsql {
namespace server {
namespace {

using storage::BootstrapBundle;
using storage::DurableDatabase;
using storage::DurableOptions;
using storage::File;
using storage::Wal;
using storage::WalPoint;
using storage::WalTailer;

/// Polls `pred` for up to `timeout_ms`; true iff it became true.
bool Eventually(int timeout_ms, const std::function<bool()>& pred) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(timeout_ms);
  while (std::chrono::steady_clock::now() < deadline) {
    if (pred()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  return pred();
}

// ---------------------------------------------------------------------
// Codecs
// ---------------------------------------------------------------------

TEST(ReplicationCodecTest, SubscribePayloadRoundTrip) {
  WalPoint point;
  point.generation = 7;
  point.records = 1234;
  point.bytes = 0xDEADBEEFCAFEull;
  const std::string payload = EncodeSubscribePayload(point, 0xA5A5A5A5u);
  ASSERT_EQ(payload.size(), 28u);
  WalPoint decoded;
  uint32_t crc = 0;
  ASSERT_TRUE(DecodeSubscribePayload(payload, &decoded, &crc));
  EXPECT_EQ(decoded.generation, 7u);
  EXPECT_EQ(decoded.records, 1234u);
  EXPECT_EQ(decoded.bytes, 0xDEADBEEFCAFEull);
  EXPECT_EQ(crc, 0xA5A5A5A5u);
  // Truncated / oversized payloads are rejected, not misread.
  EXPECT_FALSE(DecodeSubscribePayload(payload.substr(1), &decoded, &crc));
  EXPECT_FALSE(DecodeSubscribePayload(payload + "x", &decoded, &crc));
  EXPECT_FALSE(DecodeSubscribePayload("", &decoded, &crc));
}

TEST(ReplicationCodecTest, PositionRoundTrip) {
  const std::string payload = EncodePosition(3, 99);
  ASSERT_EQ(payload.size(), 16u);
  uint64_t gen = 0, records = 0;
  ASSERT_TRUE(DecodePosition(payload, &gen, &records));
  EXPECT_EQ(gen, 3u);
  EXPECT_EQ(records, 99u);
  EXPECT_FALSE(DecodePosition(payload.substr(0, 15), &gen, &records));
}

TEST(ReplicationCodecTest, BundleRoundTrip) {
  BootstrapBundle bundle;
  bundle.generation = 5;
  bundle.wal_records = 42;
  bundle.snapshot = std::string("SNAPSHOT\0WITH NUL", 17);
  bundle.wal = "XSQL-WAL 1\nrecords...";
  bundle.dedup = "";
  const std::string blob = EncodeBundle(bundle);
  BootstrapBundle decoded;
  ASSERT_TRUE(DecodeBundle(blob, &decoded));
  EXPECT_EQ(decoded.generation, 5u);
  EXPECT_EQ(decoded.wal_records, 42u);
  EXPECT_EQ(decoded.snapshot, bundle.snapshot);
  EXPECT_EQ(decoded.wal, bundle.wal);
  EXPECT_EQ(decoded.dedup, bundle.dedup);
  // A blob whose section lengths disagree with its size is rejected.
  EXPECT_FALSE(DecodeBundle(blob.substr(0, blob.size() - 1), &decoded));
  EXPECT_FALSE(DecodeBundle("short", &decoded));
  // Lengths that sum to the blob size only modulo 2^64 are rejected.
  std::string wrapped = blob;
  const uint64_t lens[3] = {~0ull, 1, blob.size() - 40};
  for (size_t i = 0; i < 3; ++i) {
    for (size_t b = 0; b < 8; ++b) {
      wrapped[16 + 8 * i + b] = static_cast<char>(lens[i] >> (8 * b));
    }
  }
  EXPECT_FALSE(DecodeBundle(wrapped, &decoded));
}

// ---------------------------------------------------------------------
// Hub semantics
// ---------------------------------------------------------------------

TEST(ReplicationHubTest, WaitSemantics) {
  ReplicationHub hub;
  // No subscriber: a semi-sync wait degrades immediately.
  EXPECT_FALSE(hub.WaitReplicated(1, 1, 10));
  EXPECT_FALSE(hub.ever_had_subscriber());

  const uint64_t id = hub.Register();
  EXPECT_TRUE(hub.ever_had_subscriber());
  EXPECT_EQ(hub.live_subscribers(), 1);
  // Subscriber behind: the wait times out.
  EXPECT_FALSE(hub.WaitReplicated(1, 5, 20));
  // Ack catches up mid-wait: the wait resolves true.
  std::thread acker([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    hub.UpdateAck(id, 1, 5);
  });
  EXPECT_TRUE(hub.WaitReplicated(1, 5, 2000));
  acker.join();
  // A later generation counts as caught up for any earlier position.
  hub.UpdateAck(id, 2, 0);
  EXPECT_TRUE(hub.WaitReplicated(1, 1000, 10));

  hub.Unregister(id);
  EXPECT_EQ(hub.live_subscribers(), 0);
  EXPECT_FALSE(hub.WaitReplicated(2, 0, 10));
  EXPECT_TRUE(hub.ever_had_subscriber());  // sticky
}

// ---------------------------------------------------------------------
// WAL tailing
// ---------------------------------------------------------------------

TEST(WalTailerTest, PollSkipAndTornTail) {
  const std::string dir = ::testing::TempDir() + "/xsql_tailer";
  std::filesystem::remove_all(dir);
  ASSERT_TRUE(File::EnsureDir(dir).ok());
  const std::string path = dir + "/tail.wal";
  ASSERT_TRUE(Wal::Create(path).ok());
  auto created = Wal::ScanFile(path);
  ASSERT_TRUE(created.ok()) << created.status().ToString();
  auto appender = Wal::OpenAppender(path, created->valid_size);
  ASSERT_TRUE(appender.ok()) << appender.status().ToString();
  for (const char* payload : {"one", "two", "three"}) {
    ASSERT_TRUE(appender->Append(payload).ok());
  }
  const uint64_t durable = appender->synced_size();

  auto tailer = WalTailer::Open(path);
  ASSERT_TRUE(tailer.ok()) << tailer.status().ToString();
  std::string raw;
  std::vector<std::string> payloads;
  ASSERT_TRUE(tailer->Poll(durable, 1 << 20, &raw, &payloads).ok());
  ASSERT_EQ(payloads.size(), 3u);
  EXPECT_EQ(payloads[0], "one");
  EXPECT_EQ(payloads[2], "three");
  EXPECT_EQ(tailer->records(), 3u);
  EXPECT_EQ(tailer->offset(), durable);
  // The raw bytes are exactly the on-disk record region: re-parsing
  // them yields the same payloads (this is what ships in kWalBatch).
  uint64_t consumed = 0;
  std::vector<std::string> reparsed;
  ASSERT_TRUE(Wal::ParseRecords(raw, &consumed, &reparsed).ok());
  EXPECT_EQ(consumed, raw.size());
  EXPECT_EQ(reparsed, payloads);

  // Resume-from-position: a fresh tailer skips the shared prefix.
  auto resumed = WalTailer::Open(path);
  ASSERT_TRUE(resumed.ok());
  ASSERT_TRUE(resumed->SkipRecords(2, durable).ok());
  raw.clear();
  payloads.clear();
  ASSERT_TRUE(resumed->Poll(durable, 1 << 20, &raw, &payloads).ok());
  ASSERT_EQ(payloads.size(), 1u);
  EXPECT_EQ(payloads[0], "three");
  // Skipping past the durable region fails rather than lies.
  auto over = WalTailer::Open(path);
  ASSERT_TRUE(over.ok());
  EXPECT_FALSE(over->SkipRecords(4, durable).ok());

  // A torn tail (durable boundary mid-record) is held back, not shipped.
  std::string image;
  {
    auto all = File::ReadAll(path);
    ASSERT_TRUE(all.ok());
    image = *all;
  }
  auto torn = WalTailer::Open(path);
  ASSERT_TRUE(torn.ok());
  raw.clear();
  payloads.clear();
  ASSERT_TRUE(torn->Poll(image.size() - 3, 1 << 20, &raw, &payloads).ok());
  EXPECT_EQ(payloads.size(), 2u);
  std::filesystem::remove_all(dir);
}

// ---------------------------------------------------------------------
// End-to-end streaming, failover, retention
// ---------------------------------------------------------------------

class ReplicationTest : public ::testing::Test {
 protected:
  void SetUp() override {
    const auto* info =
        ::testing::UnitTest::GetInstance()->current_test_info();
    root_ = ::testing::TempDir() + "/xsql_repl_" + info->name();
    std::filesystem::remove_all(root_);
    std::filesystem::create_directories(root_);
  }

  void TearDown() override {
    node_.reset();
    server_.reset();
    dd_.reset();
    FaultInjector::Global().Disarm();
    std::filesystem::remove_all(root_);
  }

  /// Opens the primary with a small prelude and starts its server.
  void StartPrimary(ServerOptions options = {}) {
    auto dd = DurableDatabase::Open(root_ + "/primary");
    ASSERT_TRUE(dd.ok()) << dd.status().ToString();
    dd_ = std::move(*dd);
    for (const char* stmt :
         {"ALTER CLASS Person ADD SIGNATURE Name => String",
          "ALTER CLASS Person ADD SIGNATURE Salary => Numeral",
          "UPDATE CLASS Person SET mary.Name = 'mary'",
          "UPDATE CLASS Person SET mary.Salary = 100"}) {
      auto out = dd_->Execute(stmt);
      ASSERT_TRUE(out.ok()) << stmt << ": " << out.status().ToString();
    }
    auto server = Server::Start(dd_.get(), std::move(options));
    ASSERT_TRUE(server.ok()) << server.status().ToString();
    server_ = std::move(*server);
  }

  /// Starts a ReplicaNode following the primary and waits for it to
  /// bootstrap and catch up.
  void StartReplica() {
    ReplicaOptions options;
    options.dir = root_ + "/replica";
    options.primary_port = server_->port();
    auto node = ReplicaNode::Start(std::move(options));
    ASSERT_TRUE(node.ok()) << node.status().ToString();
    node_ = std::move(*node);
    ASSERT_TRUE(AwaitCaughtUp()) << "replica never caught up";
  }

  // Polls atomics only: the applier may be replacing the replica's
  // durable database (a re-bootstrap) while this runs.
  bool AwaitCaughtUp(int timeout_ms = 10000) {
    return Eventually(timeout_ms, [&] {
      return node_->applied_records() == dd_->wal_records() &&
             node_->generation() == dd_->generation();
    });
  }

  /// The replica WAL must be a byte-prefix of the primary's (same
  /// generation) — the invariant that makes CRC resume sound.
  void ExpectWalBytePrefix() {
    const uint64_t gen = dd_->generation();
    auto primary = File::ReadAll(
        DurableDatabase::WalPath(root_ + "/primary", gen));
    auto replica = File::ReadAll(
        DurableDatabase::WalPath(root_ + "/replica", gen));
    ASSERT_TRUE(primary.ok()) << primary.status().ToString();
    ASSERT_TRUE(replica.ok()) << replica.status().ToString();
    ASSERT_LE(replica->size(), primary->size());
    EXPECT_EQ(*replica, primary->substr(0, replica->size()));
  }

  std::string root_;
  std::unique_ptr<DurableDatabase> dd_;
  std::unique_ptr<Server> server_;
  std::unique_ptr<ReplicaNode> node_;
};

TEST_F(ReplicationTest, StreamsWritesAndServesReads) {
  StartPrimary();
  StartReplica();
  // The bootstrap carried the prelude: the replica answers reads.
  auto client = Client::Connect("127.0.0.1", node_->port());
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  auto out = client->Execute("SELECT T WHERE mary.Name[T]");
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  EXPECT_NE(out->find("mary"), std::string::npos) << *out;

  // Live writes on the primary ship over and become readable.
  auto primary = Client::Connect("127.0.0.1", server_->port());
  ASSERT_TRUE(primary.ok());
  ASSERT_TRUE(
      primary->Execute("UPDATE CLASS Person SET mary.Salary = 777").ok());
  ASSERT_TRUE(AwaitCaughtUp());
  auto salary = client->Execute("SELECT T WHERE mary.Salary[T]");
  ASSERT_TRUE(salary.ok()) << salary.status().ToString();
  EXPECT_NE(salary->find("777"), std::string::npos) << *salary;

  ExpectWalBytePrefix();
  // Logical states agree once caught up.
  EXPECT_EQ(storage::SaveSnapshot(node_->durable()->db()),
            storage::SaveSnapshot(dd_->db()));
}

TEST_F(ReplicationTest, ReplicaRefusesWritesWithRedirect) {
  StartPrimary();
  StartReplica();
  auto client = Client::Connect("127.0.0.1", node_->port());
  ASSERT_TRUE(client.ok());
  auto out = client->Execute("UPDATE CLASS Person SET mary.Salary = 1");
  ASSERT_FALSE(out.ok());
  EXPECT_EQ(out.status().code(), StatusCode::kUnavailable)
      << out.status().ToString();
  EXPECT_NE(out.status().message().find("read-only replica"),
            std::string::npos)
      << out.status().ToString();
  // The redirect names the primary.
  EXPECT_NE(out.status().message().find(
                std::to_string(server_->port())),
            std::string::npos)
      << out.status().ToString();
  // Reads still work on the same connection.
  EXPECT_TRUE(client->Execute("SELECT T WHERE mary.Name[T]").ok());
}

TEST_F(ReplicationTest, CheckpointRotationRebootstrapsMidStream) {
  StartPrimary();
  StartReplica();
  const uint64_t gen_before = dd_->generation();
  ASSERT_TRUE(server_->manager().Checkpoint().ok());
  ASSERT_EQ(dd_->generation(), gen_before + 1);
  // The source notices the rotation and re-bootstraps the subscriber
  // on the same connection; the replica follows into the new
  // generation.
  ASSERT_TRUE(AwaitCaughtUp());
  EXPECT_EQ(node_->generation(), gen_before + 1);

  // And the stream keeps flowing afterwards.
  auto primary = Client::Connect("127.0.0.1", server_->port());
  ASSERT_TRUE(primary.ok());
  ASSERT_TRUE(
      primary->Execute("UPDATE CLASS Person SET mary.Salary = 42").ok());
  ASSERT_TRUE(AwaitCaughtUp());
  ExpectWalBytePrefix();
  EXPECT_EQ(storage::SaveSnapshot(node_->durable()->db()),
            storage::SaveSnapshot(dd_->db()));
}

TEST_F(ReplicationTest, BootstrapCarriesDefinitionsInTheSnapshot) {
  StartPrimary();
  auto primary = Client::Connect("127.0.0.1", server_->port());
  ASSERT_TRUE(primary.ok()) << primary.status().ToString();
  // Class-objects give the definitions a populated extent.
  for (const char* stmt :
       {"ALTER CLASS Class ADD SIGNATURE Motto => String",
        "UPDATE CLASS Class SET Person.Motto = 'people first'",
        "CREATE VIEW Mottos AS SUBCLASS OF Object SIGNATURE M => String "
        "SELECT M = X.Motto FROM Class X OID FUNCTION OF X WHERE X.Motto[M]",
        "ALTER CLASS Class ADD SIGNATURE Shout => String "
        "SELECT (Shout) = N FROM Class X OID X WHERE X.Motto[N]"}) {
    auto out = primary->Execute(stmt);
    ASSERT_TRUE(out.ok()) << stmt << ": " << out.status().ToString();
  }
  // After the checkpoint the definitions live only in the snapshot:
  // there is no DDL log to ship, and the new generation's WAL holds one
  // plain UPDATE (so AwaitCaughtUp cannot match before the bootstrap).
  ASSERT_TRUE(server_->manager().Checkpoint().ok());
  ASSERT_TRUE(
      primary->Execute("UPDATE CLASS Person SET mary.Salary = 101").ok());
  ASSERT_EQ(dd_->wal_records(), 1u);
  ASSERT_EQ(dd_->db().definitions().size(), 2u);

  StartReplica();
  EXPECT_FALSE(File::Exists(
      DurableDatabase::DdlPath(root_ + "/replica", dd_->generation())));
  EXPECT_EQ(node_->durable()->db().definitions(), dd_->db().definitions());
  EXPECT_EQ(storage::SaveSnapshot(node_->durable()->db()),
            storage::SaveSnapshot(dd_->db()));
  auto client = Client::Connect("127.0.0.1", node_->port());
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  // The view's id-term needs the view definition on the replica.
  auto view = client->Execute("SELECT T FROM Class X WHERE Mottos(X).M[T]");
  ASSERT_TRUE(view.ok()) << view.status().ToString();
  EXPECT_NE(view->find("people first"), std::string::npos) << *view;
  // The method body is executable and exists only by re-installation.
  auto method = client->Execute("SELECT T WHERE Person.Shout[T]");
  ASSERT_TRUE(method.ok()) << method.status().ToString();
  EXPECT_NE(method->find("people first"), std::string::npos) << *method;
}

TEST_F(ReplicationTest, PromotionCarriesDedupForExactlyOnce) {
  ServerOptions options;
  options.sync_replication = true;
  StartPrimary(options);
  StartReplica();

  RetryingClientOptions copts;
  copts.endpoints.push_back({"127.0.0.1", server_->port()});
  copts.endpoints.push_back({"127.0.0.1", node_->port()});
  copts.timeout_ms = 1000;
  copts.max_retries = 20;
  copts.backoff_base_ms = 2;
  copts.backoff_max_ms = 50;
  RetryingClient client(copts);

  const std::string stmt = "UPDATE CLASS Person SET mary.Salary = 555";
  auto acked = client.Execute(stmt);
  ASSERT_TRUE(acked.ok()) << acked.status().ToString();
  const uint64_t seq = client.last_seq();
  ASSERT_TRUE(AwaitCaughtUp());

  // The primary dies (server gone); the replica is promoted.
  server_->Shutdown();
  server_.reset();
  node_->RequestPromote();
  ASSERT_TRUE(node_->AwaitPromoted(10000));
  EXPECT_EQ(node_->server()->role(), ServerRole::kPrimary);

  // Re-driving the acked statement with the SAME (uuid, seq) hits the
  // replicated dedup table: the cached reply comes back and the
  // statement does not execute twice.
  auto replayed = client.ExecuteSeq(seq, stmt);
  ASSERT_TRUE(replayed.ok()) << replayed.status().ToString();
  EXPECT_EQ(*replayed, *acked);
  EXPECT_GE(client.failovers(), 1u);

  auto scan = Wal::ScanFile(DurableDatabase::WalPath(
      root_ + "/replica", node_->durable()->generation()));
  ASSERT_TRUE(scan.ok()) << scan.status().ToString();
  int occurrences = 0;
  for (const std::string& record : scan->records) {
    if (storage::DecodeRidPayload(record).second == stmt) ++occurrences;
  }
  EXPECT_EQ(occurrences, 1);

  // The promoted node now accepts fresh writes.
  auto fresh = client.Execute("UPDATE CLASS Person SET mary.Salary = 556");
  ASSERT_TRUE(fresh.ok()) << fresh.status().ToString();
}

TEST_F(ReplicationTest, SystemStatusReportsRoleAndPositions) {
  StartPrimary();
  StartReplica();
  auto primary = Client::Connect("127.0.0.1", server_->port());
  ASSERT_TRUE(primary.ok());
  ASSERT_TRUE(
      primary->Execute("UPDATE CLASS Person SET mary.Salary = 9").ok());
  ASSERT_TRUE(AwaitCaughtUp());

  auto status = primary->Execute("SYSTEM STATUS");
  ASSERT_TRUE(status.ok()) << status.status().ToString();
  EXPECT_NE(status->find("role"), std::string::npos) << *status;
  EXPECT_NE(status->find("primary"), std::string::npos) << *status;
  EXPECT_NE(status->find("generation"), std::string::npos) << *status;
  EXPECT_NE(status->find("wal_records"), std::string::npos) << *status;
  EXPECT_NE(status->find("dedup_entries"), std::string::npos) << *status;

  auto replica = Client::Connect("127.0.0.1", node_->port());
  ASSERT_TRUE(replica.ok());
  auto rstatus = replica->Execute("SYSTEM STATUS");
  ASSERT_TRUE(rstatus.ok()) << rstatus.status().ToString();
  EXPECT_NE(rstatus->find("replica"), std::string::npos) << *rstatus;
  EXPECT_NE(rstatus->find("repl.applied_records"), std::string::npos)
      << *rstatus;
}

TEST_F(ReplicationTest, SubscribeToReplicaIsRefused) {
  StartPrimary();
  StartReplica();
  auto conn = Client::Connect("127.0.0.1", node_->port());
  ASSERT_TRUE(conn.ok());
  WalPoint fresh;  // empty position: asks for a bootstrap
  auto reply = conn->Transact(MsgType::kSubscribe,
                              EncodeSubscribePayload(fresh, 0));
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  EXPECT_EQ(reply->type, MsgType::kError);
}

TEST_F(ReplicationTest, PromoteOnNonReplicaIsRefused) {
  StartPrimary();
  auto conn = Client::Connect("127.0.0.1", server_->port());
  ASSERT_TRUE(conn.ok());
  auto reply = conn->Transact(MsgType::kPromote, "");
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  EXPECT_EQ(reply->type, MsgType::kError);
}

TEST_F(ReplicationTest, PromoteOverTheWire) {
  StartPrimary();
  StartReplica();
  server_->Shutdown();
  server_.reset();
  auto conn = Client::Connect("127.0.0.1", node_->port());
  ASSERT_TRUE(conn.ok());
  conn->set_timeout_ms(5000);
  auto reply = conn->Transact(MsgType::kPromote, "");
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  EXPECT_EQ(reply->type, MsgType::kResult) << reply->payload;
  ASSERT_TRUE(node_->AwaitPromoted(10000));
  // Writes now land.
  auto out = conn->Execute("UPDATE CLASS Person SET mary.Salary = 3");
  EXPECT_TRUE(out.ok()) << out.status().ToString();
}

// ---------------------------------------------------------------------
// Retention GC
// ---------------------------------------------------------------------

class RetentionTest : public ::testing::Test {
 protected:
  void SetUp() override {
    const auto* info =
        ::testing::UnitTest::GetInstance()->current_test_info();
    dir_ = ::testing::TempDir() + "/xsql_retain_" + info->name();
    std::filesystem::remove_all(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  static void MustExecute(DurableDatabase* dd, const char* stmt) {
    auto out = dd->Execute(stmt);
    ASSERT_TRUE(out.ok()) << stmt << ": " << out.status().ToString();
  }

  std::string dir_;
};

TEST_F(RetentionTest, DefaultKeepsPreviousGenerationThenPrunes) {
  auto dd = DurableDatabase::Open(dir_);  // retain_generations = 2
  ASSERT_TRUE(dd.ok()) << dd.status().ToString();
  MustExecute(dd->get(),
              "ALTER CLASS Person ADD SIGNATURE Salary => Numeral");
  MustExecute(dd->get(), "UPDATE CLASS Person SET mary.Salary = 1");
  ASSERT_TRUE((*dd)->Checkpoint().ok());
  EXPECT_EQ((*dd)->generation(), 2u);
  // Generation 1 survives the first rotation (a replica may still be
  // bootstrapping from it)...
  EXPECT_TRUE(File::Exists(DurableDatabase::SnapshotPath(dir_, 1)));
  EXPECT_TRUE(File::Exists(DurableDatabase::WalPath(dir_, 1)));

  MustExecute(dd->get(), "UPDATE CLASS Person SET mary.Salary = 2");
  ASSERT_TRUE((*dd)->Checkpoint().ok());
  EXPECT_EQ((*dd)->generation(), 3u);
  // ...and is pruned by the second. Generation 2 is now the kept spare.
  EXPECT_FALSE(File::Exists(DurableDatabase::SnapshotPath(dir_, 1)));
  EXPECT_FALSE(File::Exists(DurableDatabase::WalPath(dir_, 1)));
  EXPECT_FALSE(File::Exists(DurableDatabase::DedupPath(dir_, 1)));
  EXPECT_TRUE(File::Exists(DurableDatabase::SnapshotPath(dir_, 2)));
}

TEST_F(RetentionTest, PinnedGenerationSurvivesPruning) {
  auto dd = DurableDatabase::Open(dir_);
  ASSERT_TRUE(dd.ok());
  MustExecute(dd->get(),
              "ALTER CLASS Person ADD SIGNATURE Salary => Numeral");
  (*dd)->PinGeneration(1);  // a subscriber is bootstrapping from gen 1
  for (int i = 0; i < 3; ++i) {
    MustExecute(dd->get(), "UPDATE CLASS Person SET mary.Salary = 7");
    ASSERT_TRUE((*dd)->Checkpoint().ok());
  }
  EXPECT_EQ((*dd)->generation(), 4u);
  EXPECT_TRUE(File::Exists(DurableDatabase::SnapshotPath(dir_, 1)));
  (*dd)->UnpinGeneration(1);
  ASSERT_TRUE((*dd)->PruneStaleGenerations().ok());
  EXPECT_FALSE(File::Exists(DurableDatabase::SnapshotPath(dir_, 1)));
}

TEST_F(RetentionTest, StaleGenerationsLeftByACrashRecoverAndPrune) {
  // A crash between the CURRENT flip and the prune leaves old
  // generation files behind. Recovery must ignore them and the next
  // open (retain 1) must sweep them.
  {
    auto dd = DurableDatabase::Open(dir_);  // retain 2: gen 1 stays
    ASSERT_TRUE(dd.ok());
    MustExecute(dd->get(),
                "ALTER CLASS Person ADD SIGNATURE Salary => Numeral");
    MustExecute(dd->get(), "UPDATE CLASS Person SET mary.Salary = 5");
    ASSERT_TRUE((*dd)->Checkpoint().ok());
    ASSERT_TRUE(File::Exists(DurableDatabase::SnapshotPath(dir_, 1)));
  }
  std::string acked;
  {
    DurableOptions options;
    options.retain_generations = 1;
    auto dd = DurableDatabase::Open(dir_, options);
    ASSERT_TRUE(dd.ok()) << dd.status().ToString();
    EXPECT_EQ((*dd)->generation(), 2u);
    // Open swept the stale generation; state is intact.
    EXPECT_FALSE(File::Exists(DurableDatabase::SnapshotPath(dir_, 1)));
    EXPECT_FALSE(File::Exists(DurableDatabase::WalPath(dir_, 1)));
    auto out = (*dd)->Query("SELECT T WHERE mary.Salary[T]");
    ASSERT_TRUE(out.ok()) << out.status().ToString();
    ASSERT_EQ(out->size(), 1u);
    acked = storage::SaveSnapshot((*dd)->db());
  }
  auto reopened = DurableDatabase::Open(dir_);
  ASSERT_TRUE(reopened.ok());
  EXPECT_EQ(storage::SaveSnapshot((*reopened)->db()), acked);
}

}  // namespace
}  // namespace server
}  // namespace xsql
