// The TCP layer end to end over localhost: wire-frame encoding, the
// request/reply protocol (execute, ping, quit, errors), concurrent
// clients sharing one database, the connection cap, and graceful
// shutdown draining in-flight statements. Run under TSan by ci.sh.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <string.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/fault.h"
#include "server/client.h"
#include "server/server.h"
#include "server/wire.h"
#include "storage/recovery.h"
#include "storage/snapshot.h"

namespace xsql {
namespace server {
namespace {

using storage::DurableDatabase;

class ServerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    const auto* info =
        ::testing::UnitTest::GetInstance()->current_test_info();
    dir_ = ::testing::TempDir() + "/xsql_server_" + info->name();
    std::filesystem::remove_all(dir_);
    auto dd = DurableDatabase::Open(dir_);
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
  }

  void TearDown() override {
    server_.reset();  // Shutdown before the database goes away
    dd_.reset();
    FaultInjector::Global().Disarm();
    std::filesystem::remove_all(dir_);
  }

  void StartServer(ServerOptions options = {}) {
    auto server = Server::Start(dd_.get(), std::move(options));
    ASSERT_TRUE(server.ok()) << server.status().ToString();
    server_ = std::move(*server);
    ASSERT_GT(server_->port(), 0);
  }

  Client MustConnect() {
    auto client = Client::Connect("127.0.0.1", server_->port());
    EXPECT_TRUE(client.ok()) << client.status().ToString();
    return client.ok() ? std::move(*client) : Client();
  }

  std::string dir_;
  std::unique_ptr<DurableDatabase> dd_;
  std::unique_ptr<Server> server_;
};

TEST(WireTest, FrameRoundTripShape) {
  std::string frame = EncodeFrame(MsgType::kExecute, "SELECT");
  // [len=7 LE][type][payload]
  ASSERT_EQ(frame.size(), 4u + 1u + 6u);
  EXPECT_EQ(static_cast<unsigned char>(frame[0]), 7u);
  EXPECT_EQ(static_cast<unsigned char>(frame[4]),
            static_cast<unsigned char>(MsgType::kExecute));
  EXPECT_EQ(frame.substr(5), "SELECT");
}

TEST_F(ServerTest, PingAndQuit) {
  StartServer();
  Client client = MustConnect();
  auto pong = client.Ping();
  ASSERT_TRUE(pong.ok()) << pong.status().ToString();
  EXPECT_EQ(*pong, "pong");
  EXPECT_TRUE(client.Quit().ok());
  EXPECT_FALSE(client.connected());
}

TEST_F(ServerTest, ExecuteOverTheWire) {
  StartServer();
  Client client = MustConnect();
  auto out = client.Execute("SELECT T WHERE mary.Name[T]");
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  EXPECT_NE(out->find("mary"), std::string::npos) << *out;
  EXPECT_NE(out->find("(1 rows)"), std::string::npos) << *out;

  // A mutation over the wire is durable before the reply frame lands.
  ASSERT_TRUE(client.Execute("UPDATE CLASS Person SET mary.Salary = 777")
                  .ok());
  auto reopened = DurableDatabase::Open(dir_);
  ASSERT_TRUE(reopened.ok());
  EXPECT_EQ(storage::SaveSnapshot((*reopened)->db()),
            storage::SaveSnapshot(dd_->db()));
}

TEST_F(ServerTest, RemoteErrorsCarryTheStatus) {
  StartServer();
  Client client = MustConnect();
  auto out = client.Execute("SELECT FROM WHERE");
  ASSERT_FALSE(out.ok());
  // The remote status text travels in the error frame.
  EXPECT_NE(out.status().message().find("ParseError"), std::string::npos)
      << out.status().ToString();
  // The connection survives an error.
  EXPECT_TRUE(client.Ping().ok());
}

TEST_F(ServerTest, OutOfRangeLiteralIsAnErrorNotACrash) {
  // The server lexes every statement to classify it, so a literal the
  // lexer cannot represent used to abort the whole process.
  StartServer();
  Client client = MustConnect();
  for (const char* stmt :
       {"SELECT X WHERE 99999999999999999999[X]",
        "UPDATE CLASS Person SET mary.Salary = 99999999999999999999"}) {
    auto out = client.Execute(stmt);
    ASSERT_FALSE(out.ok()) << stmt;
    EXPECT_NE(out.status().message().find("ParseError"), std::string::npos)
        << out.status().ToString();
  }
  // The server keeps serving, on this connection and on a new one.
  EXPECT_TRUE(client.Ping().ok());
  Client other = MustConnect();
  auto out = other.Execute("SELECT S WHERE mary.Salary[S]");
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  EXPECT_NE(out->find("100"), std::string::npos) << *out;
}

TEST_F(ServerTest, ConcurrentClientsShareOneDatabase) {
  constexpr int kClients = 4;
  constexpr int kStatements = 20;
  StartServer();
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kClients; ++t) {
    threads.emplace_back([&, t] {
      auto client = Client::Connect("127.0.0.1", server_->port());
      if (!client.ok()) {
        failures.fetch_add(1);
        return;
      }
      for (int i = 0; i < kStatements; ++i) {
        Result<std::string> out =
            (i % 4 == 0)
                ? client->Execute("UPDATE CLASS Person SET q" +
                                  std::to_string(t) + "_" +
                                  std::to_string(i) + ".Salary = 1")
                : client->Execute(
                      "SELECT T WHERE mary.Salary[T]");
        if (!out.ok()) failures.fetch_add(1);
      }
      (void)client->Quit();
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_GE(server_->connections_served(), static_cast<uint64_t>(kClients));

  // Everything the clients were told succeeded is really on disk.
  server_.reset();
  auto reopened = DurableDatabase::Open(dir_);
  ASSERT_TRUE(reopened.ok());
  EXPECT_EQ(storage::SaveSnapshot((*reopened)->db()),
            storage::SaveSnapshot(dd_->db()));
}

TEST_F(ServerTest, ConnectionCapRejectsLoudly) {
  ServerOptions options;
  options.max_connections = 1;
  StartServer(options);
  Client first = MustConnect();
  ASSERT_TRUE(first.Ping().ok());  // the slot is definitely taken
  // Second connection: the listener accepts just long enough to push a
  // kUnavailable frame (with the retry-after hint) and close. Read it
  // with a raw socket and no preceding write — writing first could
  // race the server's close into a TCP reset that eats the frame.
  int fd = socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  struct sockaddr_in addr;
  memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<uint16_t>(server_->port()));
  ASSERT_EQ(connect(fd, reinterpret_cast<struct sockaddr*>(&addr),
                    sizeof(addr)),
            0);
  // A bounded read: a regression that never sends the frame fails here
  // instead of hanging the suite.
  IoOptions io;
  io.idle_timeout_ms = 5000;
  auto frame = ReadFrame(fd, io);
  close(fd);
  ASSERT_TRUE(frame.ok()) << frame.status().ToString();
  EXPECT_EQ(static_cast<int>(frame->type),
            static_cast<int>(MsgType::kUnavailable));
  EXPECT_NE(frame->payload.find("capacity"), std::string::npos)
      << frame->payload;
  // The payload leads with a parseable retry-after hint.
  EXPECT_GT(ParseRetryAfterHint(frame->payload), 0) << frame->payload;
}

TEST_F(ServerTest, GracefulShutdownDrainsInFlight) {
  StartServer();
  Client client = MustConnect();
  ASSERT_TRUE(client.Ping().ok());
  // Shutdown with a connection parked mid-protocol: must not hang.
  server_->Shutdown();
  // The server is gone; the next round trip fails cleanly.
  EXPECT_FALSE(client.Ping().ok());
  // Shutdown is idempotent.
  server_->Shutdown();
}

TEST_F(ServerTest, PerConnectionDeadlineTripsOnTheWire) {
  ServerOptions options;
  options.session.limits.deadline_ms = 1;
  options.session.limits.max_steps = 1;  // trip fast and deterministically
  StartServer(options);
  Client client = MustConnect();
  auto out = client.Execute(
      "SELECT T WHERE mary.Name[T] AND mary.Salary[S]");
  ASSERT_FALSE(out.ok());
  EXPECT_NE(out.status().message().find("guard"), std::string::npos)
      << out.status().ToString();
}

}  // namespace
}  // namespace server
}  // namespace xsql
