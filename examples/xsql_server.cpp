// The XSQL network server — serves a durable database directory over
// the length-prefixed TCP wire protocol (see docs/SERVER.md).
//
//   $ ./xsql_server --dir /tmp/mydb --port 7788
//   xsql server: dir=/tmp/mydb port=7788 max_connections=32
//   (Ctrl-C or SIGTERM for graceful shutdown)
//
// Replication (docs/SERVER.md "Replication"):
//
//   # start as a replica:
//   $ ./xsql_server --dir /tmp/replica --port 7789 --replicate-from 127.0.0.1:7788
//   $ ./xsql_server --promote 7789            # make it the new primary
//
// Connect with ./xsql_client or anything speaking the wire protocol.
// Every mutation is group-committed to the WAL before its reply frame
// is sent; concurrent readers run latch-free on MVCC snapshots.
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "server/client.h"
#include "server/replica.h"
#include "server/server.h"
#include "storage/recovery.h"

namespace {

volatile std::sig_atomic_t g_stop = 0;

void HandleSignal(int) { g_stop = 1; }

void Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --dir <path> [--port N] [--max-connections N] "
               "[--checkpoint-every N] [--deadline-ms N]\n"
               "          [--max-inflight N] [--idle-timeout-ms N] "
               "[--io-timeout-ms N] [--retry-after-ms N]\n"
               "          [--replicate-from HOST:PORT] [--sync-repl] "
               "[--retain N]\n"
               "       %s --promote PORT\n",
               argv0, argv0);
}

void WaitForSignal() {
  std::signal(SIGINT, HandleSignal);
  std::signal(SIGTERM, HandleSignal);
  while (!g_stop) {
    struct timespec ts = {0, 100 * 1000 * 1000};
    nanosleep(&ts, nullptr);
  }
}

/// `--promote PORT`: sends the kPromote admin frame to a local replica
/// and prints its verdict. Exit 0 only if the node accepted.
int Promote(int port) {
  auto conn = xsql::server::Client::Connect("127.0.0.1", port);
  if (!conn.ok()) {
    std::fprintf(stderr, "connect 127.0.0.1:%d: %s\n", port,
                 conn.status().ToString().c_str());
    return 1;
  }
  conn->set_timeout_ms(5000);
  auto reply = conn->Transact(xsql::server::MsgType::kPromote, "");
  if (!reply.ok()) {
    std::fprintf(stderr, "promote: %s\n",
                 reply.status().ToString().c_str());
    return 1;
  }
  if (reply->type != xsql::server::MsgType::kResult) {
    std::fprintf(stderr, "promote refused: %s\n", reply->payload.c_str());
    return 1;
  }
  std::printf("%s\n", reply->payload.c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::string dir;
  std::string replicate_from;
  int promote_port = 0;
  int retain = 0;
  bool sync_repl = false;
  xsql::server::ServerOptions options;
  options.port = 7788;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    if (arg == "--dir") {
      const char* v = next();
      if (!v) return Usage(argv[0]), 1;
      dir = v;
    } else if (arg == "--port") {
      const char* v = next();
      if (!v) return Usage(argv[0]), 1;
      options.port = std::atoi(v);
    } else if (arg == "--max-connections") {
      const char* v = next();
      if (!v) return Usage(argv[0]), 1;
      options.max_connections = std::atoi(v);
    } else if (arg == "--checkpoint-every") {
      const char* v = next();
      if (!v) return Usage(argv[0]), 1;
      options.checkpoint_every =
          static_cast<uint64_t>(std::atoll(v));
    } else if (arg == "--deadline-ms") {
      const char* v = next();
      if (!v) return Usage(argv[0]), 1;
      options.session.limits.deadline_ms =
          static_cast<uint64_t>(std::atoll(v));
    } else if (arg == "--max-inflight") {
      const char* v = next();
      if (!v) return Usage(argv[0]), 1;
      options.max_inflight_statements = std::atoi(v);
    } else if (arg == "--idle-timeout-ms") {
      const char* v = next();
      if (!v) return Usage(argv[0]), 1;
      options.idle_timeout_ms = std::atoi(v);
    } else if (arg == "--io-timeout-ms") {
      const char* v = next();
      if (!v) return Usage(argv[0]), 1;
      options.io_timeout_ms = std::atoi(v);
    } else if (arg == "--retry-after-ms") {
      const char* v = next();
      if (!v) return Usage(argv[0]), 1;
      options.retry_after_hint_ms = std::atoi(v);
    } else if (arg == "--replicate-from") {
      const char* v = next();
      if (!v) return Usage(argv[0]), 1;
      replicate_from = v;
    } else if (arg == "--sync-repl") {
      sync_repl = true;
    } else if (arg == "--retain") {
      const char* v = next();
      if (!v) return Usage(argv[0]), 1;
      retain = std::atoi(v);
    } else if (arg == "--promote") {
      const char* v = next();
      if (!v) return Usage(argv[0]), 1;
      promote_port = std::atoi(v);
    } else {
      Usage(argv[0]);
      return 1;
    }
  }
  if (promote_port != 0) return Promote(promote_port);
  if (dir.empty()) {
    Usage(argv[0]);
    return 1;
  }

  if (!replicate_from.empty()) {
    // Replica mode: subscribe to the primary, serve reads, accept a
    // later --promote.
    const size_t colon = replicate_from.rfind(':');
    if (colon == std::string::npos) {
      std::fprintf(stderr, "--replicate-from wants HOST:PORT, got %s\n",
                   replicate_from.c_str());
      return 1;
    }
    xsql::server::ReplicaOptions ropts;
    ropts.dir = dir;
    ropts.primary_host = replicate_from.substr(0, colon);
    ropts.primary_port = std::atoi(replicate_from.c_str() + colon + 1);
    ropts.server = options;
    if (retain > 0) ropts.durable.retain_generations = retain;
    auto node = xsql::server::ReplicaNode::Start(std::move(ropts));
    if (!node.ok()) {
      std::fprintf(stderr, "replica start: %s\n",
                   node.status().ToString().c_str());
      return 1;
    }
    std::printf("xsql replica: dir=%s port=%d primary=%s\n", dir.c_str(),
                (*node)->port(), replicate_from.c_str());
    std::printf("(Ctrl-C or SIGTERM for graceful shutdown; "
                "--promote %d to take over)\n",
                (*node)->port());
    std::fflush(stdout);
    WaitForSignal();
    std::printf("shutting down replica (applied %llu records)...\n",
                static_cast<unsigned long long>((*node)->applied_records()));
    (*node)->Shutdown();
    std::printf("bye\n");
    return 0;
  }

  xsql::storage::DurableOptions dopts;
  if (retain > 0) dopts.retain_generations = retain;
  auto dd = xsql::storage::DurableDatabase::Open(dir, dopts);
  if (!dd.ok()) {
    std::fprintf(stderr, "open %s: %s\n", dir.c_str(),
                 dd.status().ToString().c_str());
    return 1;
  }

  options.sync_replication = sync_repl;
  auto server = xsql::server::Server::Start((*dd).get(), options);
  if (!server.ok()) {
    std::fprintf(stderr, "start: %s\n",
                 server.status().ToString().c_str());
    return 1;
  }
  std::printf("xsql server: dir=%s port=%d max_connections=%d%s\n",
              dir.c_str(), (*server)->port(), options.max_connections,
              sync_repl ? " sync-repl=on" : "");
  std::printf("(Ctrl-C or SIGTERM for graceful shutdown)\n");
  std::fflush(stdout);

  WaitForSignal();

  std::printf("shutting down: draining %llu connections served...\n",
              static_cast<unsigned long long>(
                  (*server)->connections_served()));
  (*server)->Shutdown();
  std::printf("bye\n");
  return 0;
}
