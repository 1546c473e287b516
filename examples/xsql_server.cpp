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
#include <cerrno>
#include <climits>
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

/// Parses `text` as a base-10 integer in [lo, hi] into `*out`. False
/// (and `*out` untouched) unless the whole string is one such number,
/// so `--port abc` or `--deadline-ms -5` never starts a server.
template <typename T>
bool ParseInt(const char* text, long long lo, long long hi, T* out) {
  if (text == nullptr) return false;
  errno = 0;
  char* end = nullptr;
  const long long value = std::strtoll(text, &end, 10);
  if (end == text || *end != '\0' || errno == ERANGE || value < lo ||
      value > hi) {
    return false;
  }
  *out = static_cast<T>(value);
  return true;
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
  std::string replicate_host;
  int replicate_port = 0;
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
      if (!ParseInt(next(), 0, 65535, &options.port)) {
        return Usage(argv[0]), 1;
      }
    } else if (arg == "--max-connections") {
      if (!ParseInt(next(), 1, INT_MAX, &options.max_connections)) {
        return Usage(argv[0]), 1;
      }
    } else if (arg == "--checkpoint-every") {
      if (!ParseInt(next(), 0, INT_MAX, &options.checkpoint_every)) {
        return Usage(argv[0]), 1;
      }
    } else if (arg == "--deadline-ms") {
      if (!ParseInt(next(), 0, INT_MAX,
                    &options.session.limits.deadline_ms)) {
        return Usage(argv[0]), 1;
      }
    } else if (arg == "--max-inflight") {
      if (!ParseInt(next(), 0, INT_MAX, &options.max_inflight_statements)) {
        return Usage(argv[0]), 1;
      }
    } else if (arg == "--idle-timeout-ms") {
      if (!ParseInt(next(), 0, INT_MAX, &options.idle_timeout_ms)) {
        return Usage(argv[0]), 1;
      }
    } else if (arg == "--io-timeout-ms") {
      if (!ParseInt(next(), 0, INT_MAX, &options.io_timeout_ms)) {
        return Usage(argv[0]), 1;
      }
    } else if (arg == "--retry-after-ms") {
      if (!ParseInt(next(), 0, INT_MAX, &options.retry_after_hint_ms)) {
        return Usage(argv[0]), 1;
      }
    } else if (arg == "--replicate-from") {
      const char* v = next();
      if (!v) return Usage(argv[0]), 1;
      replicate_from = v;
      const size_t colon = replicate_from.rfind(':');
      if (colon == std::string::npos ||
          !ParseInt(replicate_from.c_str() + colon + 1, 1, 65535,
                    &replicate_port)) {
        std::fprintf(stderr, "--replicate-from wants HOST:PORT, got %s\n",
                     v);
        return Usage(argv[0]), 1;
      }
      replicate_host = replicate_from.substr(0, colon);
    } else if (arg == "--sync-repl") {
      sync_repl = true;
    } else if (arg == "--retain") {
      if (!ParseInt(next(), 1, INT_MAX, &retain)) return Usage(argv[0]), 1;
    } else if (arg == "--promote") {
      if (!ParseInt(next(), 1, 65535, &promote_port)) {
        return Usage(argv[0]), 1;
      }
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
    xsql::server::ReplicaOptions ropts;
    ropts.dir = dir;
    ropts.primary_host = replicate_host;
    ropts.primary_port = replicate_port;
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
