// A line-oriented REPL over the XSQL wire protocol — the network twin
// of xsql_shell, built on the exactly-once RetryingClient: statements
// are stamped with (client uuid, seq) and retried with backoff across
// timeouts, resets, and even a mid-session server restart, without
// ever applying a mutation twice.
//
//   $ ./xsql_client --port 7788
//   xsql(127.0.0.1:7788)> SELECT T WHERE mary.Salary[T]
//   T
//   100
//   (1 rows)
//   xsql(127.0.0.1:7788)> .quit
//
// When the server goes away mid-session the REPL prints a one-line
// notice ("[xsql] connection lost ...; retrying") and keeps the
// session: the next statement reconnects transparently.
//
// With --execute "<stmt>" it runs one statement non-interactively and
// exits (used by ci.sh for the localhost smoke test).
#include <cerrno>
#include <climits>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <string>

#include "server/client.h"

namespace {

void Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--host H] [--port N] [--timeout-ms N] "
               "[--retries N] [--execute <stmt>]\n",
               argv0);
}

/// Parses `text` as a base-10 integer in [lo, hi] into `*out`. False
/// (and `*out` untouched) unless the whole string is one such number.
bool ParseInt(const char* text, long long lo, long long hi, int* out) {
  if (text == nullptr) return false;
  errno = 0;
  char* end = nullptr;
  const long long value = std::strtoll(text, &end, 10);
  if (end == text || *end != '\0' || errno == ERANGE || value < lo ||
      value > hi) {
    return false;
  }
  *out = static_cast<int>(value);
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  xsql::server::RetryingClientOptions options;
  options.port = 7788;
  std::string one_shot;
  bool have_one_shot = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    if (arg == "--host") {
      const char* v = next();
      if (!v) return Usage(argv[0]), 1;
      options.host = v;
    } else if (arg == "--port") {
      if (!ParseInt(next(), 1, 65535, &options.port)) {
        return Usage(argv[0]), 1;
      }
    } else if (arg == "--timeout-ms") {
      if (!ParseInt(next(), 0, INT_MAX, &options.timeout_ms)) {
        return Usage(argv[0]), 1;
      }
    } else if (arg == "--retries") {
      if (!ParseInt(next(), 0, INT_MAX, &options.max_retries)) {
        return Usage(argv[0]), 1;
      }
    } else if (arg == "--execute" || arg == "-e") {
      const char* v = next();
      if (!v) return Usage(argv[0]), 1;
      one_shot = v;
      have_one_shot = true;
    } else {
      Usage(argv[0]);
      return 1;
    }
  }
  options.on_event = [](const std::string& line) {
    std::printf("[xsql] %s\n", line.c_str());
    std::fflush(stdout);
  };

  xsql::server::RetryingClient client(options);

  if (have_one_shot) {
    auto out = client.Execute(one_shot);
    if (!out.ok()) {
      std::fprintf(stderr, "error: %s\n",
                   out.status().ToString().c_str());
      return 1;
    }
    std::printf("%s", out->c_str());
    client.Close();
    return 0;
  }

  std::printf("connected to %s:%d — statements end at end-of-line; "
              ".ping, .quit\n",
              options.host.c_str(), options.port);
  std::string line;
  while (true) {
    std::printf("xsql(%s:%d)> ", options.host.c_str(), options.port);
    std::fflush(stdout);
    if (!std::getline(std::cin, line)) break;
    if (line.empty()) continue;
    if (line == ".quit" || line == ".q") break;
    if (line == ".ping") {
      // A one-shot probe, deliberately unretried: .ping answers "is
      // the server up right now", not "can it eventually be reached".
      auto conn = xsql::server::Client::Connect(options.host,
                                                options.port);
      if (!conn.ok()) {
        std::printf("down: %s\n", conn.status().ToString().c_str());
        continue;
      }
      conn->set_timeout_ms(options.timeout_ms);
      auto pong = conn->Ping();
      std::printf("%s\n", pong.ok() ? pong->c_str()
                                    : pong.status().ToString().c_str());
      continue;
    }
    auto out = client.Execute(line);
    if (!out.ok()) {
      std::printf("error: %s\n", out.status().ToString().c_str());
      continue;
    }
    std::printf("%s", out->c_str());
  }
  client.Close();
  return 0;
}
