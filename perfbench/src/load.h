// The served side of the benchmark: a Figure-1 database behind a real
// server::Server on loopback TCP, and closed-loop RetryingClients that
// drive it and check every reply.
#ifndef PERFBENCH_LOAD_H_
#define PERFBENCH_LOAD_H_

#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "common/status.h"
#include "mix.h"
#include "server/client.h"
#include "server/server.h"
#include "spans.h"
#include "storage/recovery.h"

namespace perfbench {

/// A data directory, the durable database opened on it, a server over
/// that database and one connected client per workload client.
class Deployment {
 public:
  /// Writes `snapshot` as generation 1 of a fresh `dir` (the first
  /// checkpoint), opens it through recovery and starts the server.
  /// `open_s` receives the DurableDatabase::Open time.
  static xsql::Result<std::unique_ptr<Deployment>> Start(
      const std::string& dir, const std::string& snapshot,
      const WorkloadSpec& spec, uint64_t seed, double* open_s);

  ~Deployment() { Stop(); }
  Deployment(const Deployment&) = delete;
  Deployment& operator=(const Deployment&) = delete;

  /// Closes the clients, drains and shuts the server down and closes the
  /// database. The directory stays. Idempotent.
  void Stop();

  const std::string& dir() const { return dir_; }
  xsql::server::Server& server() { return *server_; }
  xsql::server::RetryingClient& client(int i) { return *clients_[i]; }

 private:
  explicit Deployment(std::string dir) : dir_(std::move(dir)) {}

  std::string dir_;
  std::unique_ptr<xsql::storage::DurableDatabase> dd_;
  std::unique_ptr<xsql::server::Server> server_;
  std::vector<std::unique_ptr<xsql::server::RetryingClient>> clients_;
};

/// What one client knows about the answers it should get back. For
/// lookups it tracks the Age of every person it looks up: the generated
/// value until it writes that person, then its last acknowledged write.
struct ClientModel {
  std::map<int, Digest> lookup;
  std::set<int> written;  // persons with an acknowledged write
};

/// One acknowledged statement of the timed phase.
struct Sample {
  StmtClass cls = StmtClass::kQuery;
  int query = -1;  // index into WorkloadSpec::queries (kQuery)
  int person = -1;  // kLookup, kWrite
  int64_t start_ns = 0;
  double ms = 0;
};

struct LoopResult {
  uint64_t attempted = 0;
  uint64_t completed = 0;  // acknowledged replies
  uint64_t failed = 0;     // errors plus wrong answers
  double wall_s = 0;
  // Statements per second and CPU ms per statement in each of a few
  // equal windows of the phase: a burst of host contention moves one
  // window, not the median.
  std::vector<double> window_sps;
  std::vector<double> window_cpu_ms;
  std::vector<Sample> samples;
  std::vector<std::string> errors;  // the first few, for the log
};

/// Sends one statement and checks the reply against the oracle or the
/// client's model. Returns false (and fills `error`) on a failed or
/// wrong reply. `ms` receives the client-side latency.
bool RunOne(xsql::server::RetryingClient& client, const Stmt& stmt,
            const Oracle& oracle, ClientModel* model, double* ms,
            std::string* error);

/// Closed loop: each client sends its next statement only after the
/// reply to the previous one, for `seconds`. With `spans` set, each
/// statement is recorded as a span with its request ID.
LoopResult RunClosedLoop(Deployment& deployment, const WorkloadSpec& spec,
                         const Oracle& oracle,
                         std::vector<MixStream>& streams,
                         std::vector<ClientModel>& models, double seconds,
                         SpanLog* spans);

/// Linear-interpolated percentile of `v`, q in [0, 1]; 0 when empty.
double Percentile(std::vector<double> v, double q);
/// Process CPU time (user + system) in seconds.
double ProcessCpuSeconds();
/// Peak resident set size of the process in MiB.
double PeakRssMb();

}  // namespace perfbench

#endif  // PERFBENCH_LOAD_H_
