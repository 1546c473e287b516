#include "load.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <atomic>
#include <chrono>
#include <filesystem>
#include <thread>

#include "storage/file.h"
#include "storage/wal.h"

namespace perfbench {

using xsql::Result;
using xsql::Status;
using xsql::storage::DurableDatabase;
using xsql::storage::File;

namespace {

// Windows a timed phase is cut into for the throughput and CPU medians.
constexpr int kWindows = 6;

}  // namespace

Result<std::unique_ptr<Deployment>> Deployment::Start(
    const std::string& dir, const std::string& snapshot,
    const WorkloadSpec& spec, uint64_t seed, double* open_s) {
  std::unique_ptr<Deployment> d(new Deployment(dir));
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
  std::filesystem::create_directories(dir, ec);
  if (ec) return Status::RuntimeError("cannot create " + dir);
  // Generation 1 holds the generated instance: the layout
  // DurableDatabase writes for a fresh directory, with the data in it.
  XSQL_RETURN_IF_ERROR(
      File::WriteAtomic(DurableDatabase::SnapshotPath(dir, 1), snapshot));
  XSQL_RETURN_IF_ERROR(File::WriteAtomic(DurableDatabase::DdlPath(dir, 1),
                                         xsql::storage::Wal::kMagic));
  XSQL_RETURN_IF_ERROR(File::WriteAtomic(DurableDatabase::WalPath(dir, 1),
                                         xsql::storage::Wal::kMagic));
  XSQL_RETURN_IF_ERROR(
      File::WriteAtomic(DurableDatabase::CurrentPath(dir), "1\n"));

  const int64_t open_start = NowNs();
  XSQL_ASSIGN_OR_RETURN(d->dd_, DurableDatabase::Open(dir));
  *open_s = (NowNs() - open_start) / 1e9;

  xsql::server::ServerOptions options;
  options.checkpoint_every = spec.checkpoint_every;
  XSQL_ASSIGN_OR_RETURN(d->server_,
                        xsql::server::Server::Start(d->dd_.get(), options));
  for (int c = 0; c < spec.clients; ++c) {
    xsql::server::RetryingClientOptions co;
    co.port = d->server_->port();
    co.timeout_ms = 60'000;
    co.jitter_seed = seed * 31 + static_cast<uint64_t>(c) + 1;
    for (size_t i = 0; i < co.uuid.size(); ++i) {
      co.uuid[i] = static_cast<uint8_t>((seed >> (8 * (i % 8))) + i * 7 + c);
    }
    co.uuid[0] = static_cast<uint8_t>(c + 1);  // distinct per client
    d->clients_.push_back(
        std::make_unique<xsql::server::RetryingClient>(co));
  }
  return d;
}

void Deployment::Stop() {
  for (auto& c : clients_) c->Close();
  clients_.clear();
  if (server_ != nullptr) server_->Shutdown();
  server_.reset();
  dd_.reset();
}

bool RunOne(xsql::server::RetryingClient& client, const Stmt& stmt,
            const Oracle& oracle, ClientModel* model, double* ms,
            std::string* error) {
  const int64_t start = NowNs();
  Result<std::string> reply = client.Execute(stmt.text);
  *ms = (NowNs() - start) / 1e6;
  if (!reply.ok()) {
    *error = stmt.text + ": " + reply.status().ToString();
    return false;
  }
  Digest expected;
  switch (stmt.cls) {
    case StmtClass::kWrite:
      model->written.insert(stmt.person);
      model->lookup[stmt.person] = DigestOfAge(stmt.value);
      return true;
    case StmtClass::kLookup: {
      auto it = model->lookup.find(stmt.person);
      if (it != model->lookup.end()) expected = it->second;
      break;
    }
    case StmtClass::kQuery: {
      auto it = oracle.find(stmt.text);
      if (it != oracle.end()) expected = it->second;
      break;
    }
  }
  const Digest got = DigestReply(*reply);
  if (!(got == expected)) {
    *error = stmt.text + ": wrong answer (" + std::to_string(got.rows) +
             " rows, expected " + std::to_string(expected.rows) + ")";
    return false;
  }
  return true;
}

LoopResult RunClosedLoop(Deployment& deployment, const WorkloadSpec& spec,
                         const Oracle& oracle,
                         std::vector<MixStream>& streams,
                         std::vector<ClientModel>& models, double seconds,
                         SpanLog* spans) {
  std::vector<LoopResult> per(spec.clients);
  std::atomic<uint64_t> completed{0};
  const double cpu_start = ProcessCpuSeconds();
  const int64_t start = NowNs();
  const int64_t deadline = start + static_cast<int64_t>(seconds * 1e9);
  std::vector<std::thread> threads;
  for (int c = 0; c < spec.clients; ++c) {
    threads.emplace_back([&, c] {
      LoopResult& r = per[c];
      xsql::server::RetryingClient& client = deployment.client(c);
      while (NowNs() < deadline) {
        const Stmt stmt = streams[c].Next();
        const int64_t t0 = NowNs();
        double ms = 0;
        std::string error;
        const bool ok = RunOne(client, stmt, oracle, &models[c], &ms, &error);
        ++r.attempted;
        if (ok) {
          ++r.completed;
          completed.fetch_add(1, std::memory_order_relaxed);
          Sample sample;
          sample.cls = stmt.cls;
          sample.query = stmt.query;
          sample.person = stmt.person;
          sample.start_ns = t0;
          sample.ms = ms;
          r.samples.push_back(sample);
        } else {
          ++r.failed;
          if (r.errors.size() < 5) r.errors.push_back(error);
        }
        if (spans != nullptr) {
          xsql::storage::RequestId rid;
          rid.uuid = client.uuid();
          rid.seq = client.last_seq();
          const std::string label =
              stmt.cls == StmtClass::kQuery ? spec.queries[stmt.query].label
                                            : "person" +
                                                  std::to_string(stmt.person);
          spans->Add(0, std::string("client/") + ClassName(stmt.cls),
                     label + " rid=" + rid.ToString(), t0, NowNs());
        }
      }
    });
  }
  // Throughput and CPU per statement of each window, read at the window
  // boundaries while the clients run.
  LoopResult total;
  int64_t window_start = start;
  double window_cpu = cpu_start;
  uint64_t window_done = 0;
  for (int w = 1; w <= kWindows; ++w) {
    const int64_t end = start + (deadline - start) * w / kWindows;
    std::this_thread::sleep_until(std::chrono::steady_clock::time_point(
        std::chrono::nanoseconds(end)));
    const int64_t now = NowNs();
    const double cpu = ProcessCpuSeconds();
    const uint64_t done = completed.load(std::memory_order_relaxed);
    const double n = static_cast<double>(done - window_done);
    total.window_sps.push_back(n / ((now - window_start) / 1e9));
    total.window_cpu_ms.push_back(n == 0 ? 0 : (cpu - window_cpu) * 1e3 / n);
    window_start = now;
    window_cpu = cpu;
    window_done = done;
  }
  for (std::thread& t : threads) t.join();
  total.wall_s = (NowNs() - start) / 1e9;
  for (LoopResult& r : per) {
    total.attempted += r.attempted;
    total.completed += r.completed;
    total.failed += r.failed;
    total.samples.insert(total.samples.end(), r.samples.begin(),
                         r.samples.end());
    for (std::string& e : r.errors) total.errors.push_back(std::move(e));
  }
  return total;
}

double Percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double ProcessCpuSeconds() {
  struct rusage ru;
  getrusage(RUSAGE_SELF, &ru);
  return ru.ru_utime.tv_sec + ru.ru_stime.tv_sec +
         (ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) / 1e6;
}

double PeakRssMb() {
  struct rusage ru;
  getrusage(RUSAGE_SELF, &ru);
  return ru.ru_maxrss / 1024.0;  // ru_maxrss is in KiB on Linux
}

}  // namespace perfbench
