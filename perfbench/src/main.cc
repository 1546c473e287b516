// The over-the-wire XSQL benchmark.
//
//   xsql_perfbench --workload paper_mix|join_scan|write_mix --seed N
//                  --seconds S --trace 0|1 --workdir DIR --spans-dir DIR
//
// Generates a Figure-1 instance from the seed, computes every read's
// expected answer in-process, then (several times, for a set-up median)
// writes it as the first checkpoint of a fresh data directory, opens it
// through recovery, starts a server::Server on loopback TCP and warms it
// up with one pass over every distinct read. RetryingClients then drive
// the server in a closed loop for S seconds and every reply is checked.
// write_mix also checks read-your-writes during the loop and every
// acknowledged write after a shutdown and recovery.
//
// --trace 0 prints the end-to-end metrics; --trace 1 runs the loop half
// untraced and half traced, replays the workload through each layer's
// public calls and prints the per-layer metrics (spans go to
// <spans-dir>/spans-<workload>-<seed>.json). Human-readable lines come
// first; the last line of stdout is one JSON object. Exit code 1 means a
// wrong answer, a failed check or too few samples; 2 a usage error.
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <vector>

#include <unistd.h>

#include "layers.h"
#include "load.h"
#include "mix.h"
#include "spans.h"
#include "storage/snapshot.h"
#include "workload/fig1_schema.h"
#include "workload/generator.h"

namespace perfbench {
namespace {

// Set-ups per run; setup_s is their median.
constexpr int kSetups = 5;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string workdir = ".bench_run";
  std::string spans_dir = ".bench_out";
};

[[noreturn]] void Usage(const std::string& why) {
  std::fprintf(stderr, "xsql_perfbench: %s\n", why.c_str());
  std::fprintf(stderr,
               "usage: xsql_perfbench --workload NAME --seed N --seconds S "
               "--trace 0|1 [--workdir DIR] [--spans-dir DIR]\n");
  std::exit(2);
}

Args ParseArgs(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) Usage("missing value for " + flag);
    const std::string value = argv[++i];
    if (flag == "--workload") {
      a.workload = value;
    } else if (flag == "--seed") {
      a.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      a.seconds = std::atof(value.c_str());
    } else if (flag == "--trace") {
      a.trace = value == "1";
    } else if (flag == "--workdir") {
      a.workdir = value;
    } else if (flag == "--spans-dir") {
      a.spans_dir = value;
    } else {
      Usage("unknown flag " + flag);
    }
  }
  if (a.seconds <= 0) Usage("--seconds must be positive");
  return a;
}

void PrintResult(bool correct, uint64_t attempted, uint64_t failed,
                 const std::vector<Metric>& metrics) {
  std::string line = "{\"correct\": ";
  line += correct ? "true" : "false";
  line += ", \"attempted\": " + std::to_string(attempted);
  line += ", \"failed\": " + std::to_string(failed);
  line += ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g", metrics[i].value);
    if (i > 0) line += ", ";
    // Names and units are fixed identifiers: nothing to escape.
    line += '"';
    line += metrics[i].name;
    line += std::string("\": {\"value\": ") + value + ", \"unit\": \"" +
            metrics[i].unit + "\"}";
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
  std::fflush(stdout);
}

/// Latencies (ms) of one class, or of one query label.
std::vector<double> Latencies(const LoopResult& r, StmtClass cls,
                              int query = -1) {
  std::vector<double> out;
  for (const Sample& s : r.samples) {
    if (s.cls == cls && (query < 0 || s.query == query)) out.push_back(s.ms);
  }
  return out;
}

void PrintLatency(const char* name, const std::vector<double>& ms) {
  std::printf("  %-22s n=%-6zu p50=%.3f ms  p90=%.3f ms  p99=%.3f ms\n",
              name, ms.size(), Percentile(ms, 0.5), Percentile(ms, 0.9),
              Percentile(ms, 0.99));
}

/// Checks made outside the timed loop, and the loop's own tallies.
struct Tally {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> errors;

  /// Counts one check (a warm-up reply, a read-your-writes lookup, a
  /// recovered value) as attempted, and as failed unless `ok`.
  void Check(bool ok, const std::string& error) {
    ++attempted;
    if (ok) return;
    ++failed;
    if (errors.size() < 10) errors.push_back(error);
  }
  void Add(const LoopResult& r) {
    attempted += r.attempted;
    failed += r.failed;
    errors.insert(errors.end(), r.errors.begin(), r.errors.end());
  }
};

/// Removes a directory tree when it goes out of scope.
class ScratchDir {
 public:
  explicit ScratchDir(std::string path) : path_(std::move(path)) {}
  ~ScratchDir() {
    std::error_code ec;
    std::filesystem::remove_all(path_, ec);
  }
  ScratchDir(const ScratchDir&) = delete;
  ScratchDir& operator=(const ScratchDir&) = delete;
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

/// The generated instance and every read's expected answer.
struct Instance {
  int persons = 0;
  size_t objects = 0;
  double generate_s = 0;
  std::string snapshot;
  Oracle oracle;
};

bool MakeInstance(const WorkloadSpec& spec, uint64_t seed, Instance* out) {
  xsql::workload::WorkloadParams params;
  params.seed = seed;
  params = params.Scaled(spec.scale);
  out->persons = static_cast<int>(params.extra_persons);
  xsql::Database db;
  const int64_t start = NowNs();
  if (!xsql::workload::BuildFig1Schema(&db).ok() ||
      !xsql::workload::GenerateFig1Data(&db, params).ok()) {
    std::fprintf(stderr, "xsql_perfbench: instance generation failed\n");
    return false;
  }
  out->generate_s = (NowNs() - start) / 1e9;
  out->snapshot = xsql::storage::SaveSnapshot(db);
  out->objects = db.object_count();
  std::string error;
  out->oracle = BuildOracle(&db, spec, out->persons, &error);
  if (!error.empty()) {
    std::fprintf(stderr, "xsql_perfbench: %s\n", error.c_str());
    return false;
  }
  return true;
}

/// One pass over every distinct read text, each reply checked against
/// the oracle; every other client sends one statement to connect.
void WarmUp(Deployment& d, const WorkloadSpec& spec, const Oracle& oracle,
            Tally* tally) {
  ClientModel model;
  auto send = [&](int client, const std::string& text) {
    Stmt s;
    s.text = text;
    double ms = 0;
    std::string error;
    const bool ok = RunOne(d.client(client), s, oracle, &model, &ms, &error);
    tally->Check(ok, "warm-up " + error);
  };
  for (const auto& entry : oracle) send(0, entry.first);
  for (int c = 1; c < spec.clients; ++c) send(c, spec.queries[0].text);
}

/// Sets up kSetups times on fresh directories under `base` and returns
/// the last deployment, still running. `setup_s` and `open_s` get one
/// time per set-up.
std::unique_ptr<Deployment> SetUp(const WorkloadSpec& spec, uint64_t seed,
                                  const Instance& instance,
                                  const std::string& base, Tally* tally,
                                  std::vector<double>* setup_s,
                                  std::vector<double>* open_s) {
  std::unique_ptr<Deployment> deployment;
  for (int i = 0; i < kSetups; ++i) {
    if (deployment != nullptr) {
      deployment->Stop();
      std::filesystem::remove_all(deployment->dir());
    }
    const int64_t start = NowNs();
    double open = 0;
    auto d = Deployment::Start(base + "/setup" + std::to_string(i),
                               instance.snapshot, spec, seed, &open);
    if (!d.ok()) {
      std::fprintf(stderr, "xsql_perfbench: set-up failed: %s\n",
                   d.status().ToString().c_str());
      return nullptr;
    }
    deployment = std::move(*d);
    WarmUp(*deployment, spec, instance.oracle, tally);
    setup_s->push_back((NowNs() - start) / 1e9);
    open_s->push_back(open);
  }
  return deployment;
}

/// write_mix: every written person read back over the wire, then the
/// server shut down and every person's Age checked after recovery.
/// Stops the deployment in any case.
void CheckWrites(const WorkloadSpec& spec, int persons, const Oracle& oracle,
                 Deployment& deployment, std::vector<ClientModel>& models,
                 Tally* tally) {
  if (spec.round_writes == 0) {
    deployment.Stop();
    return;
  }
  for (int c = 0; c < spec.clients; ++c) {
    for (int person : models[c].written) {
      Stmt s;
      s.cls = StmtClass::kLookup;
      s.person = person;
      s.text = LookupText(s.person);
      double ms = 0;
      std::string error;
      const bool ok =
          RunOne(deployment.client(c), s, oracle, &models[c], &ms, &error);
      tally->Check(ok, "read-your-writes " + error);
    }
  }
  deployment.Stop();
  auto reopened = xsql::storage::DurableDatabase::Open(deployment.dir());
  tally->Check(reopened.ok(), "recovery: " + reopened.status().ToString());
  for (int p = 0; reopened.ok() && p < persons; ++p) {
    auto out = (*reopened)->Execute(LookupText(p));
    tally->Check(out.ok() && DigestReply(xsql::RenderEvalOutput(*out)) ==
                                 models[p % spec.clients].lookup.at(p),
                 "recovery lost the acknowledged Age of person" +
                     std::to_string(p));
  }
}

/// The gated metrics of an untraced run; false (after saying why) when a
/// query text or the writes have too few samples for their percentiles.
bool EndToEndMetrics(const WorkloadSpec& spec, const LoopResult& loop,
                     const std::vector<double>& setup_s, double peak_rss_mb,
                     std::vector<Metric>* metrics) {
  std::printf("end to end (%.1f s timed, %llu statements):\n", loop.wall_s,
              static_cast<unsigned long long>(loop.completed));
  std::printf("  per window:");
  for (size_t w = 0; w < loop.window_sps.size(); ++w) {
    std::printf(" %.1f/s %.3fms", loop.window_sps[w], loop.window_cpu_ms[w]);
  }
  std::printf("\n");
  // Per query text the p90, combined over the texts by geometric mean.
  // The texts differ in cost by up to 400x, so a percentile pooled over
  // all of them would sit on the boundary between two texts. The centre
  // of each text's latencies is printed but not gated: on a shared host
  // the latencies of one text fall into a fast and a slow mode whose
  // shares shift from run to run, and the median jumps between them.
  double log_p90 = 0;
  size_t query_samples = 0;
  size_t fewest = SIZE_MAX;
  for (size_t q = 0; q < spec.queries.size(); ++q) {
    const std::vector<double> ms =
        Latencies(loop, StmtClass::kQuery, static_cast<int>(q));
    PrintLatency(("query " + spec.queries[q].label).c_str(), ms);
    log_p90 += std::log(std::max(Percentile(ms, 0.9), 1e-6));
    query_samples += ms.size();
    fewest = std::min(fewest, ms.size());
  }
  const std::vector<double> lookup_ms = Latencies(loop, StmtClass::kLookup);
  const std::vector<double> write_ms = Latencies(loop, StmtClass::kWrite);
  if (!lookup_ms.empty()) PrintLatency("lookup (not gated)", lookup_ms);
  if (!write_ms.empty()) PrintLatency("write (not gated)", write_ms);
  if (fewest < spec.min_text_samples ||
      write_ms.size() < spec.min_write_samples) {
    std::printf("FAILED too few samples: %zu for the rarest query text "
                "(need %zu), %zu writes (need %zu)\n",
                fewest, spec.min_text_samples, write_ms.size(),
                spec.min_write_samples);
    return false;
  }
  const double texts = static_cast<double>(spec.queries.size());
  const std::string windows =
      "median of " + std::to_string(loop.window_sps.size()) + " windows";
  const std::string per_text = "geomean over " +
                               std::to_string(spec.queries.size()) +
                               " query texts, " +
                               std::to_string(query_samples) + " samples";
  *metrics = {
      {"setup_s", Percentile(setup_s, 0.5), "s",
       "median of " + std::to_string(setup_s.size()) + " set-ups"},
      {"throughput_sps", Percentile(loop.window_sps, 0.5), "1/s",
       windows + ", " + std::to_string(loop.completed) + " statements"},
      {"success_ratio", static_cast<double>(loop.completed) / loop.attempted,
       "ratio", std::to_string(loop.attempted) + " attempted"},
      {"query_p90_ms", std::exp(log_p90 / texts), "ms", per_text},
      {"cpu_ms_per_stmt", Percentile(loop.window_cpu_ms, 0.5), "ms",
       windows + ", client and server threads"},
      {"peak_rss_mb", peak_rss_mb, "MiB", "whole process"},
  };
  return true;
}

int Main(int argc, char** argv) {
  const Args args = ParseArgs(argc, argv);
  const WorkloadSpec* found = FindWorkload(args.workload);
  if (found == nullptr) {
    std::string names;
    for (const std::string& n : WorkloadNames()) names += " " + n;
    Usage("unknown workload '" + args.workload + "'; one of:" + names);
  }
  const WorkloadSpec& spec = *found;

  // Inputs: the instance and the statement streams derive from the seed.
  Instance instance;
  if (!MakeInstance(spec, args.seed, &instance)) return 1;
  std::printf("workload %s: scale %zu, %zu objects, %d persons, "
              "%d client(s), closed loop, seed %llu\n",
              spec.name.c_str(), spec.scale, instance.objects,
              instance.persons, spec.clients,
              static_cast<unsigned long long>(args.seed));

  // Declared before the deployment, so the server is down before its
  // directory is removed.
  const ScratchDir base(args.workdir + "/" + spec.name + "-" +
                        std::to_string(static_cast<long long>(getpid())));
  Tally tally;
  std::vector<double> setup_s;
  std::vector<double> open_s;
  std::unique_ptr<Deployment> deployment = SetUp(
      spec, args.seed, instance, base.path(), &tally, &setup_s, &open_s);
  if (deployment == nullptr) return 1;

  std::vector<MixStream> streams;
  std::vector<ClientModel> models(spec.clients);
  for (int c = 0; c < spec.clients; ++c) {
    streams.emplace_back(spec, args.seed, c, instance.persons);
    if (spec.round_lookups == 0) continue;
    for (int p : streams.back().owned()) {
      models[c].lookup[p] = instance.oracle.at(LookupText(p));
    }
  }

  // The timed phase. A traced run splits it: untraced, then traced.
  SpanLog spans;
  LoopResult loop;
  LoopResult traced;
  Counters before;
  Counters after;
  const double seconds = args.trace ? args.seconds / 2 : args.seconds;
  loop = RunClosedLoop(*deployment, spec, instance.oracle, streams, models,
                       seconds, nullptr);
  if (args.trace) {
    before = Counters::Read();
    traced = RunClosedLoop(*deployment, spec, instance.oracle, streams,
                           models, seconds, &spans);
    after = Counters::Read();
  }
  const double peak_rss_mb = PeakRssMb();
  tally.Add(loop);
  tally.Add(traced);
  const double ping_us =
      args.trace ? PingRttUs(deployment->server().port(), 200) : 0;
  CheckWrites(spec, instance.persons, instance.oracle, *deployment, models,
              &tally);
  for (const std::string& e : tally.errors) {
    std::printf("FAILED %s\n", e.c_str());
  }

  std::vector<Metric> metrics;
  if (!args.trace) {
    if (!EndToEndMetrics(spec, loop, setup_s, peak_rss_mb, &metrics)) {
      return 1;
    }
  } else {
    LayerInputs in;
    in.spec = &spec;
    in.seed = args.seed;
    in.persons = instance.persons;
    in.dir = deployment->dir();
    in.scratch = base.path() + "/replay";
    in.generate_s = instance.generate_s;
    in.open_s = open_s;
    in.snapshot_bytes = instance.snapshot.size();
    in.objects = instance.objects;
    in.ping_rtt_us = ping_us;
    in.untraced_sps = loop.completed / loop.wall_s;
    in.traced_sps = traced.completed / traced.wall_s;
    in.untraced = loop.samples;
    in.traced = traced.samples;
    in.before = before;
    in.after = after;
    auto layers = MeasureLayers(in, &spans);
    if (!layers.ok()) {
      std::printf("FAILED layer replay: %s\n",
                  layers.status().ToString().c_str());
      return 1;
    }
    metrics = std::move(*layers);
    std::filesystem::create_directories(args.spans_dir);
    const std::string path = args.spans_dir + "/spans-" + spec.name + "-" +
                             std::to_string(args.seed) + ".json";
    if (!spans.WriteJson(path)) {
      std::printf("FAILED writing %s\n", path.c_str());
      return 1;
    }
    std::printf("%zu spans written to %s\n", spans.size(), path.c_str());
  }

  for (const Metric& m : metrics) {
    std::printf("  %-36s %14.6g %-6s %s\n", m.name.c_str(), m.value,
                m.unit.c_str(), m.note.c_str());
  }
  const bool correct = tally.failed == 0;
  PrintResult(correct, tally.attempted, tally.failed, metrics);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
