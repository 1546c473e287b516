// B16 — batch-at-a-time execution, serial and fanned out
// (EXPERIMENTS.md §B16). The workloads are near-quadratic joins the
// planner CANNOT hash-join (ordered var-var comparisons), so the
// conjunct driver runs the nested loop over FROM candidate arrays
// materialized once per slot, with per-batch prefilters over a
// selection vector. The parallel variant fans the outer extent across
// a worker pool — on a multi-core host it adds on top of the serial
// driver; on a single-core host it measures fork/join overhead
// honestly. A third rung runs the former B16 workloads, the `=all`
// joins, which now ride the hash join.
//
// ci.sh runs this binary with --benchmark_format=json and publishes
// the result as BENCH_exec.json.
#include <benchmark/benchmark.h>

#include <map>
#include <memory>
#include <string>

#include "bench_util.h"
#include "eval/parallel.h"
#include "eval/session.h"

namespace xsql {
namespace bench {
namespace {

// The two B16 workloads (scale-quadratic probe count, empty answers
// so output cost never masks the scan cost). Salaries (20000..120000)
// always exceed ages (12..80), and every person has an age.
//  W0: Employee² ordered self-join.
//  W1: Employee × Person ordered cross-class join.
const char* kWorkloads[] = {
    "SELECT X, Y FROM Employee X, Employee Y WHERE X.Salary <all Y.Age",
    "SELECT X, Y FROM Employee X, Person Y WHERE X.Salary <all Y.Age",
};

// The `=all` joins (B14 shapes, the former W0 and W1): hash-joined on
// shared terminal values or an empty =all side.
const char* kAllJoins[] = {
    "SELECT X, Y FROM Employee X, Employee Y WHERE X.Salary =all Y.Salary",
    "SELECT X, Y FROM Employee X, Person Y WHERE X.Salary =all Y.Age",
};

/// Sessions per (scale, mode); shared across iterations so the plan
/// cache serves every iteration after the first in both modes and the
/// measurement is evaluation, not preparation.
struct ExecSessions {
  std::unique_ptr<WorkerPool> pool;
  std::unique_ptr<Session> batch;     // planner on, serial
  std::unique_ptr<Session> parallel;  // batch + worker fan-out
};

ExecSessions& GetExecSessions(size_t scale) {
  static std::map<size_t, ExecSessions>& cache =
      *new std::map<size_t, ExecSessions>();
  auto it = cache.find(scale);
  if (it == cache.end()) {
    ScaledDb& scaled = GetScaledDb(scale);
    ExecSessions entry;
    entry.batch = std::make_unique<Session>(scaled.db.get());
    entry.pool = std::make_unique<WorkerPool>(3);
    SessionOptions parallel_options;
    parallel_options.worker_pool = entry.pool.get();
    parallel_options.exec_workers = 4;
    entry.parallel =
        std::make_unique<Session>(scaled.db.get(), parallel_options);
    it = cache.emplace(scale, std::move(entry)).first;
  }
  return it->second;
}

void RunWorkload(benchmark::State& state, Session* session,
                 const char* text) {
  size_t rows = 0;
  for (auto _ : state) {
    auto out = session->Query(text);
    if (!out.ok()) {
      state.SkipWithError(out.status().ToString().c_str());
      return;
    }
    rows = out->size();
    benchmark::DoNotOptimize(out);
  }
  state.counters["rows"] = static_cast<double>(rows);
}

// Args: {workload index, scale factor}.
void BM_BatchSerial(benchmark::State& state) {
  ExecSessions& sessions =
      GetExecSessions(static_cast<size_t>(state.range(1)));
  RunWorkload(state, sessions.batch.get(), kWorkloads[state.range(0)]);
}

void BM_BatchParallel(benchmark::State& state) {
  ExecSessions& sessions =
      GetExecSessions(static_cast<size_t>(state.range(1)));
  RunWorkload(state, sessions.parallel.get(), kWorkloads[state.range(0)]);
}

void BM_AllJoin(benchmark::State& state) {
  ExecSessions& sessions =
      GetExecSessions(static_cast<size_t>(state.range(1)));
  RunWorkload(state, sessions.batch.get(), kAllJoins[state.range(0)]);
}

#define B16_ARGS                                              \
  ->Args({0, 1})->Args({0, 8})->Args({1, 1})->Args({1, 8})    \
      ->Unit(benchmark::kMillisecond)

BENCHMARK(BM_BatchSerial) B16_ARGS;
BENCHMARK(BM_BatchParallel) B16_ARGS;
BENCHMARK(BM_AllJoin) B16_ARGS;

}  // namespace
}  // namespace bench
}  // namespace xsql
