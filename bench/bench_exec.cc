// B16 — batch-at-a-time execution (EXPERIMENTS.md §B16). The
// workloads are near-quadratic joins the planner CANNOT hash-join
// (ordered var-var comparisons), so the conjunct driver runs the nested
// loop over FROM candidate arrays materialized once per slot, with
// per-batch prefilters over a selection vector. A second rung runs the
// former B16 workloads, the `=all` joins, which now ride the hash join.
//
// ci.sh runs this binary with --benchmark_format=json and publishes
// the result as BENCH_exec.json.
#include <benchmark/benchmark.h>

#include "bench_util.h"
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

/// Runs `text` on the scale's default (planner-on) session. The session
/// is shared across iterations, so the plan cache serves every
/// iteration after the first and the measurement is evaluation, not
/// preparation.
void RunWorkload(benchmark::State& state, size_t scale, const char* text) {
  Session* session = GetScaledDb(scale).session.get();
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
  RunWorkload(state, static_cast<size_t>(state.range(1)),
              kWorkloads[state.range(0)]);
}

void BM_AllJoin(benchmark::State& state) {
  RunWorkload(state, static_cast<size_t>(state.range(1)),
              kAllJoins[state.range(0)]);
}

#define B16_ARGS                                              \
  ->Args({0, 1})->Args({0, 8})->Args({1, 1})->Args({1, 8})    \
      ->Unit(benchmark::kMillisecond)

BENCHMARK(BM_BatchSerial) B16_ARGS;
BENCHMARK(BM_AllJoin) B16_ARGS;

}  // namespace
}  // namespace bench
}  // namespace xsql
