// Durability costs: what a per-statement WAL fsync adds to mutation
// latency, what raw record appends cost, how recovery time scales with
// WAL length, what a checkpoint rotation costs, and how a point write
// scales with database size. Companion numbers live in EXPERIMENTS.md.
#include <benchmark/benchmark.h>

#include <filesystem>
#include <map>
#include <memory>
#include <string>

#include "eval/session.h"
#include "storage/file.h"
#include "storage/recovery.h"
#include "storage/wal.h"
#include "store/database.h"
#include "workload/fig1_schema.h"
#include "workload/generator.h"

namespace xsql {
namespace bench {
namespace {

std::string FreshDir(const std::string& name) {
  std::string dir =
      (std::filesystem::temp_directory_path() / ("xsql_bench_" + name))
          .string();
  std::filesystem::remove_all(dir);
  return dir;
}

// A durable database only ever holds statement-built state (recovery
// replays statements), so benchmarks prime it through Execute.
void Prime(storage::DurableDatabase* dd) {
  const char* prelude[] = {
      "ALTER CLASS Person ADD SIGNATURE Name => String",
      "ALTER CLASS Person ADD SIGNATURE Salary => Numeral",
      "UPDATE CLASS Person SET mary.Name = 'mary'",
  };
  for (const char* stmt : prelude) (void)dd->Execute(stmt);
}

const char kUpdate[] = "UPDATE CLASS Person SET mary.Salary = 100";

// Baseline: the same statement through a plain in-memory session.
void BM_UpdatePlain(benchmark::State& state) {
  Database db;
  Session session(&db);
  (void)session.Execute("ALTER CLASS Person ADD SIGNATURE Name => String");
  (void)session.Execute("ALTER CLASS Person ADD SIGNATURE Salary => Numeral");
  (void)session.Execute("UPDATE CLASS Person SET mary.Name = 'mary'");
  for (auto _ : state) {
    auto out = session.Execute(kUpdate);
    if (!out.ok()) state.SkipWithError(out.status().ToString().c_str());
  }
}
BENCHMARK(BM_UpdatePlain)->Unit(benchmark::kMicrosecond);

// The durable path: statement + WAL append + fsync before the ack.
void BM_UpdateDurable(benchmark::State& state) {
  std::string dir = FreshDir("update_durable");
  auto dd = storage::DurableDatabase::Open(dir);
  if (!dd.ok()) {
    state.SkipWithError(dd.status().ToString().c_str());
    return;
  }
  Prime(dd->get());
  for (auto _ : state) {
    auto out = (*dd)->Execute(kUpdate);
    if (!out.ok()) state.SkipWithError(out.status().ToString().c_str());
  }
  state.counters["wal_bytes"] =
      static_cast<double>((*dd)->wal_bytes());
  std::filesystem::remove_all(dir);
}
BENCHMARK(BM_UpdateDurable)->Unit(benchmark::kMicrosecond);

// Raw WAL record append + fsync, isolating the log from the executor.
void BM_WalAppendRaw(benchmark::State& state) {
  std::string dir = FreshDir("wal_raw");
  (void)storage::File::EnsureDir(dir);
  std::string path = dir + "/bench.wal";
  (void)storage::Wal::Create(path);
  auto wal = storage::Wal::OpenAppender(
      path, sizeof(storage::Wal::kMagic) - 1);
  if (!wal.ok()) {
    state.SkipWithError(wal.status().ToString().c_str());
    return;
  }
  const std::string payload(static_cast<size_t>(state.range(0)), 's');
  for (auto _ : state) {
    Status st = wal->Append(payload);
    if (!st.ok()) state.SkipWithError(st.ToString().c_str());
  }
  state.SetBytesProcessed(
      static_cast<int64_t>(state.iterations()) *
      static_cast<int64_t>(payload.size() + storage::Wal::kRecordHeader));
  std::filesystem::remove_all(dir);
}
BENCHMARK(BM_WalAppendRaw)->Arg(64)->Arg(1024)->Unit(benchmark::kMicrosecond);

// Recovery latency against WAL length: open a directory whose log
// holds `records` unreplayed statements.
void BM_Recovery(benchmark::State& state) {
  const int64_t records = state.range(0);
  std::string dir =
      FreshDir("recovery_" + std::to_string(records));
  {
    auto dd = storage::DurableDatabase::Open(dir);
    if (!dd.ok()) {
      state.SkipWithError(dd.status().ToString().c_str());
      return;
    }
    Prime(dd->get());
    for (int64_t i = 0; i < records; ++i) {
      auto out = (*dd)->Execute(
          "UPDATE CLASS Person SET mary.Salary = " + std::to_string(i));
      if (!out.ok()) {
        state.SkipWithError(out.status().ToString().c_str());
        return;
      }
    }
  }
  for (auto _ : state) {
    auto dd = storage::DurableDatabase::Open(dir);
    if (!dd.ok()) state.SkipWithError(dd.status().ToString().c_str());
    benchmark::DoNotOptimize(dd);
  }
  state.counters["replayed"] = static_cast<double>(records);
  std::filesystem::remove_all(dir);
}
BENCHMARK(BM_Recovery)
    ->Arg(0)
    ->Arg(100)
    ->Arg(1000)
    ->Unit(benchmark::kMillisecond);

// A checkpoint rotation (write snapshot + DDL log + WAL, flip
// CURRENT). Each iteration rotates to a fresh generation.
void BM_Checkpoint(benchmark::State& state) {
  std::string dir = FreshDir("checkpoint");
  auto dd = storage::DurableDatabase::Open(dir);
  if (!dd.ok()) {
    state.SkipWithError(dd.status().ToString().c_str());
    return;
  }
  Prime(dd->get());
  for (auto _ : state) {
    Status st = (*dd)->Checkpoint();
    if (!st.ok()) state.SkipWithError(st.ToString().c_str());
  }
  std::filesystem::remove_all(dir);
}
BENCHMARK(BM_Checkpoint)->Unit(benchmark::kMicrosecond);

// The generator's Figure-1 instance at `scale`, built on first use and
// kept in `instances`: the library may call a benchmark function several
// times while it sizes the iteration count. Each benchmark keeps its own
// map, so one's writes never reach another's instance.
Database* Fig1Instance(std::map<size_t, std::unique_ptr<Database>>* instances,
                       size_t scale, benchmark::State& state) {
  std::unique_ptr<Database>& db = (*instances)[scale];
  if (db == nullptr) {
    db = std::make_unique<Database>();
    workload::WorkloadParams params;
    Status st = workload::BuildFig1Schema(db.get());
    if (st.ok()) {
      st = workload::GenerateFig1Data(db.get(), params.Scaled(scale)).status();
    }
    if (!st.ok()) {
      state.SkipWithError(st.ToString().c_str());
      db.reset();
    }
  }
  return db.get();
}

// Write cost against database size (the generator scale): one point
// UPDATE, then the snapshot fork and new COW epoch the server takes
// after every write. Each write stores a fresh value, so the active
// domain gains one oid and loses another every iteration. With the
// domain maintained per write, the time should stay flat across scales.
void BM_PointWriteCost(benchmark::State& state) {
  const size_t scale = static_cast<size_t>(state.range(0));
  static auto& instances = *new std::map<size_t, std::unique_ptr<Database>>();
  Database* db = Fig1Instance(&instances, scale, state);
  if (db == nullptr) return;
  const workload::WorkloadParams params =
      workload::WorkloadParams().Scaled(scale);
  Session session(db);
  static int64_t next_value = 1'000'000;
  size_t person = 0;
  for (auto _ : state) {
    auto out = session.Execute(
        "UPDATE CLASS Person SET person" +
        std::to_string(person++ % params.extra_persons) +
        ".Age = " + std::to_string(next_value++));
    if (!out.ok()) state.SkipWithError(out.status().ToString().c_str());
    std::unique_ptr<Database> snapshot = db->Fork();
    db->BeginNewEpoch();
    benchmark::DoNotOptimize(snapshot);
  }
  state.counters["objects"] = static_cast<double>(db->object_count());
  state.counters["domain"] = static_cast<double>(db->ActiveDomain().size());
}
BENCHMARK(BM_PointWriteCost)
    ->Arg(8)
    ->Arg(32)
    ->Arg(128)
    ->Unit(benchmark::kMicrosecond);

// Insert cost against database size: a fresh object into Employee (the
// largest class extent below Person), then the fork and new COW epoch
// of every write. The insert joins one class extent and one per-oid
// shard, so the time should stay flat across scales like a point write.
void BM_PointInsertCost(benchmark::State& state) {
  const size_t scale = static_cast<size_t>(state.range(0));
  static auto& instances = *new std::map<size_t, std::unique_ptr<Database>>();
  Database* db = Fig1Instance(&instances, scale, state);
  if (db == nullptr) return;
  static int64_t next_object = 0;
  const Oid employee = Oid::Atom("Employee");
  for (auto _ : state) {
    Status st = db->NewObject(
        Oid::Atom("inserted" + std::to_string(next_object++)), {employee});
    if (!st.ok()) state.SkipWithError(st.ToString().c_str());
    std::unique_ptr<Database> snapshot = db->Fork();
    db->BeginNewEpoch();
    benchmark::DoNotOptimize(snapshot);
  }
  state.counters["objects"] = static_cast<double>(db->object_count());
}
BENCHMARK(BM_PointInsertCost)
    ->Arg(8)
    ->Arg(32)
    ->Arg(128)
    ->Unit(benchmark::kMicrosecond);

}  // namespace
}  // namespace bench
}  // namespace xsql
