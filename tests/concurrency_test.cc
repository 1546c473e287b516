// The concurrent-server execution core, minus the sockets: writer
// latch semantics (serialized writers, deadline/cancel-aware waits),
// conservative three-way statement classification (ClassifyMode),
// group-commit batching and its sticky-failure model,
// the multi-threaded serializability stress test (final state must be
// byte-identical to a serial replay of the durable statement history),
// and crash-during-group-commit recovery. Run under TSan by ci.sh.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <memory>
#include <mutex>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "common/fault.h"
#include "obs/metrics.h"
#include "server/concurrency.h"
#include "storage/recovery.h"
#include "storage/snapshot.h"
#include "storage/wal.h"

namespace xsql {
namespace server {
namespace {

using storage::DurableDatabase;
using storage::DurableOptions;
using storage::GroupCommitter;
using storage::SaveSnapshot;
using storage::Wal;

// The same statement-built fixture the durability suite uses: recovery
// replays statements, so everything must be creatable by statement.
std::vector<std::string> Prelude() {
  return {
      "ALTER CLASS Person ADD SIGNATURE Name => String",
      "ALTER CLASS Person ADD SIGNATURE Salary => Numeral",
      "UPDATE CLASS Person SET mary.Name = 'mary'",
      "UPDATE CLASS Person SET mary.Salary = 100",
  };
}

class ConcurrencyTest : public ::testing::Test {
 protected:
  void SetUp() override {
    const auto* info =
        ::testing::UnitTest::GetInstance()->current_test_info();
    dir_ = ::testing::TempDir() + "/xsql_concurrent_" + info->name();
    std::filesystem::remove_all(dir_);
  }

  void TearDown() override {
    FaultInjector::Global().Disarm();
    std::filesystem::remove_all(dir_);
  }

  std::unique_ptr<DurableDatabase> MustOpen(const std::string& dir) {
    auto dd = DurableDatabase::Open(dir);
    EXPECT_TRUE(dd.ok()) << dd.status().ToString();
    return dd.ok() ? std::move(*dd) : nullptr;
  }

  void MustExecute(DurableDatabase* dd,
                   const std::vector<std::string>& script) {
    for (const std::string& stmt : script) {
      auto out = dd->Execute(stmt);
      ASSERT_TRUE(out.ok()) << stmt << ": " << out.status().ToString();
    }
  }

  std::string dir_;
};

// ---------------------------------------------------------------- latch

TEST(StatementLatchTest, ExclusiveExcludesWriters) {
  StatementLatch latch;
  ASSERT_TRUE(latch.AcquireExclusive(ExecLimits{}, nullptr).ok());
  std::atomic<bool> entered{false};
  std::thread writer([&] {
    ASSERT_TRUE(latch.AcquireExclusive(ExecLimits{}, nullptr).ok());
    entered.store(true);
    latch.ReleaseExclusive();
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_FALSE(entered.load());  // still parked behind the first writer
  latch.ReleaseExclusive();
  writer.join();
  EXPECT_TRUE(entered.load());
}

TEST(StatementLatchTest, DeadlineTripsWhileWaiting) {
  StatementLatch latch;
  ASSERT_TRUE(latch.AcquireExclusive(ExecLimits{}, nullptr).ok());
  ExecLimits limits;
  limits.deadline_ms = 40;
  Status st = latch.AcquireExclusive(limits, nullptr);
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kResourceExhausted);
  EXPECT_NE(st.message().find("(guard: latch-wait)"), std::string::npos)
      << st.ToString();
  latch.ReleaseExclusive();
  // The latch is undamaged: acquisition works again.
  EXPECT_TRUE(latch.AcquireExclusive(ExecLimits{}, nullptr).ok());
  latch.ReleaseExclusive();
}

TEST(StatementLatchTest, CancelTripsWhileWaiting) {
  StatementLatch latch;
  ASSERT_TRUE(latch.AcquireExclusive(ExecLimits{}, nullptr).ok());
  auto cancel = std::make_shared<CancelToken>();
  std::thread canceller([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
    cancel->RequestCancel();
  });
  Status st = latch.AcquireExclusive(ExecLimits{}, cancel);
  canceller.join();
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kCancelled);
  EXPECT_NE(st.message().find("(guard: latch-wait)"), std::string::npos);
  latch.ReleaseExclusive();
  // An abandoned wait must not leave the latch held or wedged.
  EXPECT_TRUE(latch.AcquireExclusive(ExecLimits{}, nullptr).ok());
  latch.ReleaseExclusive();
}

// ------------------------------------------------------- classification

TEST_F(ConcurrencyTest, ClassifyModeIsConservative) {
  auto dd = MustOpen(dir_);
  ASSERT_NE(dd, nullptr);
  MustExecute(dd.get(), Prelude());
  const Database& db = dd->db();
  const ViewManager& views = dd->session().views();
  auto mode = [&](const std::string& text) {
    return ClassifyMode(text, storage::ClassifyStatement(text, db), db,
                        views);
  };

  // Reads run latch-free on the shared snapshot.
  EXPECT_EQ(mode("SELECT X FROM Person X"), StatementMode::kSharedRead);
  EXPECT_EQ(mode("SELECT S FROM Person X WHERE X.Salary[S]"),
            StatementMode::kSharedRead);
  EXPECT_EQ(mode("EXPLAIN SELECT X FROM Person X"),
            StatementMode::kSharedRead);
  EXPECT_EQ(mode("SYSTEM METRICS"), StatementMode::kSharedRead);

  // Mutation kinds are writes.
  EXPECT_EQ(mode("UPDATE CLASS Person SET mary.Salary = 200"),
            StatementMode::kWrite);
  EXPECT_EQ(mode("ALTER CLASS Person ADD SIGNATURE Age => Numeral"),
            StatementMode::kWrite);
  // EXPLAIN ANALYZE executes for real before rolling back: scratch
  // writes only, so it runs on a private fork rather than the master.
  EXPECT_EQ(mode("EXPLAIN ANALYZE SELECT X FROM Person X"),
            StatementMode::kPrivateRead);
  // OID FUNCTION queries mint durable objects.
  EXPECT_EQ(mode("SELECT N = X.Name FROM Person X OID FUNCTION OF X "
                 "WHERE X.Name[N]"),
            StatementMode::kWrite);
  // Unresolvable statements are writes by default.
  EXPECT_EQ(mode("THIS IS NOT XSQL"), StatementMode::kWrite);

  // CREATE VIEW materializes eagerly, so a read touching the freshly
  // materialized view is a pure read and stays on the shared snapshot
  // path. (Regression: this used to classify exclusive
  // unconditionally.)
  MustExecute(dd.get(),
              {"ALTER CLASS Class ADD SIGNATURE Motto => String",
               "UPDATE CLASS Class SET Person.Motto = 'people first'",
               "CREATE VIEW Mottos AS SUBCLASS OF Object "
               "SIGNATURE M => String "
               "SELECT M = X.Motto FROM Class X OID FUNCTION OF X "
               "WHERE X.Motto[M]"});
  EXPECT_EQ(mode("SELECT T FROM Class X WHERE Mottos(X).M[T]"),
            StatementMode::kSharedRead);
  EXPECT_EQ(mode("SELECT X FROM Person X"),
            StatementMode::kSharedRead);  // unaffected

  // A later mutation invalidates the materialization: reads mentioning
  // the view re-materialize — into a private fork, never the shared
  // snapshot.
  MustExecute(dd.get(), {"UPDATE CLASS Person SET mary.Salary = 150"});
  EXPECT_EQ(mode("SELECT T FROM Class X WHERE Mottos(X).M[T]"),
            StatementMode::kPrivateRead);

  // Mentioning a query-defined method is private too: invoking it can
  // mint result objects through its OID clause.
  MustExecute(dd.get(),
              {"ALTER CLASS Class ADD SIGNATURE Shout => String "
               "SELECT (Shout) = N FROM Class X OID X WHERE X.Motto[N]"});
  EXPECT_EQ(mode("SELECT S FROM Class X WHERE X.Shout[S]"),
            StatementMode::kPrivateRead);
}

// ------------------------------------------------------- group commit

TEST_F(ConcurrencyTest, GroupCommitterBatchesIntoOneFsync) {
  auto dd = MustOpen(dir_);
  ASSERT_NE(dd, nullptr);
  MustExecute(dd.get(), Prelude());
  GroupCommitter committer(dd->wal());
  const uint64_t records_before = dd->wal_records();
  std::vector<uint64_t> tickets;
  for (int i = 0; i < 5; ++i) {
    tickets.push_back(committer.Enqueue(
        "UPDATE CLASS Person SET mary.Salary = " + std::to_string(i)));
  }
  // One wait for the highest ticket commits the whole batch: one
  // AppendBatch, one fsync, five records.
  ASSERT_TRUE(committer.WaitDurable(tickets.back()).ok());
  EXPECT_EQ(committer.batches_committed(), 1u);
  EXPECT_EQ(dd->wal_records(), records_before + 5);
  // Earlier tickets are durable for free.
  for (uint64_t t : tickets) {
    EXPECT_TRUE(committer.WaitDurable(t).ok());
  }
}

TEST_F(ConcurrencyTest, GroupCommitFailureIsSticky) {
  auto dd = MustOpen(dir_);
  ASSERT_NE(dd, nullptr);
  MustExecute(dd.get(), Prelude());
  GroupCommitter committer(dd->wal());
  uint64_t t1 =
      committer.Enqueue("UPDATE CLASS Person SET mary.Salary = 1");
  FaultInjector::Global().ArmNth(FaultInjector::Domain::kIo, 1);
  Status st = committer.WaitDurable(t1);
  EXPECT_FALSE(st.ok());
  FaultInjector::Global().Disarm();
  // Even with I/O healthy again, the committer refuses: records after
  // the failed batch were built on never-durable state.
  uint64_t t2 =
      committer.Enqueue("UPDATE CLASS Person SET mary.Salary = 2");
  EXPECT_FALSE(committer.WaitDurable(t2).ok());
  EXPECT_FALSE(committer.Drain().ok());
}

// -------------------------------------------------- manager end to end

TEST_F(ConcurrencyTest, ManagerExecutesReadsAndWrites) {
  auto dd = MustOpen(dir_);
  ASSERT_NE(dd, nullptr);
  MustExecute(dd.get(), Prelude());
  ConcurrencyManager cm(dd.get());
  auto sid = cm.CreateSession(SessionOptions{});
  ASSERT_TRUE(sid.ok()) << sid.status().ToString();

  auto read = cm.Execute(*sid, "SELECT T WHERE mary.Salary[T]");
  ASSERT_TRUE(read.ok()) << read.status().ToString();
  EXPECT_EQ(read->relation.size(), 1u);

  auto write =
      cm.Execute(*sid, "UPDATE CLASS Person SET mary.Salary = 250");
  ASSERT_TRUE(write.ok()) << write.status().ToString();
  // The mutation is durable before the acknowledgement: a reopen of the
  // directory sees it.
  auto reopened = MustOpen(dir_);
  ASSERT_NE(reopened, nullptr);
  EXPECT_EQ(SaveSnapshot(reopened->db()), SaveSnapshot(dd->db()));

  // Statement errors come back as errors, not poisoned sessions.
  EXPECT_FALSE(cm.Execute(*sid, "SELECT FROM WHERE").ok());
  EXPECT_TRUE(
      cm.Execute(*sid, "SELECT X FROM Person X").ok());
  cm.CloseSession(*sid);
  EXPECT_EQ(cm.open_sessions(), 0u);
}

TEST_F(ConcurrencyTest, SharedViewCatalogAcrossSessions) {
  auto dd = MustOpen(dir_);
  ASSERT_NE(dd, nullptr);
  MustExecute(dd.get(),
              {"ALTER CLASS Class ADD SIGNATURE Motto => String",
               "UPDATE CLASS Class SET Person.Motto = 'people first'"});
  ConcurrencyManager cm(dd.get());
  auto s1 = cm.CreateSession(SessionOptions{});
  auto s2 = cm.CreateSession(SessionOptions{});
  ASSERT_TRUE(s1.ok() && s2.ok());
  ASSERT_TRUE(cm.Execute(*s1,
                         "CREATE VIEW Mottos AS SUBCLASS OF Object "
                         "SIGNATURE M => String "
                         "SELECT M = X.Motto FROM Class X "
                         "OID FUNCTION OF X WHERE X.Motto[M]")
                  .ok());
  // The view created on session 1 resolves on session 2.
  auto out =
      cm.Execute(*s2, "SELECT T FROM Class X WHERE Mottos(X).M[T]");
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  EXPECT_EQ(out->relation.size(), 1u);
}

// The serializability stress test: N threads × M statements of
// randomized reads and mutations over one shared extent. After the dust
// settles, (a) every acknowledged mutation must be in the WAL, and
// (b) recovery — a *serial* replay of the WAL — must land on a state
// byte-identical to the live one, proving the concurrent execution was
// equivalent to the serial order the WAL records.
TEST_F(ConcurrencyTest, SerializabilityStress) {
  constexpr int kThreads = 4;
  constexpr int kStatements = 40;
  auto dd = MustOpen(dir_);
  ASSERT_NE(dd, nullptr);
  MustExecute(dd.get(), Prelude());
  ConcurrencyManager cm(dd.get());

  std::mutex acked_mu;
  std::vector<std::string> acked;
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      auto sid = cm.CreateSession(SessionOptions{});
      if (!sid.ok()) {
        failures.fetch_add(1);
        return;
      }
      // Deterministic per-thread script, seeded like the fault suites.
      std::mt19937 rng(0xC0FFEE + t);
      for (int i = 0; i < kStatements; ++i) {
        if (rng() % 3 == 0) {
          // Contended write: everyone updates mary; last WAL record
          // wins, and replay must agree.
          std::string stmt = "UPDATE CLASS Person SET mary.Salary = " +
                             std::to_string(rng() % 1000);
          auto out = cm.Execute(*sid, stmt);
          if (out.ok()) {
            std::lock_guard<std::mutex> lock(acked_mu);
            acked.push_back(stmt);
          } else {
            failures.fetch_add(1);
          }
        } else if (rng() % 3 == 1) {
          // Private write: a per-thread object nobody else touches.
          std::string stmt = "UPDATE CLASS Person SET w" +
                             std::to_string(t) + "_" + std::to_string(i) +
                             ".Salary = " + std::to_string(i);
          auto out = cm.Execute(*sid, stmt);
          if (out.ok()) {
            std::lock_guard<std::mutex> lock(acked_mu);
            acked.push_back(stmt);
          } else {
            failures.fetch_add(1);
          }
        } else {
          auto out = cm.Execute(*sid, "SELECT T WHERE mary.Salary[T]");
          if (!out.ok()) failures.fetch_add(1);
        }
      }
      cm.CloseSession(*sid);
    });
  }
  for (auto& th : threads) th.join();
  ASSERT_EQ(failures.load(), 0);

  // (a) Every acknowledged mutation is in the WAL.
  auto scan = Wal::ScanFile(
      DurableDatabase::WalPath(dir_, dd->generation()));
  ASSERT_TRUE(scan.ok()) << scan.status().ToString();
  EXPECT_FALSE(scan->torn);
  std::vector<std::string> wal_records = scan->records;
  for (const std::string& stmt : acked) {
    EXPECT_NE(std::find(wal_records.begin(), wal_records.end(), stmt),
              wal_records.end())
        << "acked statement missing from WAL: " << stmt;
  }

  // (b) Serial replay of the WAL (recovery) matches the live state.
  auto reopened = MustOpen(dir_);
  ASSERT_NE(reopened, nullptr);
  EXPECT_EQ(SaveSnapshot(reopened->db()), SaveSnapshot(dd->db()));
}

// Same stress with checkpoints rotating mid-flight: the WAL-membership
// check no longer applies (earlier records get folded into snapshots),
// but serial-replay equivalence must still hold.
TEST_F(ConcurrencyTest, SerializabilityStressWithCheckpoints) {
  constexpr int kThreads = 4;
  constexpr int kStatements = 30;
  auto dd = MustOpen(dir_);
  ASSERT_NE(dd, nullptr);
  MustExecute(dd.get(), Prelude());
  ConcurrencyManager::Options options;
  options.checkpoint_every = 16;
  ConcurrencyManager cm(dd.get(), options);

  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      auto sid = cm.CreateSession(SessionOptions{});
      if (!sid.ok()) {
        failures.fetch_add(1);
        return;
      }
      std::mt19937 rng(0xBEEF + t);
      for (int i = 0; i < kStatements; ++i) {
        Result<EvalOutput> out =
            (rng() % 2 == 0)
                ? cm.Execute(*sid,
                             "UPDATE CLASS Person SET mary.Salary = " +
                                 std::to_string(rng() % 1000))
                : cm.Execute(*sid, "SELECT T WHERE mary.Salary[T]");
        if (!out.ok()) failures.fetch_add(1);
      }
      cm.CloseSession(*sid);
    });
  }
  for (auto& th : threads) th.join();
  ASSERT_EQ(failures.load(), 0);
  EXPECT_GT(dd->generation(), 1u);  // checkpoints actually rotated

  auto reopened = MustOpen(dir_);
  ASSERT_NE(reopened, nullptr);
  EXPECT_EQ(SaveSnapshot(reopened->db()), SaveSnapshot(dd->db()));
}

// Crash during a group commit: writers race, the fault injector kills
// the process at byte k of durable I/O, and recovery must come back to
// a state that (a) contains every acknowledged statement and (b) equals
// a serial replay of the WAL records that survived.
TEST_F(ConcurrencyTest, CrashDuringGroupCommitRecovers) {
  constexpr int kWriters = 2;
  constexpr int kPerWriter = 6;
  for (uint64_t k = 1; k <= 120; k += 9) {
    std::string dir = dir_ + "_k" + std::to_string(k);
    std::filesystem::remove_all(dir);
    auto dd = MustOpen(dir);
    ASSERT_NE(dd, nullptr);
    MustExecute(dd.get(), Prelude());
    ConcurrencyManager cm(dd.get());

    FaultInjector::Global().ArmCrashAtByte(k);
    std::mutex acked_mu;
    std::vector<std::string> acked;
    std::vector<std::thread> writers;
    for (int t = 0; t < kWriters; ++t) {
      writers.emplace_back([&, t] {
        auto sid = cm.CreateSession(SessionOptions{});
        if (!sid.ok()) return;
        for (int i = 0; i < kPerWriter; ++i) {
          std::string stmt = "UPDATE CLASS Person SET c" +
                             std::to_string(t) + "_" + std::to_string(i) +
                             ".Salary = " + std::to_string(i);
          auto out = cm.Execute(*sid, stmt);
          if (out.ok()) {
            std::lock_guard<std::mutex> lock(acked_mu);
            acked.push_back(stmt);
          }
        }
        cm.CloseSession(*sid);
      });
    }
    for (auto& th : writers) th.join();
    FaultInjector::Global().Disarm();

    // Recovery truncates any torn tail and replays what survived.
    auto reopened = MustOpen(dir);
    ASSERT_NE(reopened, nullptr);

    // (a) Acknowledged ⊆ recovered.
    auto scan =
        Wal::ScanFile(DurableDatabase::WalPath(dir, reopened->generation()));
    ASSERT_TRUE(scan.ok());
    for (const std::string& stmt : acked) {
      EXPECT_NE(
          std::find(scan->records.begin(), scan->records.end(), stmt),
          scan->records.end())
          << "k=" << k << ": acked statement lost: " << stmt;
    }

    // (b) Recovered state == serial replay of the recovered records.
    std::string replay_dir = dir + "_replay";
    std::filesystem::remove_all(replay_dir);
    auto fresh = MustOpen(replay_dir);
    ASSERT_NE(fresh, nullptr);
    for (const std::string& stmt : scan->records) {
      auto out = fresh->Execute(stmt);
      ASSERT_TRUE(out.ok()) << "k=" << k << ": " << stmt << ": "
                            << out.status().ToString();
    }
    EXPECT_EQ(SaveSnapshot(reopened->db()), SaveSnapshot(fresh->db()))
        << "k=" << k;
    std::filesystem::remove_all(replay_dir);
    std::filesystem::remove_all(dir);
  }
}

// The shared prepared-plan cache under contention: parallel readers
// repeat a small statement set (hammering Lookup/Insert on the one
// cache every connection shares) while a writer mutates the schema
// (bumping Database::version(), so cached entries keep going stale and
// being re-prepared). Readers must always see current data — a stale
// plan served after a mutation would return the pre-mutation answer.
// Runs under TSan via ci.sh like the rest of this file.
TEST_F(ConcurrencyTest, PlanCacheStressUnderDdl) {
  constexpr int kReaders = 3;
  constexpr int kRounds = 30;
  auto dd = MustOpen(dir_);
  ASSERT_NE(dd, nullptr);
  MustExecute(dd.get(), Prelude());
  ConcurrencyManager cm(dd.get());

  std::atomic<int> failures{0};
  std::atomic<bool> writer_done{false};
  std::vector<std::thread> readers;
  for (int t = 0; t < kReaders; ++t) {
    readers.emplace_back([&, t] {
      auto sid = cm.CreateSession(SessionOptions{});
      if (!sid.ok()) {
        failures.fetch_add(1);
        return;
      }
      const char* statements[] = {
          "SELECT T WHERE mary.Salary[T]",
          "SELECT X FROM Person X",
          "SELECT N WHERE mary.Name[N]",
      };
      int i = 0;
      while (!writer_done.load(std::memory_order_relaxed) || i < kRounds) {
        auto out = cm.Execute(*sid, statements[(t + i) % 3]);
        if (!out.ok()) failures.fetch_add(1);
        ++i;
        if (i > 10000) break;  // paranoia bound
      }
      cm.CloseSession(*sid);
    });
  }
  std::thread writer([&] {
    auto sid = cm.CreateSession(SessionOptions{});
    if (!sid.ok()) {
      failures.fetch_add(1);
      writer_done.store(true);
      return;
    }
    for (int i = 0; i < kRounds; ++i) {
      std::string stmt = "UPDATE CLASS Person SET mary.Salary = " +
                         std::to_string(100 + i);
      auto out = cm.Execute(*sid, stmt);
      if (!out.ok()) failures.fetch_add(1);
      // Read-your-write through whatever the cache serves right now.
      auto check = cm.Execute(*sid, "SELECT T WHERE mary.Salary[T]");
      if (!check.ok() || check->relation.size() != 1u ||
          !check->relation.rows()[0][0].is_numeric() ||
          check->relation.rows()[0][0].numeric_value() != 100 + i) {
        failures.fetch_add(1);
      }
    }
    cm.CloseSession(*sid);
    writer_done.store(true);
  });
  writer.join();
  for (auto& th : readers) th.join();
  EXPECT_EQ(failures.load(), 0);
}

// --------------------------------------------- shared-state regressions

// Histogram dumps must be internally consistent while writers hammer
// the buckets: count derived from the same bucket copy the quantiles
// use (the pre-fix code read count and buckets separately).
TEST(MetricsRaceTest, HistogramSampleIsInternallyConsistent) {
  obs::Histogram h;
  std::atomic<bool> stop{false};
  std::vector<std::thread> writers;
  for (int t = 0; t < 2; ++t) {
    writers.emplace_back([&, t] {
      std::mt19937 rng(7 + static_cast<unsigned>(t));
      while (!stop.load(std::memory_order_relaxed)) {
        h.Observe(rng() % 4096);
      }
    });
  }
  for (int i = 0; i < 2000; ++i) {
    obs::Histogram::Sample s = h.TakeSample();
    uint64_t total = 0;
    for (int b = 0; b < obs::Histogram::kBuckets; ++b) {
      total += s.buckets[b];
    }
    ASSERT_EQ(s.count, total) << "sample count drifted from its buckets";
  }
  stop.store(true);
  for (auto& th : writers) th.join();
}

// The slow-query log's supported concurrent pattern: the session's
// owner thread executes while a monitor thread polls the log.
TEST(MetricsRaceTest, SlowQueryLogIsReadableWhileExecuting) {
  Database db;
  SessionOptions options;
  options.slow_query_us = 1;  // nearly everything qualifies
  Session session(&db, options);
  std::atomic<bool> stop{false};
  std::thread monitor([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      std::vector<SlowQueryEntry> log = session.slow_query_log();
      for (const SlowQueryEntry& e : log) {
        ASSERT_FALSE(e.statement.empty());
      }
    }
  });
  for (int i = 0; i < 50; ++i) {
    (void)session.Execute("UPDATE CLASS Person SET p" + std::to_string(i) +
                          ".Name = 'x'");
    (void)session.Execute("SELECT X FROM Person X");
  }
  stop.store(true);
  monitor.join();
  EXPECT_FALSE(session.slow_query_log().empty());
  session.ClearSlowQueryLog();
  EXPECT_TRUE(session.slow_query_log().empty());
}

}  // namespace
}  // namespace server
}  // namespace xsql
