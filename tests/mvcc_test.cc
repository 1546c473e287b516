// MVCC snapshot reads: copy-on-write fork isolation at the store layer,
// the snapshot-isolation stress test (latch-free readers must only ever
// observe committed prefixes of the writers' histories — never a torn
// statement), version garbage collection (superseded versions are freed
// at the last pin release, and a long-lived reader bounds the chain
// instead of growing it), and a crash sweep through a commit proving
// the read head never advances past durable state. Run under ASan and
// TSan by ci.sh (labels: mvcc, concurrency).
#include <gtest/gtest.h>

#include <atomic>
#include <filesystem>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/fault.h"
#include "domain_oracle.h"
#include "eval/session.h"
#include "server/concurrency.h"
#include "storage/recovery.h"
#include "storage/snapshot.h"
#include "storage/version.h"
#include "storage/wal.h"
#include "store/database.h"

namespace xsql {
namespace server {
namespace {

using storage::DurableDatabase;
using storage::SaveSnapshot;
using storage::VersionChain;
using storage::Wal;
using testing_oracle::DispatchMatchesWalk;
using testing_oracle::DomainMatchesRecompute;
using testing_oracle::InstancesMatchExtents;

Oid A(const std::string& name) { return Oid::Atom(name); }

std::vector<std::string> Prelude() {
  return {
      "ALTER CLASS Person ADD SIGNATURE Name => String",
      "ALTER CLASS Person ADD SIGNATURE Salary => Numeral",
      "UPDATE CLASS Person SET mary.Name = 'mary'",
      "UPDATE CLASS Person SET mary.Salary = 100",
  };
}

class MvccTest : public ::testing::Test {
 protected:
  void SetUp() override {
    const auto* info =
        ::testing::UnitTest::GetInstance()->current_test_info();
    dir_ = ::testing::TempDir() + "/xsql_mvcc_" + info->name();
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

// ------------------------------------------------------ store-layer COW

// A fork is a frozen copy: mutations on the master after the fork are
// invisible to it, byte for byte.
TEST(DatabaseForkTest, MasterMutationsInvisibleToFork) {
  Database db;
  ASSERT_TRUE(db.DeclareClass(A("Person"), {A("Object")}).ok());
  ASSERT_TRUE(db.NewObject(A("mary"), {A("Person")}).ok());
  ASSERT_TRUE(db.SetScalar(A("mary"), A("Age"), Oid::Int(30)).ok());

  std::unique_ptr<Database> fork = db.Fork();
  db.BeginNewEpoch();  // master keeps mutating
  const std::string frozen = SaveSnapshot(*fork);
  EXPECT_EQ(frozen, SaveSnapshot(db));

  // Attribute overwrite, new object, new class, extent change: all four
  // COW granularities (object shard, class node, instance shard, graph).
  ASSERT_TRUE(db.SetScalar(A("mary"), A("Age"), Oid::Int(31)).ok());
  ASSERT_TRUE(db.NewObject(A("john"), {A("Person")}).ok());
  ASSERT_TRUE(db.DeclareClass(A("Robot"), {A("Object")}).ok());
  ASSERT_TRUE(db.AddInstanceOf(A("mary"), A("Robot")).ok());

  EXPECT_EQ(SaveSnapshot(*fork), frozen);
  EXPECT_NE(SaveSnapshot(db), frozen);
  // The fork still answers queries from its frozen state.
  EXPECT_FALSE(fork->IsInstanceOf(A("mary"), A("Robot")));
  EXPECT_EQ(fork->GetObject(A("john")), nullptr);
  EXPECT_EQ(fork->Extent(A("Person")).size(), 1u);
  // The shared domain chunks were cloned, not patched: each side's
  // domain is its own state's.
  EXPECT_TRUE(DomainMatchesRecompute(db));
  EXPECT_TRUE(DispatchMatchesWalk(db));
  EXPECT_TRUE(InstancesMatchExtents(db));
  EXPECT_TRUE(DomainMatchesRecompute(*fork));
  EXPECT_TRUE(DispatchMatchesWalk(*fork));
  EXPECT_TRUE(InstancesMatchExtents(*fork));
  EXPECT_TRUE(fork->ActiveDomain().Contains(Oid::Int(30)));
  EXPECT_FALSE(fork->ActiveDomain().Contains(Oid::Int(31)));
  EXPECT_FALSE(db.ActiveDomain().Contains(Oid::Int(30)));
  EXPECT_FALSE(fork->ActiveDomain().Contains(A("Robot")));
}

// And the other direction: a private fork (EXPLAIN ANALYZE, stale-view
// scratch) can be mutated freely without the master noticing.
TEST(DatabaseForkTest, ForkMutationsInvisibleToMaster) {
  Database db;
  ASSERT_TRUE(db.DeclareClass(A("Person"), {A("Object")}).ok());
  ASSERT_TRUE(db.NewObject(A("mary"), {A("Person")}).ok());
  const std::string before = SaveSnapshot(db);

  std::unique_ptr<Database> fork = db.Fork();
  ASSERT_TRUE(fork->SetScalar(A("mary"), A("Age"), Oid::Int(99)).ok());
  ASSERT_TRUE(fork->NewObject(A("ghost"), {A("Person")}).ok());
  ASSERT_TRUE(fork->RemoveInstanceOf(A("mary"), A("Person")).ok());

  EXPECT_EQ(SaveSnapshot(db), before);
  EXPECT_EQ(db.GetObject(A("ghost")), nullptr);
  EXPECT_TRUE(db.IsInstanceOf(A("mary"), A("Person")));
  EXPECT_TRUE(DomainMatchesRecompute(db));
  EXPECT_TRUE(DispatchMatchesWalk(db));
  EXPECT_TRUE(InstancesMatchExtents(db));
  EXPECT_TRUE(DomainMatchesRecompute(*fork));
  EXPECT_TRUE(DispatchMatchesWalk(*fork));
  EXPECT_TRUE(InstancesMatchExtents(*fork));
  EXPECT_FALSE(db.ActiveDomain().Contains(A("ghost")));
}

// The server's private-read path: a fork of a published snapshot runs a
// query whose OID FUNCTION mints result objects. The minted objects
// enter the private fork's domain only; the snapshot's and the master's
// domains stay equal to their own recomputes.
TEST(DatabaseForkTest, PrivateReadForkMintsObjectsIntoItsOwnDomain) {
  Database db;
  ASSERT_TRUE(db.DeclareClass(A("Person"), {A("Object")}).ok());
  for (const char* name : {"mary", "john", "sue"}) {
    ASSERT_TRUE(db.NewObject(A(name), {A("Person")}).ok());
    ASSERT_TRUE(
        db.SetScalar(A(name), A("Name"), Oid::String(name)).ok());
  }
  std::unique_ptr<Database> snapshot = db.Fork();
  db.BeginNewEpoch();
  ASSERT_TRUE(db.SetScalar(A("mary"), A("Name"), Oid::String("m")).ok());
  const std::string frozen = SaveSnapshot(*snapshot);

  std::unique_ptr<Database> scratch = snapshot->Fork();
  Session session(scratch.get());
  auto out = session.Execute(
      "SELECT TheName = X.Name FROM Person X OID FUNCTION OF X");
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  ASSERT_EQ(out->created.size(), 3u);

  EXPECT_EQ(SaveSnapshot(*snapshot), frozen);
  for (const Database* side : {&db, snapshot.get(), scratch.get()}) {
    EXPECT_TRUE(DomainMatchesRecompute(*side));
    EXPECT_TRUE(DispatchMatchesWalk(*side));
    EXPECT_TRUE(InstancesMatchExtents(*side));
  }
  for (const Oid& minted : out->created) {
    EXPECT_TRUE(scratch->ActiveDomain().Contains(minted));
    EXPECT_FALSE(snapshot->ActiveDomain().Contains(minted));
    EXPECT_FALSE(db.ActiveDomain().Contains(minted));
  }
  EXPECT_TRUE(snapshot->ActiveDomain().Contains(Oid::String("mary")));
  EXPECT_FALSE(db.ActiveDomain().Contains(Oid::String("mary")));
}

// Forks of forks: each layer isolates from the ones above and below.
TEST(DatabaseForkTest, ChainedForksStayIndependent) {
  Database db;
  ASSERT_TRUE(db.DeclareClass(A("Person"), {A("Object")}).ok());
  ASSERT_TRUE(db.NewObject(A("o1"), {A("Person")}).ok());
  std::unique_ptr<Database> f1 = db.Fork();
  db.BeginNewEpoch();
  ASSERT_TRUE(db.NewObject(A("o2"), {A("Person")}).ok());
  std::unique_ptr<Database> f2 = db.Fork();
  db.BeginNewEpoch();
  ASSERT_TRUE(db.NewObject(A("o3"), {A("Person")}).ok());

  EXPECT_EQ(f1->Extent(A("Person")).size(), 1u);
  EXPECT_EQ(f2->Extent(A("Person")).size(), 2u);
  EXPECT_EQ(db.Extent(A("Person")).size(), 3u);
  // A fork of a fork that writes, then the middle layer's domain again.
  std::unique_ptr<Database> f3 = f2->Fork();
  ASSERT_TRUE(f3->NewObject(A("o4"), {A("Person")}).ok());
  ASSERT_TRUE(f3->SetScalar(A("o1"), A("Tag"), Oid::Int(7)).ok());
  for (const Database* side : {&db, f1.get(), f2.get(), f3.get()}) {
    EXPECT_TRUE(DomainMatchesRecompute(*side));
    EXPECT_TRUE(DispatchMatchesWalk(*side));
    EXPECT_TRUE(InstancesMatchExtents(*side));
  }
  EXPECT_FALSE(f1->ActiveDomain().Contains(A("o2")));
  EXPECT_TRUE(f2->ActiveDomain().Contains(A("o2")));
  EXPECT_FALSE(f2->ActiveDomain().Contains(A("o4")));
  EXPECT_FALSE(f2->ActiveDomain().Contains(Oid::Int(7)));
  EXPECT_TRUE(f3->ActiveDomain().Contains(A("o4")));
}

// Instance-of is kept on two sides — each oid's direct-class list and
// each class's chunked direct extent — and a fork isolates both: each
// side mints objects, joins and leaves classes, and rolls back a class
// declaration that had gained members, and neither sees the other's.
TEST(DatabaseForkTest, MembershipWritesStayOnTheirSide) {
  Database db;
  ASSERT_TRUE(db.DeclareClass(A("Person"), {A("Object")}).ok());
  ASSERT_TRUE(db.DeclareClass(A("Employee"), {A("Person")}).ok());
  // Enough members that each extent spans several chunks.
  for (int i = 0; i < 400; ++i) {
    const Oid cls = i % 2 == 0 ? A("Person") : A("Employee");
    ASSERT_TRUE(db.NewObject(A("p" + std::to_string(i)), {cls}).ok());
  }
  std::unique_ptr<Database> frozen = db.Fork();
  const std::string frozen_text = SaveSnapshot(*frozen);
  std::unique_ptr<Database> fork = db.Fork();
  db.BeginNewEpoch();

  // p0, p2, p4 and p6 are direct Persons on both sides at the fork.
  struct Side {
    Database* db;
    std::string minted;  // prefix of the objects this side mints
    std::string joins;   // joins Employee
    std::string leaves;  // leaves Person
  };
  const Side sides[] = {{&db, "m", "p0", "p2"}, {fork.get(), "f", "p4", "p6"}};
  for (const Side& side : sides) {
    for (int i = 0; i < 10; ++i) {
      ASSERT_TRUE(side.db
                      ->NewObject(A(side.minted + std::to_string(i)),
                                  {A("Employee")})
                      .ok());
    }
    ASSERT_TRUE(side.db->AddInstanceOf(A(side.joins), A("Employee")).ok());
    ASSERT_TRUE(side.db->RemoveInstanceOf(A(side.leaves), A("Person")).ok());
    // A class declared, given members, and rolled back.
    UndoLog log;
    side.db->BeginUndo(&log);
    ASSERT_TRUE(side.db->DeclareClass(A("Robot"), {A("Person")}).ok());
    ASSERT_TRUE(side.db->NewObject(A(side.minted + "robot"), {A("Robot")}).ok());
    ASSERT_TRUE(side.db->AddInstanceOf(A("p8"), A("Robot")).ok());
    side.db->EndUndo();
    side.db->Rollback(&log);
    EXPECT_FALSE(side.db->graph().IsClass(A("Robot")));
    EXPECT_FALSE(side.db->HasObject(A(side.minted + "robot")));
    EXPECT_EQ(side.db->DirectClassesOf(A("p8")),
              std::vector<Oid>{A("Person")});
  }

  const OidSet master_employees = db.Extent(A("Employee"));
  const OidSet fork_employees = fork->Extent(A("Employee"));
  const OidSet master_persons = db.Extent(A("Person"));
  const OidSet fork_persons = fork->Extent(A("Person"));
  for (const Side& own : sides) {
    const Side& other = own.db == &db ? sides[1] : sides[0];
    const OidSet& employees =
        own.db == &db ? master_employees : fork_employees;
    const OidSet& persons = own.db == &db ? master_persons : fork_persons;
    for (int i = 0; i < 10; ++i) {
      EXPECT_TRUE(employees.Contains(A(own.minted + std::to_string(i))));
      EXPECT_FALSE(employees.Contains(A(other.minted + std::to_string(i))));
      EXPECT_TRUE(
          own.db->DirectClassesOf(A(other.minted + std::to_string(i)))
              .empty());
    }
    EXPECT_TRUE(employees.Contains(A(own.joins)));
    EXPECT_FALSE(employees.Contains(A(other.joins)));
    EXPECT_FALSE(persons.Contains(A(own.leaves)));
    EXPECT_TRUE(persons.Contains(A(other.leaves)));
    EXPECT_EQ(own.db->DirectClassesOf(A(own.joins)),
              (std::vector<Oid>{A("Person"), A("Employee")}));
    EXPECT_EQ(own.db->DirectClassesOf(A(other.joins)),
              std::vector<Oid>{A("Person")});
    EXPECT_TRUE(own.db->DirectClassesOf(A(own.leaves)).empty());
    EXPECT_EQ(own.db->DirectClassesOf(A(other.leaves)),
              std::vector<Oid>{A("Person")});
    EXPECT_TRUE(InstancesMatchExtents(*own.db));
    EXPECT_TRUE(DomainMatchesRecompute(*own.db));
    EXPECT_TRUE(DispatchMatchesWalk(*own.db));
  }
  EXPECT_EQ(SaveSnapshot(*frozen), frozen_text);
  EXPECT_TRUE(InstancesMatchExtents(*frozen));
  EXPECT_EQ(frozen->Extent(A("Employee")).size(), 200u);
}

// ------------------------------------------------- snapshot isolation

// The snapshot-isolation stress test. Four writers commit through the
// manager: writer 0 bumps a contended scalar through a strictly
// increasing sequence; writers 1..3 each create a private run of
// sequentially numbered objects, waiting for each ack before issuing
// the next. Four latch-free readers hammer the extent and the scalar
// concurrently and assert, on every single read:
//   (a) the scalar is one committed value — never absent, torn, or
//       outside the issued sequence, and never going backwards between
//       two reads on the same connection (versions install in WAL
//       order);
//   (b) each writer's objects form a CONTIGUOUS PREFIX of its run — an
//       object can never be visible before its predecessor from the
//       same writer, because every version is a committed prefix of the
//       WAL;
//   (c) per-writer visibility never regresses between reads.
// Afterwards, serial replay of the WAL (recovery) must land on the
// exact live state — MVCC must not have weakened serializability.
TEST_F(MvccTest, SnapshotIsolationStress) {
  constexpr int kWriters = 4;
  constexpr int kReaders = 4;
  constexpr int kCommitsPerWriter = 25;
  constexpr int kReadsPerReader = 120;
  auto dd = MustOpen(dir_);
  ASSERT_NE(dd, nullptr);
  MustExecute(dd.get(), Prelude());
  ConcurrencyManager cm(dd.get());

  std::atomic<bool> writers_done{false};
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;

  for (int w = 0; w < kWriters; ++w) {
    threads.emplace_back([&, w] {
      auto sid = cm.CreateSession(SessionOptions{});
      if (!sid.ok()) {
        failures.fetch_add(1);
        return;
      }
      for (int i = 0; i < kCommitsPerWriter; ++i) {
        std::string stmt =
            w == 0 ? "UPDATE CLASS Person SET mary.Salary = " +
                         std::to_string(1000 + i)
                   : "UPDATE CLASS Person SET w" + std::to_string(w) + "_" +
                         std::to_string(i) + ".Salary = " +
                         std::to_string(i);
        if (!cm.Execute(*sid, stmt).ok()) failures.fetch_add(1);
      }
      cm.CloseSession(*sid);
    });
  }

  for (int r = 0; r < kReaders; ++r) {
    threads.emplace_back([&, r] {
      (void)r;
      auto sid = cm.CreateSession(SessionOptions{});
      if (!sid.ok()) {
        failures.fetch_add(1);
        return;
      }
      int64_t last_salary = -1;
      int last_prefix[kWriters] = {0};
      for (int i = 0; i < kReadsPerReader; ++i) {
        // (a) the contended scalar: exactly one committed value, from
        // the issued set, monotone on this connection.
        auto salary = cm.Execute(*sid, "SELECT T WHERE mary.Salary[T]");
        if (!salary.ok() || salary->relation.size() != 1 ||
            !salary->relation.rows()[0][0].is_numeric()) {
          failures.fetch_add(1);
          break;
        }
        const int64_t v = salary->relation.rows()[0][0].numeric_value();
        const bool issued =
            v == 100 || (v >= 1000 && v < 1000 + kCommitsPerWriter);
        if (!issued || v < last_salary) {
          failures.fetch_add(1);
          break;
        }
        last_salary = v;
        // (b) + (c) the extent: per-writer contiguous prefixes that
        // never shrink.
        auto extent = cm.Execute(*sid, "SELECT X FROM Person X");
        if (!extent.ok()) {
          failures.fetch_add(1);
          break;
        }
        std::set<std::string> names;
        for (const auto& row : extent->relation.rows()) {
          names.insert(row[0].ToString());
        }
        for (int w = 1; w < kWriters; ++w) {
          int count = 0;
          while (names.contains("w" + std::to_string(w) + "_" +
                                std::to_string(count))) {
            ++count;
          }
          // Contiguity: nothing from this writer beyond the first gap.
          for (int k = count + 1; k < kCommitsPerWriter; ++k) {
            if (names.contains("w" + std::to_string(w) + "_" +
                               std::to_string(k))) {
              failures.fetch_add(1);
            }
          }
          if (count < last_prefix[w]) failures.fetch_add(1);  // regressed
          last_prefix[w] = count;
        }
        if (writers_done.load() &&
            i + 20 < kReadsPerReader) {  // writers gone: a few more
          i = kReadsPerReader - 20;      // passes, then stop early
        }
      }
      cm.CloseSession(*sid);
    });
  }

  for (int t = 0; t < kWriters; ++t) threads[t].join();
  writers_done.store(true);
  for (size_t t = kWriters; t < threads.size(); ++t) threads[t].join();
  ASSERT_EQ(failures.load(), 0);

  // Serial replay of the WAL lands on the live state, byte for byte.
  auto reopened = MustOpen(dir_);
  ASSERT_NE(reopened, nullptr);
  EXPECT_EQ(SaveSnapshot(reopened->db()), SaveSnapshot(dd->db()));
  // And the final head snapshot IS that state.
  auto head = cm.PinSnapshot();
  ASSERT_NE(head, nullptr);
  EXPECT_EQ(SaveSnapshot(*head->db), SaveSnapshot(dd->db()));
}

// Read-your-own-writes: a commit is visible to the very next read on
// the same connection (install happens before the acknowledgement).
TEST_F(MvccTest, ReadYourOwnWrites) {
  auto dd = MustOpen(dir_);
  ASSERT_NE(dd, nullptr);
  MustExecute(dd.get(), Prelude());
  ConcurrencyManager cm(dd.get());
  auto sid = cm.CreateSession(SessionOptions{});
  ASSERT_TRUE(sid.ok());
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(cm.Execute(*sid, "UPDATE CLASS Person SET mary.Salary = " +
                                     std::to_string(500 + i))
                    .ok());
    auto read = cm.Execute(*sid, "SELECT T WHERE mary.Salary[T]");
    ASSERT_TRUE(read.ok()) << read.status().ToString();
    ASSERT_EQ(read->relation.size(), 1u);
    EXPECT_EQ(read->relation.rows()[0][0].numeric_value(), 500 + i);
  }
}

// ------------------------------------------------------- version GC

// Superseded versions are freed at the last pin release: a pinned
// snapshot keeps exactly its own version alive through arbitrary writer
// churn (bounded memory), frees it on release, and the chain never
// grows beyond pinned + head + the one in flight.
TEST_F(MvccTest, SupersededVersionsFreedAtLastPinRelease) {
  auto dd = MustOpen(dir_);
  ASSERT_NE(dd, nullptr);
  MustExecute(dd.get(), Prelude());
  ConcurrencyManager cm(dd.get());
  auto sid = cm.CreateSession(SessionOptions{});
  ASSERT_TRUE(sid.ok());

  std::shared_ptr<const storage::DatabaseVersion> pin = cm.PinSnapshot();
  ASSERT_NE(pin, nullptr);
  std::weak_ptr<const storage::DatabaseVersion> watch = pin;
  const std::string pinned_state = SaveSnapshot(*pin->db);
  const int64_t base = VersionChain::live_versions();

  // A long reader holds its snapshot while a writer churns 100 commits.
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(cm.Execute(*sid, "UPDATE CLASS Person SET mary.Salary = " +
                                     std::to_string(i))
                    .ok());
    // Bounded: the pinned version + the current head (+ nothing else
    // once the commit returned). Intermediate versions died as they
    // were superseded, regardless of how long we keep reading.
    EXPECT_LE(VersionChain::live_versions(), base + 1)
        << "version chain grew without bound at commit " << i;
    // The pinned snapshot still reads its original state.
    if (i % 25 == 0) {
      EXPECT_EQ(SaveSnapshot(*pin->db), pinned_state);
    }
  }

  // Release the last pin: the superseded version is freed on the spot.
  pin.reset();
  EXPECT_TRUE(watch.expired());
  EXPECT_EQ(VersionChain::live_versions(), base);

  // The head, of course, survived and serves the newest state.
  auto read = cm.Execute(*sid, "SELECT T WHERE mary.Salary[T]");
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(read->relation.rows()[0][0].numeric_value(), 99);
}

// ---------------------------------------------- crash through install

// Sweep a simulated kill through every byte of a commit's WAL append,
// driven through the manager. Whatever byte the crash lands on, the
// read head must still be the last durable version — a reader can never
// observe state that did not survive the crash. Recovery then exposes
// the committed prefix: the full statement iff every byte reached disk.
TEST_F(MvccTest, CrashSweepNeverAdvancesReadHead) {
  FaultInjector& fi = FaultInjector::Global();
  const std::string stmt = "UPDATE CLASS Person SET mary.Salary = 777";
  const uint64_t units = Wal::kRecordHeader + stmt.size();

  // Clean probe run: learn the pre- and post-statement snapshots.
  std::string pre, post;
  {
    auto dd = MustOpen(dir_);
    ASSERT_NE(dd, nullptr);
    MustExecute(dd.get(), Prelude());
    pre = SaveSnapshot(dd->db());
    ASSERT_TRUE(dd->Execute(stmt).ok());
    post = SaveSnapshot(dd->db());
  }
  ASSERT_NE(pre, post);

  for (uint64_t k = 1; k <= units; ++k) {
    SCOPED_TRACE("crash at byte " + std::to_string(k) + " of " +
                 std::to_string(units));
    std::filesystem::remove_all(dir_);
    auto dd = MustOpen(dir_);
    ASSERT_NE(dd, nullptr);
    MustExecute(dd.get(), Prelude());
    ConcurrencyManager cm(dd.get());
    auto sid = cm.CreateSession(SessionOptions{});
    ASSERT_TRUE(sid.ok());

    fi.ArmCrashAtByte(k);
    auto out = cm.Execute(*sid, stmt);
    EXPECT_FALSE(out.ok());
    EXPECT_TRUE(dd->wedged());
    fi.Disarm();

    // The head never moved: even when every byte reached disk, the
    // commit was not acknowledged, so no reader ever saw it.
    auto head = cm.PinSnapshot();
    ASSERT_NE(head, nullptr);
    EXPECT_EQ(SaveSnapshot(*head->db), pre);
    // A wedged instance refuses reads outright (final error).
    EXPECT_FALSE(cm.Execute(*sid, "SELECT X FROM Person X").ok());

    // Recovery exposes whole statements only.
    auto re = DurableDatabase::Open(dir_);
    ASSERT_TRUE(re.ok()) << re.status().ToString();
    EXPECT_EQ(SaveSnapshot((*re)->db()), k < units ? pre : post);
  }
}

// The replica apply path installs versions too: reads on a replica see
// applied batches atomically.
TEST_F(MvccTest, ApplyReplicatedInstallsNewHead) {
  auto dd = MustOpen(dir_);
  ASSERT_NE(dd, nullptr);
  ConcurrencyManager cm(dd.get());
  const uint64_t seq_before = cm.PinSnapshot()->sequence;
  std::vector<std::string> records = Prelude();
  auto n = cm.ApplyReplicated(records);
  ASSERT_TRUE(n.ok()) << n.status().ToString();
  EXPECT_EQ(*n, records.size());
  auto head = cm.PinSnapshot();
  EXPECT_GT(head->sequence, seq_before);
  EXPECT_EQ(SaveSnapshot(*head->db), SaveSnapshot(dd->db()));

  auto sid = cm.CreateSession(SessionOptions{});
  ASSERT_TRUE(sid.ok());
  auto read = cm.Execute(*sid, "SELECT T WHERE mary.Salary[T]");
  ASSERT_TRUE(read.ok()) << read.status().ToString();
  EXPECT_EQ(read->relation.rows()[0][0].numeric_value(), 100);
}

}  // namespace
}  // namespace server
}  // namespace xsql
