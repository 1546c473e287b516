// Durable sessions end to end: persist/reopen equality, DDL replay of
// views and query-defined methods, checkpoint rotation, and the crash
// property tests — a simulated kill swept through every byte boundary
// of a WAL append, a checkpoint, and an atomic snapshot save, each time
// proving the recovered state is byte-identical to the last durably
// acknowledged snapshot.
#include <gtest/gtest.h>

#include <filesystem>
#include <string>
#include <vector>

#include "common/fault.h"
#include "storage/file.h"
#include "storage/recovery.h"
#include "storage/snapshot.h"
#include "storage/wal.h"

namespace xsql {
namespace storage {
namespace {

using DD = DurableDatabase;

// Everything a durable test creates must be creatable *by statement*
// (recovery replays statements, not C++ setup). The language's DML
// surface builds objects via UPDATE CLASS (SetScalar creates the
// target), and class-objects — instances of the builtin meta-class
// `Class` — give view/method definitions a populated extent to range
// over without any generator.
std::vector<std::string> Prelude() {
  return {
      "ALTER CLASS Person ADD SIGNATURE Name => String",
      "ALTER CLASS Person ADD SIGNATURE Salary => Numeral",
      "UPDATE CLASS Person SET mary.Name = 'mary'",
      "UPDATE CLASS Person SET mary.Salary = 100",
  };
}

// Definition statements: an attribute on the meta-class, a view over
// the class extent, a materializing query, and a query-defined method.
std::vector<std::string> Definitions() {
  return {
      "ALTER CLASS Class ADD SIGNATURE Motto => String",
      "UPDATE CLASS Class SET Person.Motto = 'people first'",
      "CREATE VIEW Mottos AS SUBCLASS OF Object "
      "SIGNATURE M => String "
      "SELECT M = X.Motto FROM Class X OID FUNCTION OF X WHERE X.Motto[M]",
      "SELECT T FROM Class X WHERE Mottos(X).M[T]",  // materializes
      "ALTER CLASS Class ADD SIGNATURE Shout => String "
      "SELECT (Shout) = N FROM Class X OID X WHERE X.Motto[N]",
  };
}

class DurabilityTest : public ::testing::Test {
 protected:
  void SetUp() override {
    const auto* info =
        ::testing::UnitTest::GetInstance()->current_test_info();
    dir_ = ::testing::TempDir() + "/xsql_durable_" + info->name();
    std::filesystem::remove_all(dir_);
  }

  void TearDown() override {
    FaultInjector::Global().Disarm();
    std::filesystem::remove_all(dir_);
  }

  std::unique_ptr<DD> MustOpen(const std::string& dir,
                               DurableOptions options = {}) {
    auto dd = DD::Open(dir, std::move(options));
    EXPECT_TRUE(dd.ok()) << dd.status().ToString();
    return dd.ok() ? std::move(*dd) : nullptr;
  }

  void MustExecute(DD* dd, const std::vector<std::string>& script) {
    for (const std::string& stmt : script) {
      auto out = dd->Execute(stmt);
      ASSERT_TRUE(out.ok()) << stmt << ": " << out.status().ToString();
    }
  }

  std::string dir_;
};

TEST_F(DurabilityTest, FreshDirectoryInitializes) {
  auto dd = MustOpen(dir_);
  ASSERT_NE(dd, nullptr);
  EXPECT_EQ(dd->generation(), 1u);
  EXPECT_EQ(dd->replayed_statements(), 0u);
  EXPECT_FALSE(dd->recovered_torn_tail());
  EXPECT_TRUE(File::Exists(DD::CurrentPath(dir_)));
  EXPECT_TRUE(File::Exists(DD::SnapshotPath(dir_, 1)));
  EXPECT_TRUE(File::Exists(DD::WalPath(dir_, 1)));
  // Definitions ride in the snapshot; there is no DDL log any more.
  EXPECT_FALSE(File::Exists(DD::DdlPath(dir_, 1)));
}

TEST_F(DurabilityTest, StatementsPersistAcrossReopen) {
  std::string acked;
  {
    auto dd = MustOpen(dir_);
    ASSERT_NE(dd, nullptr);
    MustExecute(dd.get(), Prelude());
    EXPECT_EQ(dd->wal_records(), 4u);
    acked = SaveSnapshot(dd->db());
  }
  auto dd = MustOpen(dir_);
  ASSERT_NE(dd, nullptr);
  EXPECT_EQ(dd->replayed_statements(), 4u);
  EXPECT_FALSE(dd->recovered_torn_tail());
  EXPECT_EQ(SaveSnapshot(dd->db()), acked);
  auto rel = dd->Query("SELECT T WHERE mary.Name[T]");
  ASSERT_TRUE(rel.ok()) << rel.status().ToString();
  ASSERT_EQ(rel->size(), 1u);
  EXPECT_EQ(rel->rows()[0][0], Oid::String("mary"));
}

TEST_F(DurabilityTest, ReadOnlyStatementsAreNotLogged) {
  auto dd = MustOpen(dir_);
  ASSERT_NE(dd, nullptr);
  MustExecute(dd.get(), Prelude());
  const uint64_t records = dd->wal_records();
  const uint64_t bytes = dd->wal_bytes();
  ASSERT_TRUE(dd->Query("SELECT T WHERE mary.Name[T]").ok());
  ASSERT_TRUE(dd->Query("SELECT $X WHERE Person subclassOf $X").ok());
  EXPECT_EQ(dd->wal_records(), records);
  EXPECT_EQ(dd->wal_bytes(), bytes);
}

TEST_F(DurabilityTest, FailedStatementLeavesNoTrace) {
  auto dd = MustOpen(dir_);
  ASSERT_NE(dd, nullptr);
  MustExecute(dd.get(), Prelude());
  const std::string before = SaveSnapshot(dd->db());
  const uint64_t bytes = dd->wal_bytes();
  // Resolvable class, ill-formed assignment target.
  EXPECT_FALSE(dd->Execute("UPDATE CLASS Person SET mary = 5").ok());
  // Unparseable input.
  EXPECT_FALSE(dd->Execute("SELECT FROM WHERE").ok());
  EXPECT_EQ(SaveSnapshot(dd->db()), before);
  EXPECT_EQ(dd->wal_bytes(), bytes);
  auto size = File::Size(DD::WalPath(dir_, 1));
  ASSERT_TRUE(size.ok());
  EXPECT_EQ(*size, bytes);
}

TEST_F(DurabilityTest, NonFiniteArithmeticIsRejectedNotStored) {
  // The snapshot loader rejects non-finite reals, so a statement that
  // stored one used to ack, checkpoint, and leave the directory
  // unopenable. Sixteen factors of 1e20 overflow a double; an integer
  // result beyond int64 is rejected alike.
  std::string product = "100000000000000000000.0";
  for (int i = 1; i < 16; ++i) product += " * 100000000000000000000.0";
  std::string before;
  {
    auto dd = MustOpen(dir_);
    ASSERT_NE(dd, nullptr);
    MustExecute(dd.get(), Prelude());
    before = SaveSnapshot(dd->db());
    const uint64_t records = dd->wal_records();
    for (const std::string& value :
         {product, std::string("9223372036854775807 * 2")}) {
      auto out =
          dd->Execute("UPDATE CLASS Person SET mary.Salary = " + value);
      ASSERT_FALSE(out.ok()) << value;
      EXPECT_EQ(out.status().code(), StatusCode::kRuntimeError)
          << out.status().ToString();
    }
    EXPECT_EQ(dd->wal_records(), records);
    EXPECT_EQ(SaveSnapshot(dd->db()), before);
    ASSERT_TRUE(dd->Checkpoint().ok());
  }
  auto dd = MustOpen(dir_);
  ASSERT_NE(dd, nullptr);
  EXPECT_EQ(SaveSnapshot(dd->db()), before);
}

TEST_F(DurabilityTest, NonFiniteAggregateIsRejectedNotStored) {
  // The same hole through SUM: two finite reals whose sum is infinite
  // used to be stored, and the next open failed on the checkpoint.
  std::string before;
  {
    auto dd = MustOpen(dir_);
    ASSERT_NE(dd, nullptr);
    MustExecute(dd.get(), Prelude());
    MustExecute(dd.get(),
                {"UPDATE CLASS Person SET kid.Age = 9e307",
                 "UPDATE CLASS Person SET spouse.Age = 9.9e307",
                 "UPDATE CLASS Person SET mary.FamMembers = {kid, spouse}"});
    before = SaveSnapshot(dd->db());
    const uint64_t records = dd->wal_records();
    auto out = dd->Execute(
        "UPDATE CLASS Person SET mary.Age = sum(mary.FamMembers.Age)");
    ASSERT_FALSE(out.ok());
    EXPECT_EQ(out.status().code(), StatusCode::kRuntimeError)
        << out.status().ToString();
    EXPECT_EQ(dd->wal_records(), records);
    EXPECT_EQ(SaveSnapshot(dd->db()), before);
    ASSERT_TRUE(dd->Checkpoint().ok());
  }
  auto dd = MustOpen(dir_);
  ASSERT_NE(dd, nullptr);
  EXPECT_EQ(SaveSnapshot(dd->db()), before);
}

TEST_F(DurabilityTest, ViewsAndMethodsSurviveReopen) {
  std::string acked;
  {
    auto dd = MustOpen(dir_);
    ASSERT_NE(dd, nullptr);
    MustExecute(dd.get(), Prelude());
    MustExecute(dd.get(), Definitions());
    acked = SaveSnapshot(dd->db());
  }
  auto dd = MustOpen(dir_);
  ASSERT_NE(dd, nullptr);
  EXPECT_EQ(SaveSnapshot(dd->db()), acked);
  // The view extent survived (data) *and* its definition replays
  // (executable): both the materialized instances and a fresh use of
  // the defining query must work.
  auto view = dd->Query("SELECT X.M FROM Mottos X");
  ASSERT_TRUE(view.ok()) << view.status().ToString();
  ASSERT_EQ(view->size(), 1u);
  EXPECT_EQ(view->rows()[0][0], Oid::String("people first"));
  // The query-defined method body is not in any snapshot; only DDL
  // replay can restore it.
  auto method = dd->Query("SELECT T WHERE Person.Shout[T]");
  ASSERT_TRUE(method.ok()) << method.status().ToString();
  ASSERT_EQ(method->size(), 1u);
  EXPECT_EQ(method->rows()[0][0], Oid::String("people first"));
}

TEST_F(DurabilityTest, CheckpointRotatesGenerationAndCompactsReplay) {
  std::string acked;
  {
    // retain_generations = 1 prunes eagerly; the default (2) keeps the
    // previous generation around for replica bootstrap (covered in
    // replication_test).
    DurableOptions options;
    options.retain_generations = 1;
    auto dd = MustOpen(dir_, options);
    ASSERT_NE(dd, nullptr);
    MustExecute(dd.get(), Prelude());
    MustExecute(dd.get(), Definitions());
    acked = SaveSnapshot(dd->db());
    ASSERT_TRUE(dd->Checkpoint().ok());
    EXPECT_EQ(dd->generation(), 2u);
    // Old generation is gone; new one is live.
    EXPECT_FALSE(File::Exists(DD::SnapshotPath(dir_, 1)));
    EXPECT_FALSE(File::Exists(DD::WalPath(dir_, 1)));
    EXPECT_TRUE(File::Exists(DD::SnapshotPath(dir_, 2)));
    // Checkpoint changes no logical state.
    EXPECT_EQ(SaveSnapshot(dd->db()), acked);
    // The instance stays usable after rotation.
    ASSERT_TRUE(
        dd->Execute("UPDATE CLASS Person SET mary.Salary = 200").ok());
    EXPECT_EQ(dd->wal_records(), 1u);
    acked = SaveSnapshot(dd->db());
  }
  auto dd = MustOpen(dir_);
  ASSERT_NE(dd, nullptr);
  EXPECT_EQ(dd->generation(), 2u);
  // Only the post-checkpoint statement replays from the WAL.
  EXPECT_EQ(dd->replayed_statements(), 1u);
  EXPECT_EQ(SaveSnapshot(dd->db()), acked);
  // Definitions came back through the rotated DDL log.
  auto method = dd->Query("SELECT T WHERE Person.Shout[T]");
  ASSERT_TRUE(method.ok()) << method.status().ToString();
  ASSERT_EQ(method->size(), 1u);
}

TEST_F(DurabilityTest, AutoCheckpointAfterEveryNStatements) {
  DurableOptions options;
  options.checkpoint_every = 2;
  std::string acked;
  {
    auto dd = MustOpen(dir_, options);
    ASSERT_NE(dd, nullptr);
    MustExecute(dd.get(), Prelude());  // 4 mutating statements
    EXPECT_EQ(dd->generation(), 3u);   // two rotations
    EXPECT_EQ(dd->wal_records(), 0u);
    acked = SaveSnapshot(dd->db());
  }
  auto dd = MustOpen(dir_);
  ASSERT_NE(dd, nullptr);
  EXPECT_EQ(dd->generation(), 3u);
  EXPECT_EQ(dd->replayed_statements(), 0u);  // everything checkpointed
  EXPECT_EQ(SaveSnapshot(dd->db()), acked);
}

TEST_F(DurabilityTest, TornWalTailIsTruncatedOnRecovery) {
  std::string acked;
  {
    auto dd = MustOpen(dir_);
    ASSERT_NE(dd, nullptr);
    MustExecute(dd.get(), Prelude());
    acked = SaveSnapshot(dd->db());
  }
  // A crash mid-append: half a record's bytes beyond the acked prefix.
  std::string torn =
      Wal::EncodeRecord("UPDATE CLASS Person SET mary.Salary = 999");
  {
    auto f = File::OpenAppend(DD::WalPath(dir_, 1));
    ASSERT_TRUE(f.ok());
    ASSERT_TRUE(f->Write(torn.substr(0, torn.size() - 3)).ok());
    ASSERT_TRUE(f->Sync().ok());
    ASSERT_TRUE(f->Close().ok());
  }
  auto dd = MustOpen(dir_);
  ASSERT_NE(dd, nullptr);
  EXPECT_TRUE(dd->recovered_torn_tail());
  EXPECT_EQ(dd->replayed_statements(), 4u);
  EXPECT_EQ(SaveSnapshot(dd->db()), acked);
  // The tail was physically truncated, so the next append produces a
  // clean log.
  ASSERT_TRUE(
      dd->Execute("UPDATE CLASS Person SET mary.Salary = 300").ok());
  auto scan = Wal::ScanFile(DD::WalPath(dir_, 1));
  ASSERT_TRUE(scan.ok());
  EXPECT_FALSE(scan->torn);
  EXPECT_EQ(scan->records.size(), 5u);
}

TEST_F(DurabilityTest, WedgedAfterCrashUntilReopen) {
  auto dd = MustOpen(dir_);
  ASSERT_NE(dd, nullptr);
  MustExecute(dd.get(), Prelude());
  FaultInjector::Global().ArmCrashAtByte(1);
  EXPECT_FALSE(
      dd->Execute("UPDATE CLASS Person SET mary.Salary = 1").ok());
  EXPECT_TRUE(dd->wedged());
  // Every further call fails, even after disarming: the instance
  // represents a dead process.
  FaultInjector::Global().Disarm();
  EXPECT_FALSE(
      dd->Execute("UPDATE CLASS Person SET mary.Salary = 2").ok());
  EXPECT_FALSE(dd->Checkpoint().ok());
  auto re = MustOpen(dir_);
  ASSERT_NE(re, nullptr);
  EXPECT_FALSE(re->wedged());
}

// A directory written before snapshot format 3: a version-2 snapshot,
// the definitions in `ddl-1.log`, and one more definition in the WAL
// tail. Opening upgrades it in memory; the next checkpoint writes no
// DDL log, and the definitions keep answering across reopens.
TEST_F(DurabilityTest, LegacyDdlLogLayoutUpgrades) {
  const std::string whisper =
      "ALTER CLASS Class ADD SIGNATURE Whisper => String "
      "SELECT (Whisper) = N FROM Class X OID X WHERE X.Motto[N]";
  // The legacy generation's state: a checkpoint taken right after
  // Prelude() + Definitions(). Old snapshots held everything but the
  // DEF records, under a version-2 header.
  std::string legacy_snapshot;
  std::vector<std::string> legacy_ddl;
  {
    const std::string src = dir_ + "_src";
    std::filesystem::remove_all(src);
    auto dd = MustOpen(src);
    ASSERT_NE(dd, nullptr);
    MustExecute(dd.get(), Prelude());
    MustExecute(dd.get(), Definitions());
    legacy_ddl = dd->db().definitions();
    const std::string v3 = SaveSnapshot(dd->db());
    ASSERT_EQ(SnapshotVersion(v3), 3);
    legacy_snapshot = "XSQL-SNAPSHOT 2\n";
    size_t pos = v3.find('\n') + 1;
    while (pos < v3.size()) {
      const size_t end = v3.find('\n', pos) + 1;
      const std::string line = v3.substr(pos, end - pos);
      if (line.rfind("DEF ", 0) != 0) legacy_snapshot += line;
      pos = end;
    }
    dd.reset();
    std::filesystem::remove_all(src);
  }
  ASSERT_EQ(legacy_ddl.size(), 2u);  // the CREATE VIEW and Shout
  std::string ddl_log(Wal::kMagic);
  for (const std::string& stmt : legacy_ddl) {
    ddl_log += Wal::EncodeRecord(stmt);
  }
  ASSERT_TRUE(File::EnsureDir(dir_).ok());
  ASSERT_TRUE(
      File::WriteAtomic(DD::SnapshotPath(dir_, 1), legacy_snapshot).ok());
  ASSERT_TRUE(File::WriteAtomic(DD::DdlPath(dir_, 1), ddl_log).ok());
  ASSERT_TRUE(File::WriteAtomic(DD::WalPath(dir_, 1),
                                std::string(Wal::kMagic) +
                                    Wal::EncodeRecord(whisper))
                  .ok());
  ASSERT_TRUE(File::WriteAtomic(DD::CurrentPath(dir_), "1\n").ok());

  auto expect_definitions_answer = [](DD* dd) {
    auto view = dd->Query("SELECT T FROM Class X WHERE Mottos(X).M[T]");
    ASSERT_TRUE(view.ok()) << view.status().ToString();
    ASSERT_EQ(view->size(), 1u);
    EXPECT_EQ(view->rows()[0][0], Oid::String("people first"));
    for (const char* method : {"Shout", "Whisper"}) {
      auto out = dd->Query(std::string("SELECT T WHERE Person.") + method +
                           "[T]");
      ASSERT_TRUE(out.ok()) << method << ": " << out.status().ToString();
      ASSERT_EQ(out->size(), 1u) << method;
      EXPECT_EQ(out->rows()[0][0], Oid::String("people first")) << method;
    }
  };
  std::vector<std::string> expected_defs = legacy_ddl;
  expected_defs.push_back(whisper);
  std::string acked;
  {
    DurableOptions options;
    options.retain_generations = 1;
    auto dd = MustOpen(dir_, options);
    ASSERT_NE(dd, nullptr);
    EXPECT_EQ(dd->replayed_statements(), 1u);
    EXPECT_EQ(dd->db().definitions(), expected_defs);
    expect_definitions_answer(dd.get());
    ASSERT_TRUE(dd->Checkpoint().ok());
    EXPECT_EQ(dd->generation(), 2u);
    EXPECT_TRUE(File::Exists(DD::SnapshotPath(dir_, 2)));
    EXPECT_FALSE(File::Exists(DD::DdlPath(dir_, 2)));
    EXPECT_FALSE(File::Exists(DD::DdlPath(dir_, 1)));  // pruned
    acked = SaveSnapshot(dd->db());
  }
  auto dd = MustOpen(dir_);
  ASSERT_NE(dd, nullptr);
  EXPECT_EQ(dd->replayed_statements(), 0u);
  EXPECT_EQ(SaveSnapshot(dd->db()), acked);
  EXPECT_EQ(dd->db().definitions(), expected_defs);
  expect_definitions_answer(dd.get());
}

// A stale DDL log beside a version-3 snapshot — what a replica
// directory reused from an older life looks like after a bootstrap
// bundle is installed over it — is ignored, not replayed.
TEST_F(DurabilityTest, StaleDdlLogBesideCurrentSnapshotIsIgnored) {
  const std::string primary_dir = dir_ + "_primary";
  std::filesystem::remove_all(primary_dir);
  BootstrapBundle bundle;
  std::string acked;
  {
    auto primary = MustOpen(primary_dir);
    ASSERT_NE(primary, nullptr);
    MustExecute(primary.get(), Prelude());
    ASSERT_TRUE(primary->Checkpoint().ok());
    auto read = primary->ReadBootstrapBundle();
    ASSERT_TRUE(read.ok()) << read.status().ToString();
    bundle = std::move(*read);
    primary->UnpinGeneration(bundle.generation);
    acked = SaveSnapshot(primary->db());
  }
  std::filesystem::remove_all(primary_dir);
  ASSERT_EQ(SnapshotVersion(bundle.snapshot), 3);

  ASSERT_TRUE(File::EnsureDir(dir_).ok());
  ASSERT_TRUE(File::WriteAtomic(
                  DD::DdlPath(dir_, bundle.generation),
                  std::string(Wal::kMagic) +
                      Wal::EncodeRecord(
                          "CREATE VIEW Names AS SUBCLASS OF Object "
                          "SIGNATURE N => String SELECT N = X.Name "
                          "FROM Person X OID FUNCTION OF X WHERE X.Name[N]"))
                  .ok());
  ASSERT_TRUE(DD::InstallBootstrapBundle(dir_, bundle).ok());

  auto dd = MustOpen(dir_);
  ASSERT_NE(dd, nullptr);
  EXPECT_EQ(dd->generation(), bundle.generation);
  EXPECT_FALSE(dd->session().views().IsView("Names"));
  EXPECT_TRUE(dd->db().definitions().empty());
  EXPECT_EQ(SaveSnapshot(dd->db()), acked);
}

// A WAL-append failure on a CREATE VIEW withdraws the whole statement:
// the catalog entry, the materialized objects, and the entry in the
// definition list (which SaveSnapshot serializes, so byte equality
// proves the list's undo entry ran).
TEST_F(DurabilityTest, WalAppendFailureWithdrawsDefinition) {
  FaultInjector& fi = FaultInjector::Global();
  auto dd = MustOpen(dir_);
  ASSERT_NE(dd, nullptr);
  MustExecute(dd.get(), Prelude());
  const std::string pre = SaveSnapshot(dd->db());
  const std::string stmt =
      "CREATE VIEW Names AS SUBCLASS OF Object SIGNATURE N => String "
      "SELECT N = X.Name FROM Person X OID FUNCTION OF X WHERE X.Name[N]";

  size_t injected = 0;
  for (uint64_t n = 1;; ++n) {
    ASSERT_LT(n, 100u) << "statement never ran clean";
    fi.ArmNth(FaultInjector::Domain::kIo, n);
    auto out = dd->Execute(stmt);
    const bool fired = fi.fired();
    fi.Disarm();
    if (out.ok()) {
      EXPECT_FALSE(fired);
      break;
    }
    ++injected;
    EXPECT_FALSE(dd->wedged()) << "n=" << n;
    EXPECT_EQ(SaveSnapshot(dd->db()), pre) << "n=" << n;
    EXPECT_TRUE(dd->db().definitions().empty()) << "n=" << n;
    EXPECT_FALSE(dd->session().views().IsView("Names")) << "n=" << n;
  }
  EXPECT_GE(injected, 1u);
  EXPECT_EQ(dd->db().definitions(), std::vector<std::string>{stmt});
  EXPECT_NE(SaveSnapshot(dd->db()), pre);
}

// ---- The crash-point property tests ----------------------------------

// Sweep a simulated kill through every byte of one WAL append. For
// every crash point strictly inside the record the recovered database
// equals the pre-statement snapshot; at the final byte the record is
// fully durable (acknowledged or not, the recovery contract only ever
// exposes whole statements).
TEST_F(DurabilityTest, CrashSweepThroughWalAppend) {
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
  std::filesystem::remove_all(dir_);

  for (uint64_t k = 1; k <= units; ++k) {
    SCOPED_TRACE("crash at byte " + std::to_string(k) + " of " +
                 std::to_string(units));
    std::filesystem::remove_all(dir_);
    auto dd = MustOpen(dir_);
    ASSERT_NE(dd, nullptr);
    MustExecute(dd.get(), Prelude());

    fi.ArmCrashAtByte(k);
    auto out = dd->Execute(stmt);
    EXPECT_FALSE(out.ok());
    EXPECT_TRUE(fi.crashed());
    EXPECT_TRUE(dd->wedged());
    fi.Disarm();

    auto re = DD::Open(dir_);
    ASSERT_TRUE(re.ok()) << re.status().ToString();
    if (k < units) {
      // The torn record was discarded; the statement never happened.
      EXPECT_EQ(SaveSnapshot((*re)->db()), pre);
      EXPECT_TRUE((*re)->recovered_torn_tail());
      EXPECT_EQ((*re)->replayed_statements(), 4u);
    } else {
      // Every byte reached disk before the kill: the statement is
      // durable even though it was never acknowledged.
      EXPECT_EQ(SaveSnapshot((*re)->db()), post);
      EXPECT_FALSE((*re)->recovered_torn_tail());
      EXPECT_EQ((*re)->replayed_statements(), 5u);
    }
    // The recovered instance accepts new work.
    ASSERT_TRUE(
        (*re)->Execute("UPDATE CLASS Person SET mary.Salary = 5").ok());
  }
}

// Sweep a simulated kill through every persistence unit of a
// checkpoint. A checkpoint changes no logical state, so whatever the
// crash point — inside the new snapshot, the DDL log, the fresh WAL,
// or the CURRENT flip itself — recovery must always reproduce the
// pre-checkpoint snapshot, from whichever generation survived.
TEST_F(DurabilityTest, CrashSweepThroughCheckpoint) {
  FaultInjector& fi = FaultInjector::Global();
  uint64_t k = 1;
  for (;; ++k) {
    ASSERT_LT(k, 20000u) << "checkpoint never ran clean";
    SCOPED_TRACE("crash at unit " + std::to_string(k));
    std::filesystem::remove_all(dir_);
    auto dd = MustOpen(dir_);
    ASSERT_NE(dd, nullptr);
    MustExecute(dd.get(), Prelude());
    MustExecute(dd.get(), Definitions());
    const std::string acked = SaveSnapshot(dd->db());

    fi.ArmCrashAtByte(k);
    Status st = dd->Checkpoint();
    const bool crashed = fi.crashed();
    fi.Disarm();

    auto re = DD::Open(dir_);
    ASSERT_TRUE(re.ok()) << re.status().ToString();
    EXPECT_EQ(SaveSnapshot((*re)->db()), acked);
    // Definitions survive whichever generation recovery picked.
    auto method = (*re)->Query("SELECT T WHERE Person.Shout[T]");
    ASSERT_TRUE(method.ok()) << method.status().ToString();
    EXPECT_EQ(method->size(), 1u);

    if (!crashed) {
      EXPECT_TRUE(st.ok()) << st.ToString();
      EXPECT_EQ((*re)->generation(), 2u);
      break;  // budget outlived the whole rotation: sweep complete
    }
  }
  EXPECT_GT(k, 100u);  // the sweep really visited many byte positions
}

// Sweep a simulated kill through every byte of an atomic snapshot
// save. The file must always read back as one of the two complete
// snapshots — never truncated, never interleaved.
TEST_F(DurabilityTest, CrashSweepThroughAtomicSnapshotSave) {
  FaultInjector& fi = FaultInjector::Global();
  ASSERT_TRUE(File::EnsureDir(dir_).ok());
  const std::string path = dir_ + "/snapshot.db";

  Database old_db;
  std::string old_snap = SaveSnapshot(old_db);
  ASSERT_TRUE(SaveSnapshotToFile(old_db, path).ok());

  Database new_db;
  ASSERT_TRUE(new_db.DeclareClass(Oid::Atom("Person")).ok());
  ASSERT_TRUE(new_db.SetScalar(Oid::Atom("mary"), Oid::Atom("Name"),
                               Oid::String("mary")).ok());
  std::string new_snap = SaveSnapshot(new_db);
  ASSERT_NE(old_snap, new_snap);

  uint64_t k = 1;
  for (;; ++k) {
    ASSERT_LT(k, 20000u) << "atomic save never ran clean";
    fi.ArmCrashAtByte(k);
    Status st = SaveSnapshotToFile(new_db, path);
    const bool crashed = fi.crashed();
    fi.Disarm();

    auto contents = File::ReadAll(path);
    ASSERT_TRUE(contents.ok()) << "k=" << k;
    EXPECT_TRUE(*contents == old_snap || *contents == new_snap)
        << "k=" << k << ": torn snapshot of " << contents->size()
        << " bytes";
    if (!crashed) {
      EXPECT_TRUE(st.ok());
      EXPECT_EQ(*contents, new_snap);
      break;
    }
    // Re-seed the old file for the next crash point if the new one
    // did not commit.
    if (*contents == old_snap) {
      ASSERT_TRUE(SaveSnapshotToFile(old_db, path).ok());
    } else {
      old_snap = new_snap;  // committed early: old and new now agree
    }
  }
  EXPECT_GT(k, old_snap.size());  // swept at least through the payload
}

// ArmNth transient I/O faults (short write / failed fsync, process
// survives): every failed Execute leaves both the in-memory database
// and the on-disk log exactly as they were, and the same instance
// keeps working.
TEST_F(DurabilityTest, TransientIoFaultSweepOverExecute) {
  FaultInjector& fi = FaultInjector::Global();
  auto dd = MustOpen(dir_);
  ASSERT_NE(dd, nullptr);
  MustExecute(dd.get(), Prelude());
  const std::string pre = SaveSnapshot(dd->db());
  const std::string stmt = "UPDATE CLASS Person SET mary.Salary = 321";

  size_t injected = 0;
  for (uint64_t n = 1;; ++n) {
    ASSERT_LT(n, 100u) << "statement never ran clean";
    auto before = Wal::ScanFile(DD::WalPath(dir_, 1));
    ASSERT_TRUE(before.ok());
    fi.ArmNth(FaultInjector::Domain::kIo, n);
    auto out = dd->Execute(stmt);
    const bool fired = fi.fired();
    fi.Disarm();
    if (out.ok()) {
      EXPECT_FALSE(fired);
      break;
    }
    ++injected;
    EXPECT_FALSE(dd->wedged()) << "transient faults must not wedge";
    EXPECT_EQ(SaveSnapshot(dd->db()), pre) << "n=" << n;
    auto after = Wal::ScanFile(DD::WalPath(dir_, 1));
    ASSERT_TRUE(after.ok());
    EXPECT_EQ(after->records, before->records) << "n=" << n;
    EXPECT_FALSE(after->torn) << "n=" << n;
  }
  EXPECT_GE(injected, 2u);
  EXPECT_NE(SaveSnapshot(dd->db()), pre);  // the clean run committed
}

}  // namespace
}  // namespace storage
}  // namespace xsql
