// Snapshot persistence: byte-exact oid codec, full database round
// trips, query-equivalence across save/load, and malformed-input
// rejection.
#include <gtest/gtest.h>

#include <cstdio>

#include "common/crc32.h"
#include "domain_oracle.h"
#include "eval/session.h"
#include "storage/file.h"
#include "storage/snapshot.h"
#include "workload/fig1_schema.h"
#include "workload/generator.h"

namespace xsql {
namespace {

Oid A(const char* s) { return Oid::Atom(s); }

using testing_oracle::DispatchMatchesWalk;
using testing_oracle::DomainMatchesRecompute;
using testing_oracle::InstancesMatchExtents;

TEST(OidCodecTest, RoundTripsEveryKind) {
  const Oid cases[] = {
      Oid::Nil(),
      Oid::Bool(true),
      Oid::Bool(false),
      Oid::Int(0),
      Oid::Int(-123456789),
      Oid::Real(3.14159265358979),
      Oid::Real(-0.5),
      Oid::String(""),
      Oid::String("hello world with spaces"),
      Oid::String("punct: []{};:'\" and more"),
      Oid::Atom("mary123"),
      Oid::Term("secretary", {A("dept77")}),
      Oid::Term("f", {Oid::Int(1), Oid::Term("g", {Oid::String("x y")})}),
      Oid::Term("empty", {}),
  };
  for (const Oid& oid : cases) {
    std::string encoded;
    storage::EncodeOid(oid, &encoded);
    size_t pos = 0;
    auto decoded = storage::DecodeOid(encoded, &pos);
    ASSERT_TRUE(decoded.ok()) << oid.ToString() << " / " << encoded;
    EXPECT_EQ(*decoded, oid) << encoded;
    EXPECT_EQ(pos, encoded.size());
  }
}

TEST(OidCodecTest, RoundTripsNewlinesAndBackslashes) {
  // Regression: v1 could not represent payloads with embedded newlines
  // in its line-oriented format; v2 escapes them.
  const Oid cases[] = {
      Oid::String("line one\nline two"),
      Oid::String("trailing newline\n"),
      Oid::String("\n"),
      Oid::String("back\\slash"),
      Oid::String("mix\\n of \\ and \n literal"),
      Oid::Atom("odd\natom"),
      Oid::Term("fn\nwith newline", {Oid::String("arg\n")}),
  };
  for (const Oid& oid : cases) {
    std::string encoded;
    storage::EncodeOid(oid, &encoded);
    EXPECT_EQ(encoded.find('\n'), std::string::npos) << encoded;
    size_t pos = 0;
    auto decoded = storage::DecodeOid(encoded, &pos);
    ASSERT_TRUE(decoded.ok()) << encoded;
    EXPECT_EQ(*decoded, oid) << encoded;
    EXPECT_EQ(pos, encoded.size());
  }
}

TEST(OidCodecTest, RejectsGarbage) {
  for (const char* bad : {"", "x", "i12", "s5:ab", "t3:foo", "b", "szz:"}) {
    size_t pos = 0;
    EXPECT_FALSE(storage::DecodeOid(bad, &pos).ok()) << bad;
  }
  // Non-finite reals would break Oid's total order; the codec rejects
  // them rather than admitting a poisoned value into sorted containers.
  for (const char* bad : {"rnan;", "rinf;", "r-inf;"}) {
    size_t pos = 0;
    EXPECT_FALSE(storage::DecodeOid(bad, &pos).ok()) << bad;
  }
}

class SnapshotTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(workload::BuildFig1Schema(&db_).ok());
    workload::WorkloadParams params;
    params.companies = 2;
    ASSERT_TRUE(workload::GenerateFig1Data(&db_, params).ok());
  }

  Database db_;
};

TEST_F(SnapshotTest, FullRoundTrip) {
  std::string snapshot = storage::SaveSnapshot(db_);
  EXPECT_FALSE(snapshot.empty());
  Database restored;
  ASSERT_TRUE(storage::LoadSnapshot(snapshot, &restored).ok());
  // Same classes and IS-A facts.
  EXPECT_EQ(restored.graph().classes().size(), db_.graph().classes().size());
  for (const Oid& cls : db_.graph().classes()) {
    ASSERT_TRUE(restored.graph().IsClass(cls)) << cls.ToString();
    for (const Oid& super : db_.graph().DirectSuperclasses(cls)) {
      EXPECT_TRUE(restored.graph().IsStrictSubclass(cls, super));
    }
  }
  // Same objects, attribute for attribute.
  ASSERT_EQ(restored.object_count(), db_.object_count());
  db_.ForEachObject([&](const Oid& oid, const Object& object) {
    const Object* other = restored.GetObject(oid);
    ASSERT_NE(other, nullptr) << oid.ToString();
    EXPECT_EQ(other->ToString(), object.ToString());
  });
  // Same extents (instance-of restored).
  EXPECT_EQ(restored.Extent(A("Employee")), db_.Extent(A("Employee")));
  EXPECT_EQ(restored.Extent(A("Automobile")), db_.Extent(A("Automobile")));
  // Same signatures.
  EXPECT_EQ(
      restored.signatures().Declared(A("Employee"), A("Salary")).size(),
      db_.signatures().Declared(A("Employee"), A("Salary")).size());
  // The loader recounts the domain it wrote around: same domain, exact.
  EXPECT_TRUE(DomainMatchesRecompute(restored));
  EXPECT_TRUE(DispatchMatchesWalk(restored));
  EXPECT_TRUE(InstancesMatchExtents(restored));
  EXPECT_EQ(restored.ActiveDomain().ToOidSet(), db_.ActiveDomain().ToOidSet());
}

// The recount restores occurrence counts, not just membership: after a
// load, a value leaves the domain exactly when its last occurrence goes.
TEST_F(SnapshotTest, LoadedDomainKeepsCountingWrites) {
  ASSERT_TRUE(db_.SetScalar(A("mary123"), A("Tag"), Oid::Int(4242)).ok());
  ASSERT_TRUE(db_.SetScalar(A("_john13"), A("Tag"), Oid::Int(4242)).ok());
  Database restored;
  ASSERT_TRUE(
      storage::LoadSnapshot(storage::SaveSnapshot(db_), &restored).ok());
  ASSERT_TRUE(restored.ClearAttribute(A("mary123"), A("Tag")).ok());
  EXPECT_TRUE(restored.ActiveDomain().Contains(Oid::Int(4242)));
  ASSERT_TRUE(restored.SetScalar(A("_john13"), A("Tag"), Oid::Int(1)).ok());
  EXPECT_FALSE(restored.ActiveDomain().Contains(Oid::Int(4242)));
  EXPECT_TRUE(DomainMatchesRecompute(restored));
  EXPECT_TRUE(DispatchMatchesWalk(restored));
  EXPECT_TRUE(InstancesMatchExtents(restored));
  // A second round trip of the written state agrees too.
  Database again;
  ASSERT_TRUE(
      storage::LoadSnapshot(storage::SaveSnapshot(restored), &again).ok());
  EXPECT_TRUE(DomainMatchesRecompute(again));
  EXPECT_TRUE(DispatchMatchesWalk(again));
  EXPECT_TRUE(InstancesMatchExtents(again));
  EXPECT_EQ(again.ActiveDomain().ToOidSet(),
            restored.ActiveDomain().ToOidSet());
}

TEST_F(SnapshotTest, NewlineInStringAttributeRoundTrips) {
  ASSERT_TRUE(db_.NewObject(A("memo1"), {A("Object")}).ok());
  ASSERT_TRUE(db_.SetScalar(A("memo1"), A("Body"),
                            Oid::String("dear all,\nmeeting at 9\n-- hr"))
                  .ok());
  std::string snapshot = storage::SaveSnapshot(db_);
  Database restored;
  ASSERT_TRUE(storage::LoadSnapshot(snapshot, &restored).ok());
  const Object* memo = restored.GetObject(A("memo1"));
  ASSERT_NE(memo, nullptr);
  const AttrValue* body = memo->Get(A("Body"));
  ASSERT_NE(body, nullptr);
  EXPECT_EQ(body->scalar(), Oid::String("dear all,\nmeeting at 9\n-- hr"));
}

TEST_F(SnapshotTest, CanonicalSnapshotIsByteStable) {
  // Two saves of the same database are byte-identical, and a restored
  // database saves to the exact same bytes (sorted emission makes the
  // unordered backing maps invisible).
  std::string first = storage::SaveSnapshot(db_);
  EXPECT_EQ(first, storage::SaveSnapshot(db_));
  Database restored;
  ASSERT_TRUE(storage::LoadSnapshot(first, &restored).ok());
  EXPECT_EQ(first, storage::SaveSnapshot(restored));
}

TEST_F(SnapshotTest, QueriesAgreeAcrossRoundTrip) {
  std::string snapshot = storage::SaveSnapshot(db_);
  Database restored;
  ASSERT_TRUE(storage::LoadSnapshot(snapshot, &restored).ok());
  Session before(&db_);
  Session after(&restored);
  const char* queries[] = {
      "SELECT Y FROM Person X WHERE X.Residence[Y].City['newyork']",
      "SELECT X.Name, W.Salary FROM Company X "
      "WHERE X.Divisions.Employees[W]",
      "SELECT $X WHERE TurboEngine subclassOf $X",
  };
  for (const char* text : queries) {
    auto a = before.Query(text);
    auto b = after.Query(text);
    ASSERT_TRUE(a.ok()) << text;
    ASSERT_TRUE(b.ok()) << text;
    EXPECT_EQ(a->rows(), b->rows()) << text;
  }
}

TEST_F(SnapshotTest, SnapshotIsStable) {
  // Saving a restored database reproduces an equivalent snapshot
  // (line multisets match; map iteration order may differ).
  std::string first = storage::SaveSnapshot(db_);
  Database restored;
  ASSERT_TRUE(storage::LoadSnapshot(first, &restored).ok());
  std::string second = storage::SaveSnapshot(restored);
  auto lines = [](const std::string& text) {
    std::multiset<std::string> out;
    size_t start = 0;
    while (start < text.size()) {
      size_t end = text.find('\n', start);
      if (end == std::string::npos) end = text.size();
      out.insert(text.substr(start, end - start));
      start = end + 1;
    }
    return out;
  };
  EXPECT_EQ(lines(first), lines(second));
}

TEST_F(SnapshotTest, FileRoundTrip) {
  std::string path = ::testing::TempDir() + "/xsql_snapshot_test.db";
  ASSERT_TRUE(storage::SaveSnapshotToFile(db_, path).ok());
  Database restored;
  ASSERT_TRUE(storage::LoadSnapshotFromFile(path, &restored).ok());
  EXPECT_EQ(restored.object_count(), db_.object_count());
  std::remove(path.c_str());
  EXPECT_FALSE(
      storage::LoadSnapshotFromFile("/no/such/file", &restored).ok());
}

TEST_F(SnapshotTest, RejectsMalformedInput) {
  Database restored;
  EXPECT_FALSE(storage::LoadSnapshot("", &restored).ok());
  EXPECT_FALSE(storage::LoadSnapshot("BOGUS HEADER\n", &restored).ok());
  EXPECT_FALSE(storage::LoadSnapshot("XSQL-SNAPSHOT 1\nNONSENSE a3:foo\n",
                                     &restored).ok());
  EXPECT_FALSE(storage::LoadSnapshot("XSQL-SNAPSHOT 1\nCLASS\n", &restored)
                   .ok());
  EXPECT_FALSE(storage::LoadSnapshot(
                   "XSQL-SNAPSHOT 1\nATTR a1:x a1:y wibble i3;\n", &restored)
                   .ok());
}

TEST(OidCodecTest, EdgePayloads) {
  // Payloads at the codec's corners: empty, nothing-but-escape-fodder,
  // and escapes mixed with the bytes they escape.
  const Oid cases[] = {
      Oid::Atom(""),
      Oid::String(std::string(7, '\\')),
      Oid::Atom(std::string(5, '\\')),
      Oid::String("\\n"),          // literal backslash-n, not a newline
      Oid::String("\\\n"),         // backslash then real newline
      Oid::String(std::string(3, '\n')),
      Oid::Term("", {Oid::String("")}),
  };
  for (const Oid& oid : cases) {
    std::string encoded;
    storage::EncodeOid(oid, &encoded);
    EXPECT_EQ(encoded.find('\n'), std::string::npos) << encoded;
    size_t pos = 0;
    auto decoded = storage::DecodeOid(encoded, &pos);
    ASSERT_TRUE(decoded.ok()) << encoded;
    EXPECT_EQ(*decoded, oid) << encoded;
    EXPECT_EQ(pos, encoded.size());
  }
}

TEST_F(SnapshotTest, MalformedInputReportsLinePositions) {
  auto expect_fail = [](const std::string& text, const std::string& needle) {
    Database fresh;
    Status st = storage::LoadSnapshot(text, &fresh);
    ASSERT_FALSE(st.ok()) << text;
    EXPECT_NE(st.ToString().find(needle), std::string::npos)
        << st.ToString() << " should mention " << needle;
  };
  // Trailing garbage after a complete record.
  expect_fail("XSQL-SNAPSHOT 2\nCLASS a6:Widget extra\n", "line 2");
  expect_fail("XSQL-SNAPSHOT 2\nCLASS a6:Widget extra\n", "trailing");
  // Truncated mid-record: ISA missing its superclass.
  expect_fail("XSQL-SNAPSHOT 2\nISA a6:Widget\n", "line 2");
  // Bad length prefixes inside an oid payload.
  expect_fail("XSQL-SNAPSHOT 2\nCLASS a99:Widget\n", "line 2");
  expect_fail("XSQL-SNAPSHOT 2\nCLASS a-1:Widget\n", "line 2");
  // Negative collection counts.
  expect_fail("XSQL-SNAPSHOT 2\nOBJ a1:x\nATTR a1:x a1:y set -2\n",
              "line 3");
  expect_fail("XSQL-SNAPSHOT 2\nSIG a1:c a1:m -1 a6:String scalar\n",
              "line 2");
  // A signature whose kind is neither set nor scalar.
  expect_fail("XSQL-SNAPSHOT 2\nSIG a1:c a1:m 0 a6:String wibble\n",
              "bad SIG kind");
}

TEST_F(SnapshotTest, TruncatedSnapshotIsRejected) {
  std::string snap = storage::SaveSnapshot(db_);
  // Cutting into the final record's payload must not load silently.
  Database restored;
  EXPECT_FALSE(
      storage::LoadSnapshot(snap.substr(0, snap.size() - 2), &restored)
          .ok());
  // Whatever the partial load wrote, the domain still describes it.
  EXPECT_TRUE(DomainMatchesRecompute(restored));
  EXPECT_TRUE(DispatchMatchesWalk(restored));
  EXPECT_TRUE(InstancesMatchExtents(restored));
}

TEST_F(SnapshotTest, FileErrorPathsAreDistinguished) {
  Database restored;
  // Missing file: NotFound, so callers can treat it as "fresh start".
  Status missing =
      storage::LoadSnapshotFromFile("/no/such/dir/snapshot.db", &restored);
  ASSERT_FALSE(missing.ok());
  EXPECT_NE(missing.ToString().find("NotFound"), std::string::npos)
      << missing.ToString();
  // Unreadable target (a directory): a hard error, not NotFound.
  Status dir = storage::LoadSnapshotFromFile(::testing::TempDir(),
                                             &restored);
  ASSERT_FALSE(dir.ok());
  EXPECT_EQ(dir.ToString().find("NotFound"), std::string::npos)
      << dir.ToString();
  // Corrupted file: saved bytes damaged on disk are rejected.
  std::string path = ::testing::TempDir() + "/xsql_corrupt_test.db";
  ASSERT_TRUE(storage::SaveSnapshotToFile(db_, path).ok());
  auto bytes = storage::File::ReadAll(path);
  ASSERT_TRUE(bytes.ok());
  size_t obj = bytes->find("\nOBJ ");
  ASSERT_NE(obj, std::string::npos);
  (*bytes)[obj + 1] = 'Q';  // "QBJ": an unknown record word
  ASSERT_TRUE(storage::File::WriteAtomic(path, *bytes).ok());
  EXPECT_FALSE(storage::LoadSnapshotFromFile(path, &restored).ok());
  std::remove(path.c_str());
}

TEST_F(SnapshotTest, DefinitionListRoundTripsByteExactly) {
  // Definitions are recorded by executing them; the second one's string
  // literal holds a newline and a backslash, which the DEF payload must
  // escape to stay on one line.
  Session session(&db_);
  const std::string view =
      "CREATE VIEW CoNames AS SUBCLASS OF Object "
      "SIGNATURE TheName => String "
      "SELECT TheName = X.Name FROM Company X OID FUNCTION OF X";
  const std::string method =
      "ALTER CLASS Company ADD SIGNATURE Odd => String "
      "SELECT (Odd) = N FROM Company X OID X "
      "WHERE X.Name[N] and X.Name['line one\nback\\slash']";
  ASSERT_TRUE(session.Execute(view).ok());
  auto defined = session.Execute(method);
  ASSERT_TRUE(defined.ok()) << defined.status().ToString();
  ASSERT_EQ(db_.definitions(), (std::vector<std::string>{view, method}));

  const std::string snapshot = storage::SaveSnapshot(db_);
  EXPECT_EQ(storage::SnapshotVersion(snapshot), 3);
  Database restored;
  ASSERT_TRUE(storage::LoadSnapshot(snapshot, &restored).ok());
  EXPECT_EQ(restored.definitions(), db_.definitions());
  EXPECT_EQ(storage::SaveSnapshot(restored), snapshot);
}

TEST_F(SnapshotTest, OlderFormatsLoadWithNoDefinitions) {
  Session session(&db_);
  ASSERT_TRUE(session
                  .Execute("CREATE VIEW CoNames AS SUBCLASS OF Object "
                           "SIGNATURE TheName => String SELECT TheName = "
                           "X.Name FROM Company X OID FUNCTION OF X")
                  .ok());
  std::string snapshot = storage::SaveSnapshot(db_);
  const size_t defs = snapshot.find("\nDEF ");
  ASSERT_NE(defs, std::string::npos);
  snapshot.erase(defs + 1);  // DEF records come last
  for (int version : {1, 2}) {
    snapshot.replace(0, snapshot.find('\n'),
                     "XSQL-SNAPSHOT " + std::to_string(version));
    EXPECT_EQ(storage::SnapshotVersion(snapshot), version);
    Database restored;
    ASSERT_TRUE(storage::LoadSnapshot(snapshot, &restored).ok());
    EXPECT_TRUE(restored.definitions().empty());
    EXPECT_EQ(restored.object_count(), db_.object_count());
  }
  EXPECT_EQ(storage::SnapshotVersion("XSQL-SNAPSHOT 4\n"), 0);
  EXPECT_EQ(storage::SnapshotVersion(""), 0);
}

TEST_F(SnapshotTest, EmptyDatabaseRoundTrips) {
  Database empty;
  std::string snapshot = storage::SaveSnapshot(empty);
  Database restored;
  ASSERT_TRUE(storage::LoadSnapshot(snapshot, &restored).ok());
  EXPECT_TRUE(restored.graph().IsClass(A("Object")));
  EXPECT_TRUE(DomainMatchesRecompute(restored));
  EXPECT_TRUE(DispatchMatchesWalk(restored));
  EXPECT_TRUE(InstancesMatchExtents(restored));
}

// A checkpoint writes SaveSnapshot's bytes. Oids are process-local
// (interned pointers) but snapshots carry text in canonical order, so
// the scale-16 Figure-1 checkpoint must not move by a byte when the
// in-memory representation changes. The constants were taken from the
// representation before interning (56-byte oids holding shared
// strings); a new value here means checkpoints changed format.
TEST(SnapshotBytesTest, Fig1Scale16CheckpointIsByteIdentical) {
  Database db;
  ASSERT_TRUE(workload::BuildFig1Schema(&db).ok());
  ASSERT_TRUE(
      workload::GenerateFig1Data(&db, workload::WorkloadParams{}.Scaled(16))
          .ok());
  const std::string checkpoint = storage::SaveSnapshot(db);
  EXPECT_EQ(checkpoint.size(), 1150319u);
  EXPECT_EQ(Crc32(checkpoint), 0xA2AEC0A1u);
}

}  // namespace
}  // namespace xsql
