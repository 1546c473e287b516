// Breadth tests for surfaces the focused suites touch lightly: script
// execution, attribute clearing, clause-order flexibility, printing,
// and assorted API edges.
#include <gtest/gtest.h>

#include "eval/session.h"
#include "parser/parser.h"
#include "typing/type_checker.h"
#include "workload/fig1_schema.h"
#include "workload/generator.h"

namespace xsql {
namespace {

Oid A(const char* s) { return Oid::Atom(s); }

class CoverageTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(workload::BuildFig1Schema(&db_).ok());
    workload::WorkloadParams params;
    params.companies = 1;
    ASSERT_TRUE(workload::GenerateFig1Data(&db_, params).ok());
    session_ = std::make_unique<Session>(&db_);
  }

  Database db_;
  std::unique_ptr<Session> session_;
};

TEST_F(CoverageTest, ExecuteScriptRunsStatementsInOrder) {
  auto out = session_->ExecuteScript(
      "ALTER CLASS Employee ADD SIGNATURE Bonus => Numeral;\n"
      "UPDATE CLASS Employee SET _john13.Bonus = 500;\n"
      "SELECT B WHERE _john13.Bonus[B];");
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  ASSERT_EQ(out->relation.size(), 1u);
  EXPECT_EQ(out->relation.rows()[0][0], Oid::Int(500));
}

TEST_F(CoverageTest, ExecuteScriptStopsAtFirstError) {
  auto out = session_->ExecuteScript(
      "SELECT X FROM Person X; BROKEN STATEMENT; SELECT X FROM Person X");
  EXPECT_FALSE(out.ok());
  EXPECT_FALSE(session_->ExecuteScript(" ;;  ; ").ok());
  // Semicolons inside strings do not split statements.
  auto quoted = session_->ExecuteScript(
      "SELECT X FROM Person X WHERE X.Name['a;b']");
  ASSERT_TRUE(quoted.ok());
  EXPECT_TRUE(quoted->relation.empty());
}

TEST_F(CoverageTest, ClearAttributeMakesValueUndefined) {
  ASSERT_NE(db_.GetAttribute(A("mary123"), A("Age")), nullptr);
  ASSERT_TRUE(db_.ClearAttribute(A("mary123"), A("Age")).ok());
  EXPECT_EQ(db_.GetAttribute(A("mary123"), A("Age")), nullptr);
  auto rel = session_->Query("SELECT V WHERE mary123.Age[V]");
  ASSERT_TRUE(rel.ok());
  EXPECT_TRUE(rel->empty());
  EXPECT_FALSE(db_.ClearAttribute(A("nosuch"), A("Age")).ok());
}

TEST_F(CoverageTest, ClauseOrderIsFlexible) {
  // The paper writes OID FUNCTION OF between FROM and WHERE; other
  // orders parse as well.
  auto a = session_->Execute(
      "SELECT S = W.Salary FROM Employee W OID FUNCTION OF W "
      "WHERE W.Salary > 0");
  ASSERT_TRUE(a.ok()) << a.status().ToString();
  auto b = session_->Execute(
      "SELECT X FROM Employee X WHERE X.Salary > 0");
  ASSERT_TRUE(b.ok());
}

TEST_F(CoverageTest, ExemptionOfExplicitArgument) {
  // Exempting argument position 1 (not the receiver) of Member lets a
  // query with an untyped argument variable pass strict typing.
  ASSERT_TRUE(
      db_.NewObject(A("OO_Forum"), {workload::fig1::Association()}).ok());
  auto stmt = ParseAndResolve(
      "SELECT M WHERE OO_Forum.(Member @ Y)[M]", db_);
  ASSERT_TRUE(stmt.ok());
  TypeChecker checker(db_);
  TypingResult strict =
      checker.Check(*stmt->query->simple, TypingMode::kStrict);
  EXPECT_FALSE(strict.well_typed);  // Y's range {Object} ⊄ Numeral
  ExemptionSet ex;
  ex.items.push_back(Exemption{A("Member"), 1});
  TypingResult exempted =
      checker.Check(*stmt->query->simple, TypingMode::kStrict, ex);
  EXPECT_TRUE(exempted.well_typed) << exempted.explanation;
}

TEST_F(CoverageTest, AllStrictWitnessesHonorsLimit) {
  auto stmt = ParseAndResolve(
      "SELECT X FROM Person X WHERE X.Name and X.Age", db_);
  ASSERT_TRUE(stmt.ok());
  TypeChecker checker(db_);
  auto witnesses = checker.AllStrictWitnesses(*stmt->query->simple, 1);
  EXPECT_EQ(witnesses.size(), 1u);
  auto more = checker.AllStrictWitnesses(*stmt->query->simple, 8);
  EXPECT_GE(more.size(), 2u);  // both conjunct orders are coherent
}

TEST_F(CoverageTest, ToStringsAreInformative) {
  EXPECT_EQ(OidSet({Oid::Int(1), Oid::Int(2)}).ToString(), "{1, 2}");
  Object obj(A("x"));
  obj.SetScalar(A("a"), Oid::Int(1));
  EXPECT_EQ(obj.ToString(), "x[a -> 1]");
  Signature sig{A("earns"), {A("Course")}, A("Grade"), false};
  EXPECT_EQ(sig.ToString(), "earns : Course => Grade");
  Signature set_sig{A("kids"), {}, A("Person"), true};
  EXPECT_EQ(set_sig.ToString(), "kids =>> Person");
  Binding binding;
  binding.Set(Variable{"X", VarSort::kIndividual}, Oid::Int(1));
  EXPECT_EQ(binding.ToString(), "{X=1}");
  VarRange range;
  range.Add(A("Person"));
  EXPECT_EQ(range.ToString(), "{Object, Person}");
}

TEST_F(CoverageTest, SelectBareLiteralAndSetLiteral) {
  auto rel = session_->Query("SELECT X FROM Company X WHERE "
                             "{'blue'} subsetEq {'blue', 'red'}");
  ASSERT_TRUE(rel.ok()) << rel.status().ToString();
  EXPECT_EQ(rel->size(), db_.Extent(A("Company")).size());
  auto ne = session_->Query(
      "SELECT X FROM Company X WHERE {'blue'} contains {'blue', 'red'}");
  ASSERT_TRUE(ne.ok());
  EXPECT_TRUE(ne->empty());
}

TEST_F(CoverageTest, AttributeMutatorsBumpVersion) {
  // Objects change only through the Database mutators — no accessor
  // hands out a mutable object behind the active domain's counts — and
  // each write bumps the version.
  uint64_t v = db_.version();
  ASSERT_TRUE(
      db_.SetScalar(A("mary123"), A("Nickname"), Oid::String("m")).ok());
  EXPECT_GT(db_.version(), v);
  v = db_.version();
  ASSERT_TRUE(db_.ClearAttribute(A("mary123"), A("Nickname")).ok());
  EXPECT_GT(db_.version(), v);
  EXPECT_FALSE(db_.ClearAttribute(A("missing"), A("Nickname")).ok());
}

TEST_F(CoverageTest, SubqueryAsSetComparisonSide) {
  auto rel = session_->Query(
      "SELECT X FROM Company X WHERE "
      "(SELECT C WHERE mary123.Residence.City[C]) subsetEq "
      "{'newyork', 'austin'}");
  ASSERT_TRUE(rel.ok()) << rel.status().ToString();
  EXPECT_EQ(rel->size(), db_.Extent(A("Company")).size());
}

TEST_F(CoverageTest, DdlPrintingRoundTrips) {
  const char* statements[] = {
      "CREATE VIEW Sal AS SUBCLASS OF Object "
      "SIGNATURE S => Numeral "
      "SELECT S = W.Salary FROM Employee W OID FUNCTION OF W",
      "ALTER CLASS Employee ADD SIGNATURE Bonus => Numeral",
      "UPDATE CLASS Division SET div0_0.Function = 'ops'",
  };
  for (const char* text : statements) {
    auto stmt = ParseAndResolve(text, db_);
    ASSERT_TRUE(stmt.ok()) << text;
    std::string printed = stmt->ToString();
    auto reparsed = ParseAndResolve(printed, db_);
    ASSERT_TRUE(reparsed.ok()) << printed;
    EXPECT_EQ(reparsed->ToString(), printed);
  }
}

TEST_F(CoverageTest, NegativeAndRealLiterals) {
  ASSERT_TRUE(db_.SetScalar(A("mary123"), A("Age"), Oid::Int(30)).ok());
  auto rel = session_->Query(
      "SELECT X FROM Person X WHERE X.Age > 29.5 and X.Name['mary']");
  ASSERT_TRUE(rel.ok()) << rel.status().ToString();
  EXPECT_EQ(rel->size(), 1u);
  auto neg = session_->Query(
      "SELECT X FROM Person X WHERE X.Age > 0 - 5 and X.Name['mary']");
  ASSERT_TRUE(neg.ok()) << neg.status().ToString();
  EXPECT_EQ(neg->size(), 1u);
}

}  // namespace
}  // namespace xsql
