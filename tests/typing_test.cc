// §6: type expressions, possession, ranges, and the liberal/strict/
// exemption well-typing spectrum, including the paper's worked typing
// fragments (17)-(20) and the introduction's Nobel-prize example.
#include <gtest/gtest.h>

#include "eval/session.h"
#include "parser/parser.h"
#include "store/catalog.h"
#include "typing/type_checker.h"
#include "typing/type_expr.h"
#include "workload/fig1_schema.h"
#include "workload/generator.h"

namespace xsql {
namespace {

Oid A(const char* s) { return Oid::Atom(s); }

class TypingTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(workload::BuildFig1Schema(&db_).ok());
    ASSERT_TRUE(workload::BuildNobelSchema(&db_).ok());
  }

  Query MustParseQuery(const std::string& text) {
    auto stmt = ParseAndResolve(text, db_);
    EXPECT_TRUE(stmt.ok()) << stmt.status().ToString();
    return *stmt->query->simple;
  }

  Database db_;
};

TEST_F(TypingTest, SupertypeRelation) {
  // (15) is a supertype of (14) iff arguments narrow and results widen.
  TypeExpr base;  // President : Company => Person
  base.receiver = A("Company");
  base.result = A("Person");
  TypeExpr wider_result = base;
  wider_result.result = A("Object");
  EXPECT_TRUE(IsSupertypeOf(db_.graph(), wider_result, base));
  EXPECT_FALSE(IsSupertypeOf(db_.graph(), base, wider_result));
  TypeExpr owned;  // OwnedVehicles : Person =>> Vehicle
  owned.receiver = A("Person");
  owned.result = A("Vehicle");
  owned.set_valued = true;
  TypeExpr owned_on_employee = owned;
  owned_on_employee.receiver = A("Employee");
  EXPECT_TRUE(IsSupertypeOf(db_.graph(), owned_on_employee, owned));
  // Arrow kinds must agree.
  TypeExpr scalar_owned = owned_on_employee;
  scalar_owned.set_valued = false;
  EXPECT_FALSE(IsSupertypeOf(db_.graph(), scalar_owned, owned));
  // Reflexive.
  EXPECT_TRUE(IsSupertypeOf(db_.graph(), owned, owned));
}

TEST_F(TypingTest, Possession) {
  TypeExpr at_employee;
  at_employee.receiver = A("Employee");
  at_employee.result = A("Numeral");
  EXPECT_TRUE(Possesses(db_, A("Salary"), at_employee));
  TypeExpr wider = at_employee;
  wider.result = A("Object");
  EXPECT_TRUE(Possesses(db_, A("Salary"), wider));
  TypeExpr at_person = at_employee;
  at_person.receiver = A("Person");
  EXPECT_FALSE(Possesses(db_, A("Salary"), at_person));
}

TEST_F(TypingTest, RangesAndEmptiness) {
  VarRange range;
  range.Add(A("Person"));
  EXPECT_FALSE(range.Empty(db_.graph()));
  EXPECT_TRUE(range.SubrangeOf(db_.graph(), A("Person")));
  EXPECT_FALSE(range.SubrangeOf(db_.graph(), A("Employee")));
  range.Add(A("Employee"));
  EXPECT_TRUE(range.SubrangeOf(db_.graph(), A("Person")));
  // The §6.2 example: {Person, Company} is empty.
  VarRange empty;
  empty.Add(A("Person"));
  empty.Add(A("Company"));
  EXPECT_TRUE(empty.Empty(db_.graph()));
}

TEST_F(TypingTest, SimpleQueryStrictlyWellTyped) {
  // "FROM Person X WHERE X.Name" — the §6.2 warm-up example.
  Query q = MustParseQuery("SELECT X FROM Person X WHERE X.Name");
  TypeChecker checker(db_);
  TypingResult strict = checker.Check(q, TypingMode::kStrict);
  EXPECT_TRUE(strict.well_typed) << strict.explanation;
  Variable x{"X", VarSort::kIndividual};
  ASSERT_TRUE(strict.ranges.contains(x));
  bool has_person = false;
  for (const Oid& cls : strict.ranges.at(x).classes()) {
    if (cls == A("Person")) has_person = true;
  }
  EXPECT_TRUE(has_person);
}

TEST_F(TypingTest, UndeclaredMethodIsIllTyped) {
  Query q = MustParseQuery("SELECT X FROM Person X WHERE X.NoSuchAttr");
  TypeChecker checker(db_);
  TypingResult liberal = checker.Check(q, TypingMode::kLiberal);
  EXPECT_FALSE(liberal.well_typed);
  EXPECT_NE(liberal.explanation.find("no signature"), std::string::npos);
}

TEST_F(TypingTest, TypeErrorPathRejected) {
  // §3.1: mary123.Residence.Salary is a type error — Salary is not an
  // attribute of Address.
  Query q = MustParseQuery("SELECT W WHERE mary123.Residence.Salary[W]");
  TypeChecker checker(db_);
  TypingResult liberal = checker.Check(q, TypingMode::kLiberal);
  EXPECT_FALSE(liberal.well_typed);
}

// The Nobel query (introduction): liberally well-typed, not strictly;
// exempting WonNobelPrize's 0th argument restores strict typing.
TEST_F(TypingTest, NobelSpectrum) {
  Query q = MustParseQuery("SELECT X WHERE X.WonNobelPrize");
  TypeChecker checker(db_);
  TypingResult liberal = checker.Check(q, TypingMode::kLiberal);
  EXPECT_TRUE(liberal.well_typed) << liberal.explanation;
  TypingResult strict = checker.Check(q, TypingMode::kStrict);
  EXPECT_FALSE(strict.well_typed);
  ExemptionSet exemptions;
  exemptions.items.push_back(Exemption{A("WonNobelPrize"), 0});
  TypingResult exempted = checker.Check(q, TypingMode::kStrict, exemptions);
  EXPECT_TRUE(exempted.well_typed) << exempted.explanation;
  // Exempting everything is exactly liberal typing.
  ExemptionSet all;
  all.exempt_all = true;
  EXPECT_TRUE(checker.Check(q, TypingMode::kStrict, all).well_typed);
}

// E17 — fragment (17): two path expressions; with assignment (18) only
// the plan evaluating X.Manufacturer[M] first is coherent.
TEST_F(TypingTest, Fragment17) {
  Query q = MustParseQuery(
      "SELECT X FROM Vehicle X WHERE X.Manufacturer[M] "
      "and M.President.OwnedVehicles[X]");
  TypeChecker checker(db_);
  TypingResult strict = checker.Check(q, TypingMode::kStrict);
  ASSERT_TRUE(strict.well_typed) << strict.explanation;
  ASSERT_EQ(strict.plan.size(), 2u);
  EXPECT_EQ(strict.plan[0], 0u);
  EXPECT_EQ(strict.plan[1], 1u);
  // All witnesses share that order (the reverse plan is incoherent:
  // A'(M) = {Object} is not a subrange of Company/Organization).
  for (const TypingResult& witness : checker.AllStrictWitnesses(q, 16)) {
    ASSERT_EQ(witness.plan.size(), 2u);
    EXPECT_EQ(witness.plan[0], 0u);
  }
}

// E19 — fragment (19): with the Member method, the only coherent plan
// is p2 (OO_Forum.(Member@Year)[M]) -> p1 -> p0, with assignment (20)
// choosing President : Organization => Person.
TEST_F(TypingTest, Fragment19) {
  ASSERT_TRUE(
      db_.NewObject(A("OO_Forum"), {workload::fig1::Association()}).ok());
  Query q = MustParseQuery(
      "SELECT X FROM Numeral Year WHERE X.Manufacturer[M] "
      "and M.President.OwnedVehicles[X] "
      "and OO_Forum.(Member @ Year)[M]");
  TypeChecker checker(db_);
  TypingResult strict = checker.Check(q, TypingMode::kStrict);
  ASSERT_TRUE(strict.well_typed) << strict.explanation;
  std::vector<TypingResult> witnesses = checker.AllStrictWitnesses(q, 64);
  ASSERT_FALSE(witnesses.empty());
  for (const TypingResult& witness : witnesses) {
    ASSERT_EQ(witness.plan.size(), 3u);
    EXPECT_EQ(witness.plan[0], 2u) << "Member path must run first";
    EXPECT_EQ(witness.plan[1], 1u);
    EXPECT_EQ(witness.plan[2], 0u);
    // Assignment (20): President typed Organization => Person.
    const TypeExpr& president = witness.assignment[1][0];
    EXPECT_EQ(president.receiver, A("Organization"));
  }
}

TEST_F(TypingTest, OutsideFragmentIsFlagged) {
  Query q = MustParseQuery(
      "SELECT X FROM Person X WHERE X.Name['a'] or X.Age > 3");
  TypeChecker checker(db_);
  TypingResult res = checker.Check(q, TypingMode::kStrict);
  EXPECT_FALSE(res.in_fragment);
  Query q2 =
      MustParseQuery("SELECT \"Y FROM Person X WHERE X.\"Y.City['newyork']");
  EXPECT_FALSE(checker.Check(q2, TypingMode::kStrict).in_fragment);
}

TEST_F(TypingTest, OrderedComparisonNeedsComparableRange) {
  // Residence (an Address) cannot be ordered against a numeral.
  Query q = MustParseQuery(
      "SELECT X FROM Person X WHERE X.Residence[R] and R > 5");
  TypeChecker checker(db_);
  TypingResult res = checker.Check(q, TypingMode::kLiberal);
  EXPECT_FALSE(res.well_typed);
  Query ok = MustParseQuery("SELECT X FROM Person X WHERE X.Age > 5");
  EXPECT_TRUE(checker.Check(ok, TypingMode::kLiberal).well_typed);
}

TEST_F(TypingTest, EmptyRangeRejects) {
  Query q = MustParseQuery("SELECT X FROM Vehicle X WHERE X.Salary > 0");
  TypeChecker checker(db_);
  TypingResult res = checker.Check(q, TypingMode::kLiberal);
  EXPECT_FALSE(res.well_typed);
  EXPECT_NE(res.explanation.find("empty"), std::string::npos);
}

TEST_F(TypingTest, PolymorphicMethodPicksDeclaredSignature) {
  // earns: project => pay on employee, course => grade on student (§6.1).
  ASSERT_TRUE(db_.DeclareClass(A("Project")).ok());
  ASSERT_TRUE(db_.DeclareClass(A("Course")).ok());
  ASSERT_TRUE(db_.DeclareClass(A("Pay")).ok());
  ASSERT_TRUE(db_.DeclareClass(A("Grade")).ok());
  ASSERT_TRUE(db_.DeclareClass(A("Student"), {A("Person")}).ok());
  Signature on_employee{A("earns"), {A("Project")}, A("Pay"), false};
  Signature on_student{A("earns"), {A("Course")}, A("Grade"), false};
  ASSERT_TRUE(db_.DeclareSignature(A("Employee"), on_employee).ok());
  ASSERT_TRUE(db_.DeclareSignature(A("Student"), on_student).ok());
  ASSERT_TRUE(
      db_.DeclareClass(A("Workstudy"), {A("Student"), A("Employee")}).ok());
  EXPECT_EQ(DeclaredTypeExprs(db_, A("earns")).size(), 2u);

  Query q = MustParseQuery(
      "SELECT W FROM Workstudy X, Project P WHERE X.(earns @ P)[W]");
  TypeChecker checker(db_);
  TypingResult strict = checker.Check(q, TypingMode::kStrict);
  ASSERT_TRUE(strict.well_typed) << strict.explanation;
  EXPECT_EQ(strict.assignment[0][0].args[0], A("Project"));
  EXPECT_EQ(strict.assignment[0][0].result, A("Pay"));
}

TEST_F(TypingTest, PlanEnumeration) {
  EXPECT_EQ(EnumeratePlans(0).size(), 1u);
  EXPECT_EQ(EnumeratePlans(3).size(), 6u);
  EXPECT_EQ(EnumeratePlans(8).size(), 2u);  // capped: identity + reverse
  EXPECT_EQ(PlanToString({2, 0, 1}), "p2 -> p0 -> p1");
}

// Typing is metalogical: an ill-typed query still evaluates — and
// returns no answers, the §6.2 guarantee for ill-typed queries.
TEST_F(TypingTest, IllTypedQueryEvaluatesToEmpty) {
  Session session(&db_);
  auto rel = session.Query("SELECT X FROM Vehicle X WHERE X.Salary > 0");
  ASSERT_TRUE(rel.ok()) << rel.status().ToString();
  EXPECT_TRUE(rel->empty());
  session.mutable_options().enforce_typing = true;
  session.mutable_options().typing_mode = TypingMode::kLiberal;
  auto rejected =
      session.Query("SELECT X FROM Vehicle X WHERE X.Salary > 0");
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.status().code(), StatusCode::kTypeError);
}

// Theorem 6.1(2)'s handle skips a range class when a proper subclass of
// it is also in the range (Extent(sub) ⊆ Extent(super), literal classes
// included). Over every range the type checker emits for the paper's
// queries, and for ranges naming literal classes, the pruned candidates
// equal the intersection of every class extent.
TEST(RangeCandidatesTest, PruningEqualsFullIntersection) {
  Database db;
  ASSERT_TRUE(workload::BuildFig1Schema(&db).ok());
  workload::WorkloadParams params;
  params.companies = 2;
  ASSERT_TRUE(workload::GenerateFig1Data(&db, params).ok());
  auto full_intersection = [&](const VarRange& range) {
    OidSet out = db.Extent(range.classes().front());
    for (const Oid& cls : range.classes()) {
      out = OidSet::Intersect(out, db.Extent(cls));
    }
    return out;
  };
  const char* kQueries[] = {
      "SELECT C WHERE mary123.Residence.City[C]",
      "SELECT Y FROM Person X WHERE X.Residence[Y].City['newyork']",
      "SELECT Z FROM Employee X, Automobile Y "
      "WHERE X.OwnedVehicles[Y].Drivetrain.Engine[Z]",
      "SELECT \"Y FROM Person X WHERE X.\"Y.City['newyork']",
      "SELECT $X WHERE TurboEngine subclassOf $X",
      "SELECT X FROM Employee X WHERE X.FamMembers.Age some> 20",
      "SELECT X FROM Automobile Y WHERE Y.Manufacturer[X] and "
      "X.President.OwnedVehicles.Color containsEq {'blue', 'red'} and "
      "X.President.Age < 30",
      "SELECT X FROM Employee X WHERE count(X.FamMembers) > 4 and "
      "X.Salary < 35000",
      "SELECT X.Name, W.Salary FROM Company X WHERE X.Divisions.Employees[W]",
      "SELECT X, Y FROM Company X WHERE X.Name =some "
      "X.Divisions.Employees[Y].Name",
      "SELECT X, Y FROM Employee X, Person Y WHERE X.Salary =all Y.Age",
      // Selectors bound to literal-valued attributes.
      "SELECT A FROM Person X WHERE X.Age[A]",
      "SELECT X, C FROM Address X WHERE X.City[C]",
  };
  size_t ranges_checked = 0;
  size_t pruned = 0;
  size_t literal = 0;
  for (const char* text : kQueries) {
    auto stmt = ParseAndResolve(text, db);
    ASSERT_TRUE(stmt.ok()) << text << ": " << stmt.status().ToString();
    const Query& q = *stmt->query->simple;
    for (TypingMode mode : {TypingMode::kStrict, TypingMode::kLiberal}) {
      TypingResult typing = TypeChecker(db).Check(q, mode);
      for (const auto& [var, range] : typing.ranges) {
        EXPECT_EQ(range.CandidateOids(db), full_intersection(range))
            << text << ": " << var.ToString() << " in " << range.ToString();
        ++ranges_checked;
        for (const Oid& cls : range.classes()) {
          if (db.graph().IsSubclassEq(cls, builtin::Numeral()) ||
              db.graph().IsSubclassEq(cls, builtin::String())) {
            ++literal;
          }
        }
        for (const Oid& a : range.classes()) {
          for (const Oid& b : range.classes()) {
            if (db.graph().IsStrictSubclass(a, b)) ++pruned;
          }
        }
      }
    }
  }
  EXPECT_GT(ranges_checked, 10u);
  EXPECT_GT(pruned, 0u);
  EXPECT_GT(literal, 0u);
  // Ranges naming literal classes, which draw on the active domain.
  for (const std::vector<Oid>& classes :
       std::vector<std::vector<Oid>>{{builtin::Numeral()},
                                     {builtin::Numeral(), builtin::String()},
                                     {builtin::String(), A("Person")},
                                     {builtin::NilClass()}}) {
    VarRange range;  // {Object}
    for (const Oid& cls : classes) range.Add(cls);
    EXPECT_EQ(range.CandidateOids(db), full_intersection(range))
        << range.ToString();
  }
  VarRange numerals;
  numerals.Add(builtin::Numeral());
  EXPECT_FALSE(numerals.CandidateOids(db).empty());
  EXPECT_EQ(numerals.CandidateOids(db), db.Extent(builtin::Numeral()));
}

}  // namespace
}  // namespace xsql
