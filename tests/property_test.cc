// Property-based differential tests over seeded random instances:
//  * the production evaluator == the naive §3.4 reference semantics;
//  * the production evaluator == the Theorem 3.1 F-logic translation;
//  * Theorem 6.1(1): all coherent plans produce the same answers;
//  * Theorem 6.1(2): range pruning never changes answers;
//  * store invariants (IS-A upward closure of membership, and the
//    maintained active domain equals a from-scratch recompute).
#include <gtest/gtest.h>

#include <map>
#include <set>

#include "common/fault.h"
#include "common/rng.h"
#include "domain_oracle.h"
#include "eval/evaluator.h"
#include "eval/session.h"
#include "flogic/flogic_eval.h"
#include "flogic/translate.h"
#include "parser/parser.h"
#include "storage/snapshot.h"
#include "typing/type_checker.h"
#include "workload/fig1_schema.h"
#include "workload/generator.h"

namespace xsql {
namespace {

Oid A(const char* s) { return Oid::Atom(s); }

using testing_oracle::DispatchMatchesWalk;
using testing_oracle::DomainMatchesRecompute;
using testing_oracle::InstancesMatchExtents;

std::multiset<std::vector<Oid>> Rows(const Relation& rel) {
  return {rel.rows().begin(), rel.rows().end()};
}

/// A tiny instance keeps the naive evaluator's full-domain enumeration
/// tractable.
void BuildTinyDb(Database* db, uint64_t seed) {
  ASSERT_TRUE(workload::BuildFig1Schema(db).ok());
  workload::WorkloadParams params;
  params.seed = seed;
  params.companies = 1;
  params.divisions_per_company = 1;
  params.employees_per_division = 2;
  params.extra_persons = 2;
  params.automobiles = 2;
  params.max_family = 2;
  ASSERT_TRUE(workload::GenerateFig1Data(db, params).ok());
}

/// Query templates staying inside the fragment all three evaluators
/// cover (no aggregates/subqueries for F-logic; no path variables for
/// the naive evaluator). %1 is a numeric threshold, %2 a city.
const char* kTemplates[] = {
    "SELECT C WHERE mary123.Residence.City[C]",
    "SELECT X FROM Person X WHERE X.Residence.City['%2']",
    "SELECT Y FROM Person X WHERE X.Residence[Y]",
    "SELECT X FROM Employee X WHERE X.Salary > %1",
    "SELECT X FROM Employee X WHERE X.FamMembers.Age some> %1",
    "SELECT X, W FROM Company X WHERE X.Divisions.Employees[W]",
    "SELECT $C WHERE TwoStrokeEngine subclassOf $C",
    "SELECT W FROM Company Y WHERE Y.Retirees[W] or Y.President[W]",
    "SELECT X FROM Employee X WHERE X.Salary > 0 and "
    "not X.Salary > %1",
    "SELECT X FROM Person X WHERE X.Residence =all "
    "X.FamMembers.Residence",
    "SELECT X, Y FROM Company X WHERE X.Name =some "
    "X.Divisions.Employees[Y].Name",
    "SELECT \"M WHERE mary123.\"M[addr_mary123]",
};

std::string Instantiate(const char* tmpl, Rng* rng) {
  static const char* kCities[] = {"newyork", "austin", "boston"};
  std::string out = tmpl;
  size_t pos;
  while ((pos = out.find("%1")) != std::string::npos) {
    out.replace(pos, 2, std::to_string(rng->Range(10000, 90000)));
  }
  while ((pos = out.find("%2")) != std::string::npos) {
    out.replace(pos, 2, kCities[rng->Uniform(3)]);
  }
  return out;
}

class DifferentialTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(DifferentialTest, SmartEqualsNaive) {
  Database db;
  BuildTinyDb(&db, GetParam());
  Evaluator evaluator(&db);
  Rng rng(GetParam() * 31 + 7);
  for (const char* tmpl : kTemplates) {
    std::string text = Instantiate(tmpl, &rng);
    auto stmt = ParseAndResolve(text, db);
    ASSERT_TRUE(stmt.ok()) << text;
    const Query& q = *stmt->query->simple;
    auto smart = evaluator.Run(q);
    ASSERT_TRUE(smart.ok()) << text << "\n" << smart.status().ToString();
    auto naive = evaluator.RunNaive(q);
    ASSERT_TRUE(naive.ok()) << text << "\n" << naive.status().ToString();
    EXPECT_EQ(Rows(smart->relation), Rows(naive->relation)) << text;
    EXPECT_TRUE(DomainMatchesRecompute(db)) << text;
    EXPECT_TRUE(DispatchMatchesWalk(db)) << text;
    EXPECT_TRUE(InstancesMatchExtents(db)) << text;
  }
}

TEST_P(DifferentialTest, SmartEqualsFLogic) {
  Database db;
  BuildTinyDb(&db, GetParam());
  Evaluator evaluator(&db);
  Rng rng(GetParam() * 17 + 3);
  for (const char* tmpl : kTemplates) {
    std::string text = Instantiate(tmpl, &rng);
    auto stmt = ParseAndResolve(text, db);
    ASSERT_TRUE(stmt.ok()) << text;
    const Query& q = *stmt->query->simple;
    auto translated = flogic::TranslateToFLogic(q);
    ASSERT_TRUE(translated.ok()) << text;
    auto flogic_answer = flogic::EvaluateFLogic(*translated, &db);
    ASSERT_TRUE(flogic_answer.ok())
        << text << "\n" << flogic_answer.status().ToString();
    auto smart = evaluator.Run(q);
    ASSERT_TRUE(smart.ok()) << text;
    EXPECT_EQ(Rows(smart->relation), Rows(*flogic_answer)) << text;
    EXPECT_TRUE(DomainMatchesRecompute(db)) << text;
    EXPECT_TRUE(DispatchMatchesWalk(db)) << text;
    EXPECT_TRUE(InstancesMatchExtents(db)) << text;
  }
}

// Theorem 6.1(1): every coherent (assignment, plan) pair yields the same
// answer; and the explicit conjunct order matching each plan agrees.
TEST_P(DifferentialTest, PlanIndependence) {
  Database db;
  BuildTinyDb(&db, GetParam());
  Evaluator evaluator(&db);
  const char* kStrictQueries[] = {
      "SELECT X FROM Vehicle X WHERE X.Manufacturer[M] "
      "and M.President.OwnedVehicles[X]",
      "SELECT W FROM Company X WHERE X.Divisions[D] "
      "and D.Manager.Salary[W]",
  };
  for (const char* text : kStrictQueries) {
    auto stmt = ParseAndResolve(text, db);
    ASSERT_TRUE(stmt.ok()) << text;
    const Query& q = *stmt->query->simple;
    TypeChecker checker(db);
    std::vector<TypingResult> witnesses = checker.AllStrictWitnesses(q, 32);
    ASSERT_FALSE(witnesses.empty()) << text;
    EvalOptions base;
    auto reference = evaluator.Run(q, base);
    ASSERT_TRUE(reference.ok());
    for (const TypingResult& witness : witnesses) {
      EvalOptions opts;
      opts.conjunct_order = witness.plan;
      opts.ranges = &witness.ranges;
      auto out = evaluator.Run(q, opts);
      ASSERT_TRUE(out.ok()) << text << "\n" << out.status().ToString();
      EXPECT_EQ(Rows(out->relation), Rows(reference->relation)) << text;
    }
  }
}

// Theorem 6.1(2): evaluating with the range restriction gives exactly
// the unrestricted answer for strictly well-typed queries.
TEST_P(DifferentialTest, RangePruningIsSound) {
  Database db;
  BuildTinyDb(&db, GetParam());
  Evaluator evaluator(&db);
  Rng rng(GetParam() * 13 + 1);
  for (const char* tmpl : kTemplates) {
    std::string text = Instantiate(tmpl, &rng);
    auto stmt = ParseAndResolve(text, db);
    ASSERT_TRUE(stmt.ok()) << text;
    const Query& q = *stmt->query->simple;
    TypeChecker checker(db);
    TypingResult strict = checker.Check(q, TypingMode::kStrict);
    if (!strict.well_typed || !strict.in_fragment) continue;
    EvalOptions pruned;
    pruned.ranges = &strict.ranges;
    pruned.use_range_pruning = true;
    EvalOptions unpruned;
    unpruned.use_range_pruning = false;
    auto with = evaluator.Run(q, pruned);
    auto without = evaluator.Run(q, unpruned);
    ASSERT_TRUE(with.ok()) << text;
    ASSERT_TRUE(without.ok()) << text;
    EXPECT_EQ(Rows(with->relation), Rows(without->relation)) << text;
    EXPECT_TRUE(DomainMatchesRecompute(db)) << text;
    EXPECT_TRUE(DispatchMatchesWalk(db)) << text;
    EXPECT_TRUE(InstancesMatchExtents(db)) << text;
  }
}

// The maintained active domain equals a from-scratch recompute after
// every statement of a seeded stream of writes: scalar updates to fresh
// and to already-present values (a value leaves the domain only with its
// last occurrence), schema changes, view materializations that mint
// objects, and atomic scripts that fail half way and roll back.
TEST_P(DifferentialTest, MaintainedDomainEqualsRecompute) {
  Database db;
  BuildTinyDb(&db, GetParam());
  Session session(&db);
  Rng rng(GetParam() * 7 + 5);
  ASSERT_TRUE(DomainMatchesRecompute(db));
  ASSERT_TRUE(DispatchMatchesWalk(db));
  ASSERT_TRUE(InstancesMatchExtents(db));
  std::vector<Oid> persons;
  for (const Oid& p : db.Extent(A("Person"))) {
    if (p.is_atom()) persons.push_back(p);
  }
  ASSERT_FALSE(persons.empty());
  auto person = [&] { return persons[rng.Uniform(persons.size())].str(); };
  auto value = [&] {
    // Mostly a small shared pool, so values are often already present.
    return std::to_string(rng.Percent(70) ? rng.Range(1, 6)
                                          : rng.Range(1000, 1000000));
  };
  std::vector<std::string> script = {
      "ALTER CLASS Person ADD SIGNATURE Nick => String",
      "CREATE VIEW Nicks AS SUBCLASS OF Object SIGNATURE N => String "
      "SELECT N = X.Nick FROM Person X OID FUNCTION OF X",
  };
  for (int i = 0; i < 40; ++i) {
    switch (rng.Uniform(5)) {
      case 0:
        script.push_back("UPDATE CLASS Person SET " + person() +
                         ".Age = " + value());
        break;
      case 1:
        script.push_back("UPDATE CLASS Person SET " + person() +
                         ".Nick = 'n" + value() + "'");
        break;
      case 2:
        // Materializes the view mid-query: objects minted and detached.
        script.push_back("SELECT X FROM Person X WHERE Nicks(X).N");
        break;
      case 3:
        script.push_back("UPDATE CLASS Address SET mary123.Residence.City "
                         "= 'c" + value() + "'");
        break;
      default:
        // Atomic, with an injected fault in the second statement: the
        // first rolls back. Its write mints a fresh object, so the
        // rollback erases an object together with its attribute.
        script.push_back("FAULT UPDATE CLASS Person SET fresh" +
                         std::to_string(i) + ".Age = " +
                         std::to_string(rng.Range(1000, 1000000)) +
                         "; UPDATE CLASS Person SET " + person() +
                         ".Nick = 'n" + value() + "'");
        break;
    }
  }
  // Defaults on a class-object, written, overwritten, and written by a
  // statement that rolls back: the default counts follow all three.
  script.push_back("UPDATE CLASS Class SET Person.Legs = " + value());
  script.push_back("FAULT UPDATE CLASS Class SET Person.Arms = 2; "
                   "UPDATE CLASS Person SET " + person() + ".Nick = 'n" +
                   value() + "'");
  script.push_back("UPDATE CLASS Class SET Person.Legs = " + value());
  FaultInjector& fi = FaultInjector::Global();
  for (const std::string& stmt : script) {
    if (stmt.rfind("FAULT ", 0) == 0) {
      const std::string before = storage::SaveSnapshot(db);
      fi.ArmNth(FaultInjector::Domain::kMutation, 2);
      auto out = session.ExecuteScript(stmt.substr(6), /*atomic=*/true);
      const bool fired = fi.fired();
      fi.Disarm();
      ASSERT_TRUE(fired) << stmt;
      EXPECT_FALSE(out.ok()) << stmt;
      EXPECT_EQ(storage::SaveSnapshot(db), before) << stmt;
    } else {
      auto out = session.Execute(stmt);
      ASSERT_TRUE(out.ok()) << stmt << ": " << out.status().ToString();
    }
    ASSERT_TRUE(DomainMatchesRecompute(db)) << stmt;
    ASSERT_TRUE(DispatchMatchesWalk(db)) << stmt;
    ASSERT_TRUE(InstancesMatchExtents(db)) << stmt;
  }
}

// Store invariant: membership closes upward along randomly built DAGs.
TEST_P(DifferentialTest, MembershipClosesUpward) {
  Rng rng(GetParam());
  Database db;
  const ClassGraph& graph = db.graph();
  const int kClasses = 12;
  std::vector<Oid> classes;
  for (int i = 0; i < kClasses; ++i) {
    classes.push_back(A(("C" + std::to_string(i)).c_str()));
    ASSERT_TRUE(db.DeclareClass(classes.back()).ok());
  }
  // Random edges from lower to higher index: guaranteed acyclic; the
  // cycle check must accept them all.
  for (int i = 0; i < kClasses; ++i) {
    for (int j = i + 1; j < kClasses; ++j) {
      if (rng.Percent(25)) {
        ASSERT_TRUE(db.AddSubclass(classes[i], classes[j]).ok());
      }
    }
  }
  // And any attempt to close a cycle must fail.
  for (int trial = 0; trial < 20; ++trial) {
    size_t a = rng.Uniform(kClasses);
    size_t b = rng.Uniform(kClasses);
    if (graph.IsStrictSubclass(classes[a], classes[b])) {
      EXPECT_FALSE(db.AddSubclass(classes[b], classes[a]).ok());
    }
  }
  // Instances respect upward closure, and deep extents contain direct
  // extents of descendants.
  for (int i = 0; i < 20; ++i) {
    Oid obj = A(("o" + std::to_string(i)).c_str());
    const Oid& cls = classes[rng.Uniform(kClasses)];
    ASSERT_TRUE(db.NewObject(obj, {cls}).ok());
  }
  for (const Oid& cls : classes) {
    for (const Oid& obj : db.Extent(cls)) {
      bool member_somewhere = false;
      for (const Oid& direct : db.DirectClassesOf(obj)) {
        if (graph.IsSubclassEq(direct, cls)) member_somewhere = true;
      }
      EXPECT_TRUE(member_somewhere);
    }
    for (const Oid& sub : graph.Descendants(cls)) {
      graph.DirectExtent(sub).ForEach([&](const Oid& obj) {
        EXPECT_TRUE(db.Extent(cls).Contains(obj));
      });
    }
  }
  EXPECT_TRUE(InstancesMatchExtents(db));
}

// OidSet algebra laws on random sets.
TEST_P(DifferentialTest, OidSetAlgebraLaws) {
  Rng rng(GetParam() * 97);
  auto random_set = [&rng]() {
    OidSet out;
    size_t n = rng.Uniform(12);
    for (size_t i = 0; i < n; ++i) {
      out.Insert(Oid::Int(static_cast<int64_t>(rng.Uniform(10))));
    }
    return out;
  };
  for (int trial = 0; trial < 50; ++trial) {
    OidSet a = random_set();
    OidSet b = random_set();
    OidSet u = OidSet::Union(a, b);
    OidSet i = OidSet::Intersect(a, b);
    OidSet d = OidSet::Difference(a, b);
    EXPECT_TRUE(a.SubsetOf(u));
    EXPECT_TRUE(i.SubsetOf(a));
    EXPECT_TRUE(i.SubsetOf(b));
    EXPECT_EQ(OidSet::Union(d, i), a);            // partition law
    EXPECT_EQ(u.size() + i.size(), a.size() + b.size());
    EXPECT_EQ(OidSet::Union(a, b), OidSet::Union(b, a));
  }
}

// Structurally random path queries: walk the Figure 1 composition
// hierarchy through schema-valid attribute chains and check the two
// evaluators agree on every generated query.
TEST_P(DifferentialTest, RandomPathQueriesAgree) {
  Database db;
  BuildTinyDb(&db, GetParam());
  Evaluator evaluator(&db);
  Rng rng(GetParam() * 1009 + 11);

  struct Hop {
    const char* attr;
    const char* result;
  };
  static const std::map<std::string, std::vector<Hop>>& kSchema =
      *new std::map<std::string, std::vector<Hop>>{
          {"Person", {{"Residence", "Address"}, {"OwnedVehicles", "Vehicle"}}},
          {"Employee",
           {{"Residence", "Address"},
            {"OwnedVehicles", "Vehicle"},
            {"FamMembers", "Person"},
            {"Dependents", "Person"}}},
          {"Company",
           {{"Divisions", "Division"},
            {"President", "Employee"},
            {"Headquarters", "Address"},
            {"Retirees", "Person"}}},
          {"Division",
           {{"Manager", "Employee"},
            {"Employees", "Employee"},
            {"Location", "Address"}}},
          {"Automobile",
           {{"Drivetrain", "VehicleDrivetrain"},
            {"Manufacturer", "Company"}}},
          {"VehicleDrivetrain", {{"Engine", "PistonEngine"}}},
          {"Vehicle", {{"Manufacturer", "Company"}}},
          {"Address", {}},
          {"PistonEngine", {}},
      };
  static const char* kRoots[] = {"Person",   "Employee", "Company",
                                 "Division", "Automobile"};

  for (int trial = 0; trial < 25; ++trial) {
    std::string cls = kRoots[rng.Uniform(std::size(kRoots))];
    std::string path = "X";
    std::string current = cls;
    size_t hops = 1 + rng.Uniform(3);
    for (size_t h = 0; h < hops; ++h) {
      const auto& edges = kSchema.at(current);
      if (edges.empty()) break;
      const Hop& hop = edges[rng.Uniform(edges.size())];
      path += ".";
      path += hop.attr;
      current = hop.result;
    }
    // Random terminal shape: bare predicate, selector variable, a
    // constant selector, or a comparison when the end is comparable.
    std::string text;
    switch (rng.Uniform(4)) {
      case 0:
        text = "SELECT X FROM " + cls + " X WHERE " + path;
        break;
      case 1:
        text = "SELECT X, End FROM " + cls + " X WHERE " + path + "[End]";
        break;
      case 2:
        if (current == "Address") {
          text = "SELECT X FROM " + cls + " X WHERE " + path +
                 ".City['newyork']";
        } else {
          text = "SELECT X FROM " + cls + " X WHERE " + path;
        }
        break;
      default:
        if (current == "Person" || current == "Employee") {
          text = "SELECT X FROM " + cls + " X WHERE " + path +
                 ".Age some> " + std::to_string(rng.Range(10, 70));
        } else {
          text = "SELECT X, End FROM " + cls + " X WHERE " + path + "[End]";
        }
        break;
    }
    auto stmt = ParseAndResolve(text, db);
    ASSERT_TRUE(stmt.ok()) << text;
    const Query& q = *stmt->query->simple;
    auto smart = evaluator.Run(q);
    ASSERT_TRUE(smart.ok()) << text << "\n" << smart.status().ToString();
    auto naive = evaluator.RunNaive(q);
    ASSERT_TRUE(naive.ok()) << text << "\n" << naive.status().ToString();
    EXPECT_EQ(Rows(smart->relation), Rows(naive->relation)) << text;
    EXPECT_TRUE(DomainMatchesRecompute(db)) << text;
    EXPECT_TRUE(DispatchMatchesWalk(db)) << text;
    EXPECT_TRUE(InstancesMatchExtents(db)) << text;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DifferentialTest,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34));

}  // namespace
}  // namespace xsql
