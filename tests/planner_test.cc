// The cost-based planner and the prepared-plan cache (experiment id
// B14): differential tests proving planned evaluation is answer-
// identical to the naive §3.4 reference semantics, planner unit tests
// (selectivity ordering, hash-join shape detection, §5 UPDATE pinning,
// index-driven cardinality refinement), and plan-cache behavior
// (hit-skips-preparation, DDL invalidation, eviction, disabling,
// cross-session sharing).
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "common/rng.h"
#include "eval/evaluator.h"
#include "eval/plan_cache.h"
#include "eval/session.h"
#include "obs/trace.h"
#include "parser/parser.h"
#include "store/index.h"
#include "typing/planner.h"
#include "typing/type_checker.h"
#include "workload/fig1_schema.h"
#include "workload/generator.h"

namespace xsql {
namespace {

Oid A(const char* s) { return Oid::Atom(s); }

std::multiset<std::vector<Oid>> Rows(const Relation& rel) {
  return {rel.rows().begin(), rel.rows().end()};
}

/// A tiny instance keeps the naive evaluator's full-domain enumeration
/// tractable (same sizing as property_test).
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

/// Multi-variable join templates — the queries the hash join and the
/// selectivity ordering actually rewrite. %1 is a numeric threshold.
const char* kJoinTemplates[] = {
    "SELECT X, Y FROM Employee X, Employee Y WHERE X.Salary =some Y.Salary",
    "SELECT X, Y FROM Employee X, Person Y WHERE X.Name =some Y.Name "
    "and X.Salary > %1",
    "SELECT X, Y FROM Person X, Person Y WHERE "
    "X.Residence.City =some Y.Residence.City",
    "SELECT X, Y FROM Employee X, Employee Y WHERE "
    "X.FamMembers.Age =some Y.FamMembers.Age",
    "SELECT X, Y FROM Employee X, Employee Y WHERE X.Salary =all Y.Salary",
    // kAll sides hash-join too: an employee with no family has an empty
    // FamMembers.Age, which satisfies kAll vacuously, so these pin the
    // join's empty-side partners under every kAll quantifier pair.
    "SELECT X, Y FROM Employee X, Employee Y WHERE "
    "X.FamMembers.Age =all Y.FamMembers.Age",
    "SELECT X, Y FROM Employee X, Employee Y WHERE "
    "X.FamMembers.Age all=all Y.FamMembers.Age",
    "SELECT X, Y FROM Employee X, Employee Y WHERE "
    "X.FamMembers.Age some=all Y.FamMembers.Age",
    "SELECT X, Y FROM Employee X, Person Y WHERE X.FamMembers.Age all= Y.Age",
    "SELECT X, Y FROM Employee X, Person Y WHERE "
    "X.FamMembers.Age all=some Y.Age",
    "SELECT X, Y FROM Person X, Employee Y WHERE X.Age =all Y.FamMembers.Age",
    // Three-way: two join conjuncts plus a constant filter.
    "SELECT X, Y, Z FROM Employee X, Employee Y, Company Z WHERE "
    "X.Salary =some Y.Salary and Z.Divisions.Employees[X]",
};

/// Single-variable templates from the paper corpus (subset of the
/// property_test fragment the naive evaluator covers).
const char* kCorpusTemplates[] = {
    "SELECT C WHERE mary123.Residence.City[C]",
    "SELECT Y FROM Person X WHERE X.Residence[Y]",
    "SELECT X FROM Employee X WHERE X.Salary > %1",
    "SELECT X FROM Employee X WHERE X.FamMembers.Age some> %1",
    "SELECT X, W FROM Company X WHERE X.Divisions.Employees[W]",
    "SELECT X FROM Person X WHERE X.Residence =all X.FamMembers.Residence",
    "SELECT X, Y FROM Company X WHERE X.Name =some "
    "X.Divisions.Employees[Y].Name",
    "SELECT W FROM Company Y WHERE Y.Retirees[W] or Y.President[W]",
};

std::string Instantiate(const char* tmpl, Rng* rng) {
  std::string out = tmpl;
  size_t pos;
  while ((pos = out.find("%1")) != std::string::npos) {
    out.replace(pos, 2, std::to_string(rng->Range(10000, 90000)));
  }
  return out;
}

/// Builds the index set the planner consults in the indexed variants.
void AddIndexes(Database* db, PathIndexSet* indexes) {
  ASSERT_TRUE(indexes->Add(*db, A("Person"), {A("Name")}).ok());
  ASSERT_TRUE(indexes->Add(*db, A("Employee"), {A("Salary")}).ok());
  ASSERT_TRUE(
      indexes->Add(*db, A("Person"), {A("Residence"), A("City")}).ok());
}

/// Runs `text` three ways — naive §3.4 reference, planner off, planner
/// on (optionally with indexes) — and requires identical multisets.
void ExpectPlannedEqualsNaive(Database* db, const std::string& text,
                              const PathIndexSet* indexes) {
  auto stmt = ParseAndResolve(text, *db);
  ASSERT_TRUE(stmt.ok()) << text;
  ASSERT_EQ(stmt->kind, Statement::Kind::kQuery);
  const Query& q = *stmt->query->simple;

  Evaluator evaluator(db);
  auto naive = evaluator.RunNaive(q);
  ASSERT_TRUE(naive.ok()) << text << "\n" << naive.status().ToString();

  // Planner off: the greedy ready-first baseline.
  auto baseline = evaluator.Run(q);
  ASSERT_TRUE(baseline.ok()) << text;
  EXPECT_EQ(Rows(baseline->relation), Rows(naive->relation)) << text;

  // Planner on, with the strict witness's ranges when one exists.
  TypeChecker checker(*db);
  TypingResult typing = checker.Check(q, TypingMode::kStrict);
  Planner planner(*db, indexes);
  QueryPlan plan = planner.Plan(
      q, typing.well_typed && typing.in_fragment ? &typing.ranges : nullptr);
  EvalOptions opts;
  opts.plan = &plan;
  opts.indexes = indexes;
  if (typing.well_typed && typing.in_fragment) opts.ranges = &typing.ranges;
  auto planned = evaluator.Run(q, opts);
  ASSERT_TRUE(planned.ok()) << text << "\n" << planned.status().ToString();
  EXPECT_EQ(Rows(planned->relation), Rows(naive->relation)) << text;
}

class PlannerDifferentialTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(PlannerDifferentialTest, PlannedEqualsNaiveOnCorpus) {
  Database db;
  BuildTinyDb(&db, GetParam());
  Rng rng(GetParam() * 31 + 7);
  for (const char* tmpl : kCorpusTemplates) {
    ExpectPlannedEqualsNaive(&db, Instantiate(tmpl, &rng), nullptr);
  }
}

TEST_P(PlannerDifferentialTest, PlannedEqualsNaiveOnJoins) {
  Database db;
  BuildTinyDb(&db, GetParam());
  Rng rng(GetParam() * 17 + 3);
  for (const char* tmpl : kJoinTemplates) {
    ExpectPlannedEqualsNaive(&db, Instantiate(tmpl, &rng), nullptr);
  }
}

TEST_P(PlannerDifferentialTest, PlannedEqualsNaiveWithIndexes) {
  Database db;
  BuildTinyDb(&db, GetParam());
  PathIndexSet indexes;
  AddIndexes(&db, &indexes);
  Rng rng(GetParam() * 13 + 11);
  for (const char* tmpl : kJoinTemplates) {
    ExpectPlannedEqualsNaive(&db, Instantiate(tmpl, &rng), &indexes);
  }
  for (const char* tmpl : kCorpusTemplates) {
    ExpectPlannedEqualsNaive(&db, Instantiate(tmpl, &rng), &indexes);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PlannerDifferentialTest,
                         ::testing::Values(1, 2, 3, 5, 8));

// ------------------------------------------------------------- planner

class PlannerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(workload::BuildFig1Schema(&db_).ok());
    workload::WorkloadParams params;
    ASSERT_TRUE(workload::GenerateFig1Data(&db_, params).ok());
    session_ = std::make_unique<Session>(&db_);
  }

  QueryPlan PlanFor(const std::string& text,
                    const PathIndexSet* indexes = nullptr) {
    auto stmt = ParseAndResolve(text, db_);
    EXPECT_TRUE(stmt.ok()) << text;
    Planner planner(db_, indexes);
    return planner.Plan(*stmt->query->simple);
  }

  Database db_;
  std::unique_ptr<Session> session_;
};

TEST_F(PlannerTest, EqualitySomeJoinIsHashJoinable) {
  QueryPlan plan = PlanFor(
      "SELECT X, Y FROM Employee X, Employee Y WHERE "
      "X.Salary =some Y.Salary");
  ASSERT_EQ(plan.hash_joinable.size(), 1u);
  EXPECT_TRUE(plan.hash_joinable[0]);
  EXPECT_TRUE(plan.allow_reorder);
}

TEST_F(PlannerTest, AllQuantifierJoinIsHashJoinable) {
  // =all holds vacuously on an empty side; the join partners such a
  // side with every candidate, so the shape is joinable and EXPLAIN
  // says why.
  QueryPlan plan = PlanFor(
      "SELECT X, Y FROM Employee X, Employee Y WHERE "
      "X.Salary =all Y.Salary");
  ASSERT_EQ(plan.hash_joinable.size(), 1u);
  EXPECT_TRUE(plan.hash_joinable[0]);
  bool explained = false;
  for (const std::string& d : plan.decisions) {
    if (d.find("hash join p0") != std::string::npos &&
        d.find("or an empty =all side") != std::string::npos) {
      explained = true;
    }
  }
  EXPECT_TRUE(explained);
}

TEST_F(PlannerTest, ConstantComparisonIsNotHashJoinable) {
  QueryPlan plan =
      PlanFor("SELECT X FROM Employee X WHERE X.Salary > 100");
  ASSERT_EQ(plan.hash_joinable.size(), 1u);
  EXPECT_FALSE(plan.hash_joinable[0]);
}

TEST_F(PlannerTest, NonEqualityJoinIsNotHashJoinable) {
  QueryPlan plan = PlanFor(
      "SELECT X, Y FROM Employee X, Employee Y WHERE "
      "X.Salary some> Y.Salary");
  ASSERT_EQ(plan.hash_joinable.size(), 1u);
  EXPECT_FALSE(plan.hash_joinable[0]);
}

TEST_F(PlannerTest, FromOrderPutsSmallExtentFirst) {
  // Person dominates Company in the generated instance; the plan must
  // reverse the declaration order.
  QueryPlan plan = PlanFor(
      "SELECT X, Y FROM Person X, Company Y WHERE "
      "Y.Divisions.Employees[X]");
  ASSERT_EQ(plan.from_order.size(), 2u);
  EXPECT_EQ(plan.from_order[0], 1u);  // Company first
  EXPECT_EQ(plan.from_order[1], 0u);
  ASSERT_EQ(plan.from_card.size(), 2u);
  EXPECT_LT(plan.from_card[1], plan.from_card[0]);
}

TEST_F(PlannerTest, NestedUpdatePinsDeclarationOrder) {
  // §5: a nested UPDATE relies on left-to-right evaluation; the plan
  // must tell the evaluator to keep declaration order untouched.
  QueryPlan plan = PlanFor(
      "SELECT X FROM Company X WHERE X.Name['company0'] and "
      "(UPDATE CLASS Division SET div0_0.Function = 'mischief')");
  EXPECT_FALSE(plan.allow_reorder);
}

TEST_F(PlannerTest, FreshIndexRefinesCardinalityAndIsReported) {
  PathIndexSet indexes;
  AddIndexes(&db_, &indexes);
  QueryPlan plan = PlanFor(
      "SELECT X FROM Person X WHERE X.Name['mary']", &indexes);
  bool mentions_index = false;
  for (const std::string& d : plan.decisions) {
    if (d.find("index") != std::string::npos) mentions_index = true;
  }
  EXPECT_TRUE(mentions_index);
  ASSERT_EQ(plan.from_card.size(), 1u);
  // An exact-match probe estimate must be far below the extent size.
  EXPECT_LT(plan.from_card[0], db_.Extent(A("Person")).size());
}

TEST_F(PlannerTest, SessionPlannerMatchesPlannerOffOnFullCorpus) {
  // The whole end-to-end surface on the full Figure 1 instance: a
  // planner-on session and a planner-off session must agree on every
  // read-only paper query (naive is intractable at this scale; the
  // tiny-instance differentials above pin both to the §3.4 semantics).
  SessionOptions off;
  off.use_planner = false;
  off.plan_cache_capacity = 0;
  Session unplanned(&db_, off);
  const char* corpus[] = {
      "SELECT C WHERE mary123.Residence.City[C]",
      "SELECT N WHERE uniSQL.President.FamMembers.Name[N]",
      "SELECT Y FROM Person X WHERE X.Residence[Y].City['newyork']",
      "SELECT Z FROM Employee X, Automobile Y "
      "WHERE X.OwnedVehicles[Y].Drivetrain.Engine[Z]",
      "SELECT X FROM Employee X WHERE X.FamMembers.Age some> 20",
      "SELECT X FROM Automobile Y WHERE Y.Manufacturer[X] "
      "and X.President.OwnedVehicles.Color containsEq {'blue', 'red'} "
      "and X.President.Age < 30",
      "SELECT X FROM Person X WHERE X.Residence =all "
      "X.FamMembers.Residence",
      "SELECT X, Y FROM Employee X, Employee Y WHERE "
      "Y.FamMembers.Age all<all X.FamMembers.Age and X.Name['john']",
      "SELECT X FROM Employee X WHERE count(X.FamMembers) > 4 "
      "and X.Salary < 100000",
      "SELECT X.Name, W.Salary FROM Company X "
      "WHERE X.Divisions.Employees[W].FamMembers.Age some> 60",
      "SELECT X, Y FROM Employee X, Employee Y WHERE "
      "X.Salary =some Y.Salary",
      "SELECT X FROM Vehicle X "
      "WHERE X.Manufacturer[M] and M.President.OwnedVehicles[X]",
      "SELECT X FROM Person X WHERE X.*P.City['newyork'] "
      "and X.Name['mary']",
      "SELECT $C FROM $C Y WHERE Y.Name['mary'] and Y.Residence",
      "SELECT X FROM Person X MINUS SELECT X FROM Employee X",
  };
  for (const char* text : corpus) {
    auto planned = session_->Query(text);
    ASSERT_TRUE(planned.ok()) << text << "\n"
                              << planned.status().ToString();
    auto reference = unplanned.Query(text);
    ASSERT_TRUE(reference.ok()) << text;
    EXPECT_EQ(Rows(*planned), Rows(*reference)) << text;
  }
}

// ---------------------------------------------------------- plan cache

/// Top-level span names of a tracer, in first-seen order.
std::vector<std::string> TopSpans(const obs::Tracer& tracer) {
  std::vector<std::string> names;
  for (const auto& child : tracer.root().children) {
    names.push_back(child->name);
  }
  return names;
}

TEST_F(PlannerTest, CacheHitSkipsParseTypecheckAndPlanning) {
  const char* kQ = "SELECT X FROM Employee X WHERE X.Salary > 50000";
  ASSERT_TRUE(session_->Query(kQ).ok());  // cold: prepares + caches
  obs::Tracer tracer;
  {
    obs::ScopedTracer install(&tracer);
    ASSERT_TRUE(session_->Query(kQ).ok());
  }
  // The hot execution must carry no preparation spans at all.
  EXPECT_EQ(TopSpans(tracer), std::vector<std::string>{"statement"});
  EXPECT_EQ(session_->plan_cache().size(), 1u);
}

TEST_F(PlannerTest, WhitespaceVariantsShareACacheSlot) {
  ASSERT_TRUE(session_->Query("SELECT X FROM Company X").ok());
  ASSERT_TRUE(session_->Query("SELECT   X\nFROM  Company   X").ok());
  EXPECT_EQ(session_->plan_cache().size(), 1u);
  // ...but string-literal content is not normalizable formatting.
  EXPECT_NE(PlanCache::NormalizeText("SELECT 'a  b'"),
            PlanCache::NormalizeText("SELECT 'a b'"));
}

TEST_F(PlannerTest, MutationInvalidatesCachedPlans) {
  const char* kQ = "SELECT X FROM Person X WHERE X.Name['mary']";
  ASSERT_TRUE(session_->Query(kQ).ok());
  // Any mutation bumps Database::version(); the cached entry is stale.
  ASSERT_TRUE(
      session_->Execute("UPDATE CLASS Person SET mary123.Name = 'maria'")
          .ok());
  obs::Tracer tracer;
  {
    obs::ScopedTracer install(&tracer);
    auto rel = session_->Query(kQ);
    ASSERT_TRUE(rel.ok());
    EXPECT_TRUE(rel->empty());  // the rename is visible, not the cache
  }
  // Stale entry dropped: the statement re-prepared from scratch.
  std::vector<std::string> spans = TopSpans(tracer);
  EXPECT_NE(std::find(spans.begin(), spans.end(), "parse"), spans.end());
  EXPECT_NE(std::find(spans.begin(), spans.end(), "typecheck"),
            spans.end());
}

TEST_F(PlannerTest, CapacityZeroDisablesCaching) {
  SessionOptions options;
  options.plan_cache_capacity = 0;
  Session session(&db_, options);
  ASSERT_TRUE(session.Query("SELECT X FROM Company X").ok());
  ASSERT_TRUE(session.Query("SELECT X FROM Company X").ok());
  EXPECT_EQ(session.plan_cache().size(), 0u);
}

TEST_F(PlannerTest, LruEvictionHonorsCapacity) {
  SessionOptions options;
  options.plan_cache_capacity = 2;
  Session session(&db_, options);
  ASSERT_TRUE(session.Query("SELECT X FROM Company X").ok());
  ASSERT_TRUE(session.Query("SELECT X FROM Person X").ok());
  ASSERT_TRUE(session.Query("SELECT X FROM Vehicle X").ok());
  EXPECT_EQ(session.plan_cache().size(), 2u);
}

TEST_F(PlannerTest, SharedCacheServesASecondSession) {
  // The server wiring without the server: two sessions over one cache;
  // a statement prepared on the first is hot on the second.
  Session second(&db_, SessionOptions{}, &session_->views(),
                 &session_->plan_cache());
  const char* kQ = "SELECT X FROM Employee X WHERE X.Salary > 50000";
  ASSERT_TRUE(session_->Query(kQ).ok());
  obs::Tracer tracer;
  {
    obs::ScopedTracer install(&tracer);
    ASSERT_TRUE(second.Query(kQ).ok());
  }
  EXPECT_EQ(TopSpans(tracer), std::vector<std::string>{"statement"});
}

TEST_F(PlannerTest, OnlyPlainQueriesAreCached) {
  ASSERT_TRUE(
      session_->Execute("UPDATE CLASS Person SET mary123.Age = 31").ok());
  EXPECT_EQ(session_->plan_cache().size(), 0u);
  ASSERT_TRUE(session_->Query("SELECT X FROM Company X").ok());
  EXPECT_EQ(session_->plan_cache().size(), 1u);
}

TEST_F(PlannerTest, ExplainReportsPlannerDecisions) {
  auto report = session_->Explain(
      "SELECT X, Y FROM Employee X, Employee Y WHERE "
      "X.Salary =some Y.Salary");
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_NE(report->find("planner"), std::string::npos) << *report;
  EXPECT_NE(report->find("hash join"), std::string::npos) << *report;
}

TEST_F(PlannerTest, ExplainAnalyzeReportsCacheState) {
  const char* kQ =
      "EXPLAIN ANALYZE SELECT X FROM Employee X WHERE X.Salary > 50000";
  auto cold = session_->Execute(kQ);
  ASSERT_TRUE(cold.ok()) << cold.status().ToString();
  std::string cold_text;
  for (const auto& row : cold->relation.rows()) {
    cold_text += row[0].str() + "\n";
  }
  EXPECT_NE(cold_text.find("cache : miss"), std::string::npos)
      << cold_text;
  // EXPLAIN ANALYZE itself does not publish to the cache (it rolls
  // back), but the plain statement does.
  ASSERT_TRUE(
      session_->Query("SELECT X FROM Employee X WHERE X.Salary > 50000")
          .ok());
  auto hot = session_->Execute(kQ);
  ASSERT_TRUE(hot.ok());
  std::string hot_text;
  for (const auto& row : hot->relation.rows()) {
    hot_text += row[0].str() + "\n";
  }
  EXPECT_NE(hot_text.find("cache : hit"), std::string::npos) << hot_text;
}

}  // namespace
}  // namespace xsql
