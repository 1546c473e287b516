// Batch-at-a-time execution (experiment id B16): the differential
// matrix proving the one FROM driver is answer-identical to the naive
// §3.4 reference with the planner off and planned (pure plans batch),
// across seeds — including impure statements, whose FROM arrays are
// rebuilt on every re-entry; the exact step charge of the DESIGN.md §7
// rule; the row budget's exact boundary through the batch driver; the
// satellite regressions (shared active-domain snapshot instead of a
// per-probe copy; index-generation staleness in the plan cache); and
// the server wiring (a ConcurrencyManager snapshot read answers as a
// plain Session does). Runs serially (ctest label: exec) — the suite
// reads global metrics deltas.
#include <gtest/gtest.h>

#include <filesystem>
#include <iterator>
#include <limits>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "common/rng.h"
#include "eval/evaluator.h"
#include "eval/session.h"
#include "obs/metrics.h"
#include "parser/parser.h"
#include "server/concurrency.h"
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

uint64_t CounterValue(const char* name) {
  return obs::MetricsRegistry::Global().GetCounter(name).value();
}

/// Small instance: the naive reference enumerates the full domain, so
/// differential sizing matches planner_test / property_test.
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

/// Bigger instance for tests that need more than a handful of
/// candidates per extent (no naive run).
void BuildMediumDb(Database* db, uint64_t seed) {
  ASSERT_TRUE(workload::BuildFig1Schema(db).ok());
  workload::WorkloadParams params;
  params.seed = seed;
  params.companies = 4;
  params.divisions_per_company = 2;
  params.employees_per_division = 4;
  params.extra_persons = 8;
  params.automobiles = 8;
  ASSERT_TRUE(workload::GenerateFig1Data(db, params).ok());
}

/// The join templates the batch kernel and the hash join must preserve
/// (same shapes the planner differential pins down).
const char* kJoinTemplates[] = {
    "SELECT X, Y FROM Employee X, Employee Y WHERE X.Salary =some Y.Salary",
    "SELECT X, Y FROM Employee X, Person Y WHERE X.Name =some Y.Name "
    "and X.Salary > %1",
    "SELECT X, Y FROM Person X, Person Y WHERE "
    "X.Residence.City =some Y.Residence.City",
    "SELECT X, Y FROM Employee X, Employee Y WHERE "
    "X.FamMembers.Age =some Y.FamMembers.Age",
    "SELECT X, Y FROM Employee X, Employee Y WHERE X.Salary =all Y.Salary",
    // Empty kAll sides (employees with no family) partner every
    // candidate on the other side of the hash join.
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
    "SELECT X, Y, Z FROM Employee X, Employee Y, Company Z WHERE "
    "X.Salary =some Y.Salary and Z.Divisions.Employees[X]",
    // Pure, but a class-variable entry never caches its candidates.
    "SELECT X, $C FROM $C X, Company Y WHERE Y.Divisions.Employees[X]",
};

/// Single-variable corpus templates (most are batch-eligible; the OR
/// template exercises the prefilter *exclusion* — kOr can re-enter the
/// continuation, so it must stay a per-tuple conjunct).
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
    "SELECT X FROM Employee X WHERE not X.Salary > %1",
    "SELECT X FROM Vehicle X WHERE X subclassOf Vehicle or X.Color['red']",
};

std::string Instantiate(const char* tmpl, Rng* rng) {
  std::string out = tmpl;
  size_t pos;
  while ((pos = out.find("%1")) != std::string::npos) {
    out.replace(pos, 2, std::to_string(rng->Range(10000, 90000)));
  }
  return out;
}

/// Impure templates with at least two FROM entries: a path variable, a
/// method variable, a class-variable FROM (made impure by a path
/// variable). The planner never clears path or method variables as
/// pure, so these run the driver's uncached, unfiltered FROM generator
/// even with a plan.
const char* kImpureTemplates[] = {
    "SELECT X, Y FROM Employee X, Company Y WHERE "
    "Y.Divisions.Employees[X] and X.*P.City[C]",
    "SELECT X, Y FROM Employee X, Person Y WHERE X.\"M[Y]",
    "SELECT X, $C FROM $C X, Company Y WHERE "
    "Y.Divisions.Employees[X] and X.*P.City[C]",
};

/// Plans `text` the way the session does (strict witness ranges when
/// one exists) and runs it under `opts` extras; with `use_planner` off
/// the driver gets no plan (the greedy ready-first schedule).
Result<EvalOutput> RunPlanned(Database* db, const std::string& text,
                              bool use_planner,
                              ExecutionContext* ctx = nullptr) {
  auto stmt = ParseAndResolve(text, *db);
  if (!stmt.ok()) return stmt.status();
  const Query& q = *stmt->query->simple;
  TypeChecker checker(*db);
  TypingResult typing = checker.Check(q, TypingMode::kStrict);
  Planner planner(*db, nullptr);
  QueryPlan plan = planner.Plan(
      q, typing.well_typed && typing.in_fragment ? &typing.ranges : nullptr);
  EvalOptions opts;
  if (use_planner) opts.plan = &plan;
  if (typing.well_typed && typing.in_fragment) opts.ranges = &typing.ranges;
  Evaluator evaluator(db, nullptr, ctx);
  return evaluator.Run(q, opts);
}

/// The differential matrix for one query: naive §3.4 reference ==
/// planner off == planned. The naive evaluator does not enumerate path
/// variables; for those queries the planner-off run is the reference.
void ExpectAllModesEqual(Database* db, const std::string& text) {
  auto stmt = ParseAndResolve(text, *db);
  ASSERT_TRUE(stmt.ok()) << text;
  ASSERT_EQ(stmt->kind, Statement::Kind::kQuery);

  auto unplanned = RunPlanned(db, text, /*use_planner=*/false);
  ASSERT_TRUE(unplanned.ok()) << text << "\n"
                              << unplanned.status().ToString();
  const auto expected = Rows(unplanned->relation);

  Evaluator reference(db);
  auto naive = reference.RunNaive(*stmt->query->simple);
  if (naive.status().code() != StatusCode::kUnimplemented) {
    ASSERT_TRUE(naive.ok()) << text << "\n" << naive.status().ToString();
    EXPECT_EQ(Rows(naive->relation), expected) << "naive: " << text;
  }

  auto serial = RunPlanned(db, text, /*use_planner=*/true);
  ASSERT_TRUE(serial.ok()) << text << "\n" << serial.status().ToString();
  EXPECT_EQ(Rows(serial->relation), expected) << "planned: " << text;
}

class ExecDifferentialTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ExecDifferentialTest, AllModesEqualOnJoins) {
  Database db;
  BuildTinyDb(&db, GetParam());
  Rng rng(GetParam() * 17 + 3);
  for (const char* tmpl : kJoinTemplates) {
    ExpectAllModesEqual(&db, Instantiate(tmpl, &rng));
  }
}

TEST_P(ExecDifferentialTest, AllModesEqualOnCorpus) {
  Database db;
  BuildTinyDb(&db, GetParam());
  Rng rng(GetParam() * 31 + 7);
  for (const char* tmpl : kCorpusTemplates) {
    ExpectAllModesEqual(&db, Instantiate(tmpl, &rng));
  }
}

TEST_P(ExecDifferentialTest, AllModesEqualOnImpureTemplates) {
  Database db;
  BuildTinyDb(&db, GetParam());
  for (const char* text : kImpureTemplates) {
    auto stmt = ParseAndResolve(text, db);
    ASSERT_TRUE(stmt.ok()) << text;
    Planner planner(db, nullptr);
    EXPECT_FALSE(planner.Plan(*stmt->query->simple, nullptr).batch_eligible)
        << text;
    auto out = RunPlanned(&db, text, /*use_planner=*/true);
    ASSERT_TRUE(out.ok()) << text << "\n" << out.status().ToString();
    EXPECT_GT(out->relation.size(), 0u) << text;
    ExpectAllModesEqual(&db, text);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ExecDifferentialTest,
                         ::testing::Values(1, 2, 3, 5, 8));

TEST(HashJoinTest, SignedNaNTerminalValuesJoinAsOneValue) {
  // `=` is oid identity, under which every NaN is one value: the quiet
  // NaN and the sign-bit NaN that inf - inf yields must meet in the
  // hash join's table as they meet in the planner-off pairwise test.
  Database db;
  BuildTinyDb(&db, 1);
  const OidSet employees = db.Extent(A("Employee"));
  ASSERT_GE(employees.size(), 2u);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const Oid first = *employees.begin();
  const Oid second = *std::next(employees.begin());
  ASSERT_TRUE(db.SetScalar(first, A("Salary"), Oid::Real(nan)).ok());
  ASSERT_TRUE(db.SetScalar(second, A("Salary"), Oid::Real(-nan)).ok());
  for (const char* text :
       {"SELECT X, Y FROM Employee X, Employee Y WHERE X.Salary =some "
        "Y.Salary",
        "SELECT X, Y FROM Employee X, Employee Y WHERE X.Salary =all "
        "Y.Salary"}) {
    auto stmt = ParseAndResolve(text, db);
    ASSERT_TRUE(stmt.ok()) << text;
    Planner planner(db, nullptr);
    ASSERT_EQ(planner.Plan(*stmt->query->simple).hash_joinable,
              std::vector<bool>{true})
        << text;
    ExpectAllModesEqual(&db, text);
    auto planned = RunPlanned(&db, text, /*use_planner=*/true);
    ASSERT_TRUE(planned.ok()) << text;
    EXPECT_EQ(Rows(planned->relation).count({first, second}), 1u) << text;
    EXPECT_EQ(Rows(planned->relation).count({second, first}), 1u) << text;
  }
}

// ------------------------------------------------------- one driver

TEST(OneDriverTest, ImpureConjunctGrowsInnerExtentMidStatement) {
  // X.Mint is a native method that mints one Widget per Maker. The
  // driver binds X, runs X.Mint, then enumerates Widget Y — so each
  // re-entry of the Y generator must see every widget minted so far.
  // A candidate array cached across re-entries would freeze Y at the
  // first maker's single widget.
  auto build = [](Database* db) {
    ASSERT_TRUE(db->DeclareClass(A("Maker")).ok());
    ASSERT_TRUE(db->DeclareClass(A("Widget")).ok());
    for (const char* m : {"m1", "m2", "m3"}) {
      ASSERT_TRUE(db->NewObject(A(m), {A("Maker")}).ok());
    }
    auto mint = std::make_shared<NativeMethodBody>(
        0, /*set_valued=*/false,
        [](Database& d, const Oid& maker,
           const std::vector<Oid>&) -> Result<OidSet> {
          const Oid widget = Oid::Atom("w_" + maker.ToString());
          XSQL_RETURN_IF_ERROR(d.NewObject(widget, {Oid::Atom("Widget")}));
          OidSet out;
          out.Insert(widget);
          return out;
        });
    ASSERT_TRUE(db->DefineMethod(A("Maker"), A("Mint"), 0, mint).ok());
  };
  const std::string text =
      "SELECT X, Y FROM Maker X, Widget Y WHERE X.Mint";
  const std::multiset<std::vector<Oid>> expected = {
      {A("m1"), A("w_m1")},
      {A("m2"), A("w_m1")}, {A("m2"), A("w_m2")},
      {A("m3"), A("w_m1")}, {A("m3"), A("w_m2")}, {A("m3"), A("w_m3")},
  };
  for (bool use_planner : {false, true}) {
    Database db;
    build(&db);
    auto out = RunPlanned(&db, text, use_planner);
    ASSERT_TRUE(out.ok()) << out.status().ToString();
    EXPECT_EQ(Rows(out->relation), expected) << "planner=" << use_planner;
  }
}

/// The steps one evaluation of `text` charges, under `plan` (null: the
/// planner-off schedule).
uint64_t StepsOf(Database* db, const std::string& text,
                 const QueryPlan* plan) {
  auto stmt = ParseAndResolve(text, *db);
  EXPECT_TRUE(stmt.ok()) << text;
  if (!stmt.ok()) return 0;
  EvalOptions opts;
  opts.plan = plan;
  ExecutionContext ctx{ExecLimits{}, nullptr};
  Evaluator evaluator(db, nullptr, &ctx);
  auto out = evaluator.Run(*stmt->query->simple, opts);
  EXPECT_TRUE(out.ok()) << out.status().ToString();
  EXPECT_EQ(out.ok() ? out->relation.size() : 0u, 6u);
  return ctx.steps();
}

TEST(OneDriverTest, StepChargeFollowsTheRule) {
  // DESIGN.md §7: one step per extent oid examined while building a
  // candidate array, one per candidate per prefilter pass or visit;
  // path walks charge one step per node (a bare variable is one node).
  Database db;
  ASSERT_TRUE(db.DeclareClass(A("Alpha")).ok());
  ASSERT_TRUE(db.DeclareClass(A("Beta")).ok());
  for (const char* a : {"a1", "a2"}) {
    ASSERT_TRUE(db.NewObject(A(a), {A("Alpha")}).ok());
  }
  for (const char* b : {"b1", "b2", "b3"}) {
    ASSERT_TRUE(db.NewObject(A(b), {A("Beta")}).ok());
  }
  const std::string text =
      "SELECT X, Y FROM Alpha X, Beta Y WHERE X != Y";
  auto stmt = ParseAndResolve(text, db);
  ASSERT_TRUE(stmt.ok());
  Planner planner(db, nullptr);
  QueryPlan plan = planner.Plan(*stmt->query->simple, nullptr);
  ASSERT_TRUE(plan.batch_eligible);
  ASSERT_EQ(plan.from_order, (std::vector<size_t>{0, 1}));  // Alpha outer

  // Both forms emit 6 rows, two one-node SELECT walks each: 12.
  //
  // Pure: build Alpha (2) + visit it (2) + build Beta once (3), then
  // per Alpha binding the prefilter `X != Y` walks its invariant side
  // once (1), passes over 3 candidates (3), and visits 3 survivors (3).
  // 2 + 2 + 3 + 2 * (1 + 3 + 3) + 12 = 33.
  EXPECT_EQ(StepsOf(&db, text, &plan), 33u);

  // Impure (or unplanned): build Alpha (2) + visit it (2), then per
  // Alpha binding rebuild Beta (3), visit 3 candidates (3), and test
  // the conjunct at each, walking both sides (3 * 2).
  // 2 + 2 + 2 * (3 + 3 + 6) + 12 = 40.
  QueryPlan impure = plan;
  impure.batch_eligible = false;
  EXPECT_EQ(StepsOf(&db, text, &impure), 40u);
  EXPECT_EQ(StepsOf(&db, text, nullptr), 40u);
}

TEST(OneDriverTest, PlannerMarksBatchEligibility) {
  Database db;
  BuildTinyDb(&db, 3);
  // Pure const-class FROM: eligible.
  {
    auto stmt = ParseAndResolve(
        "SELECT X FROM Employee X WHERE X.Salary > 0", db);
    ASSERT_TRUE(stmt.ok());
    Planner planner(db, nullptr);
    QueryPlan plan = planner.Plan(*stmt->query->simple, nullptr);
    EXPECT_TRUE(plan.batch_eligible);
  }
  // UPDATE in the WHERE clause: impure, its FROM arrays stay uncached.
  {
    auto stmt = ParseAndResolve(
        "SELECT X FROM Employee X WHERE UPDATE X.Salary = 1", db);
    if (stmt.ok()) {
      Planner planner(db, nullptr);
      QueryPlan plan = planner.Plan(*stmt->query->simple, nullptr);
      EXPECT_FALSE(plan.batch_eligible);
    }
  }
}

TEST(OneDriverTest, RowBudgetTripsExactlyPastTheLastRow) {
  // The batch driver charges one row per emitted row: a budget of the
  // answer's size passes, one less trips the row-budget guard.
  Database db;
  BuildMediumDb(&db, 13);
  const std::string text = "SELECT X FROM Employee X WHERE X.Salary > 0";

  auto full = RunPlanned(&db, text, /*use_planner=*/true);
  ASSERT_TRUE(full.ok());
  const size_t total = full->relation.size();
  ASSERT_GT(total, 4u);

  for (uint64_t budget : {static_cast<uint64_t>(total) - 1,
                          static_cast<uint64_t>(total)}) {
    ExecLimits limits;
    limits.max_rows = budget;
    ExecutionContext ctx{limits, nullptr};
    auto out = RunPlanned(&db, text, /*use_planner=*/true, &ctx);
    if (budget < total) {
      ASSERT_FALSE(out.ok()) << "budget=" << budget;
      EXPECT_EQ(out.status().code(), StatusCode::kResourceExhausted);
    } else {
      ASSERT_TRUE(out.ok()) << out.status().ToString();
      EXPECT_EQ(Rows(out->relation), Rows(full->relation));
    }
  }
}

// ------------------------------------------- satellite 1: var_domain

TEST(DomainSnapshotTest, ActiveDomainCopyIsASnapshotOfOneState) {
  Database db;
  BuildTinyDb(&db, 5);
  // A holder that must survive writes mid-enumeration (a view
  // materializing) takes a copy. The copy shares the chunks, and a later
  // write clones what it touches instead of patching the copy.
  const CountedOidSet pinned = db.ActiveDomain();
  ASSERT_TRUE(db.NewObject(A("probe_obj"), {A("Person")}).ok());
  EXPECT_FALSE(pinned.Contains(A("probe_obj")));
  EXPECT_TRUE(db.ActiveDomain().Contains(A("probe_obj")));
  EXPECT_EQ(db.ActiveDomain().size(), pinned.size() + 1);
  EXPECT_EQ(OidSet::Difference(db.ActiveDomain().ToOidSet(),
                               pinned.ToOidSet()),
            OidSet({A("probe_obj")}));
}

TEST(DomainSnapshotTest, RangeDomainsMaterializeOncePerStatement) {
  Database db;
  BuildMediumDb(&db, 9);
  // A ranged query whose v-selector re-enters once per outer binding:
  // without the per-statement cache this would materialize |Company|
  // domains; with it, at most one per distinct range variable.
  const std::string text =
      "SELECT X, W FROM Company X WHERE X.Divisions.Employees[W]";
  const uint64_t before = CounterValue("xsql.eval.domain_materializations");
  auto out = RunPlanned(&db, text, /*use_planner=*/true);
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  const uint64_t delta =
      CounterValue("xsql.eval.domain_materializations") - before;
  EXPECT_LE(delta, 2u) << "per-probe materialization regressed";
}

// ------------------------------- satellite 2: plan-cache staleness

TEST(PlanCacheStalenessTest, IndexRebuildInvalidatesCachedPlans) {
  Database db;
  BuildTinyDb(&db, 2);
  PathIndexSet indexes;
  ASSERT_TRUE(indexes.Add(db, A("Employee"), {A("Salary")}).ok());

  SessionOptions options;
  options.indexes = &indexes;
  Session session(&db, options);
  // The canonical text is what the cache is keyed on; EXPLAIN ANALYZE
  // reports whether a plain execution of its query would hit.
  const std::string query = "SELECT X FROM Employee X WHERE X.Salary > 10";
  const std::string probe = "EXPLAIN ANALYZE " + query;

  auto Render = [&](const char* what) -> std::string {
    auto out = session.Execute(probe);
    EXPECT_TRUE(out.ok()) << what << ": " << out.status().ToString();
    return out.ok() ? RenderEvalOutput(*out) : std::string();
  };

  EXPECT_NE(Render("cold").find("cache : miss"), std::string::npos);
  ASSERT_TRUE(session.Execute(query).ok());  // publishes the plan
  EXPECT_NE(Render("warm").find("cache : hit"), std::string::npos);

  // An index rebuild changes planner inputs WITHOUT bumping
  // Database::version() — the staleness the generation key closes: the
  // cached plan must not survive it.
  ASSERT_TRUE(indexes.Add(db, A("Person"), {A("Name")}).ok());
  EXPECT_NE(Render("post-rebuild").find("cache : miss"), std::string::npos);
  ASSERT_TRUE(session.Execute(query).ok());  // re-publishes
  EXPECT_NE(Render("re-warm").find("cache : hit"), std::string::npos);
}

// ----------------------------------------------------- server wiring

TEST(ServerExecTest, SnapshotReadMatchesSerialSession) {
  const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
  const std::string dir =
      ::testing::TempDir() + "/xsql_exec_" + info->name();
  std::filesystem::remove_all(dir);

  auto dd = storage::DurableDatabase::Open(dir);
  ASSERT_TRUE(dd.ok()) << dd.status().ToString();
  // Populate the master BEFORE the manager forks version 1, so the
  // pinned snapshot the readers share carries real extents (the WAL is
  // bypassed; this test never reopens the directory).
  BuildMediumDb(&(*dd)->db(), 17);

  server::ConcurrencyManager manager(dd->get());
  auto sid = manager.CreateSession(SessionOptions{});
  ASSERT_TRUE(sid.ok());

  Database reference;
  BuildMediumDb(&reference, 17);
  Session serial(&reference);
  const std::string text = "SELECT X FROM Employee X WHERE X.Salary > 0";
  auto expected = serial.Query(text);
  ASSERT_TRUE(expected.ok());
  ASSERT_GT(expected->size(), 0u);

  // The latch-free snapshot-read path answers as the plain session.
  auto read = manager.Execute(*sid, text);
  ASSERT_TRUE(read.ok()) << read.status().ToString();
  EXPECT_EQ(Rows(read->relation), Rows(*expected));

  manager.CloseSession(*sid);
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace xsql
