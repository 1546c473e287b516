// Session-level behaviours: Explain, statement dispatch, statelessness
// across repeated queries, correlated subqueries, arithmetic edge
// cases, and printing of results.
#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "eval/session.h"
#include "workload/fig1_schema.h"
#include "workload/generator.h"

namespace xsql {
namespace {

Oid A(const char* s) { return Oid::Atom(s); }

class SessionTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(workload::BuildFig1Schema(&db_).ok());
    workload::WorkloadParams params;
    params.companies = 2;
    params.divisions_per_company = 2;
    params.employees_per_division = 2;
    ASSERT_TRUE(workload::GenerateFig1Data(&db_, params).ok());
    session_ = std::make_unique<Session>(&db_);
  }

  Database db_;
  std::unique_ptr<Session> session_;
};

TEST_F(SessionTest, ExplainStrictQuery) {
  auto report = session_->Explain(
      "SELECT X FROM Vehicle X WHERE X.Manufacturer[M] "
      "and M.President.OwnedVehicles[X]");
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_NE(report->find("strict  : well-typed"), std::string::npos);
  EXPECT_NE(report->find("plan    : p0 -> p1"), std::string::npos);
  EXPECT_NE(report->find("A(M)"), std::string::npos);
}

TEST_F(SessionTest, ExplainLiberalOnlyQuery) {
  ASSERT_TRUE(workload::BuildNobelSchema(&db_).ok());
  auto report = session_->Explain("SELECT X WHERE X.WonNobelPrize");
  ASSERT_TRUE(report.ok());
  EXPECT_NE(report->find("liberal : well-typed"), std::string::npos);
  EXPECT_NE(report->find("strict  : ill-typed"), std::string::npos);
}

TEST_F(SessionTest, ExplainOutsideFragment) {
  auto report = session_->Explain(
      "SELECT X FROM Person X WHERE X.Name['a'] or X.Age > 1");
  ASSERT_TRUE(report.ok());
  EXPECT_NE(report->find("outside the typed fragment"), std::string::npos);
}

TEST_F(SessionTest, RepeatedQueriesAreStateless) {
  const char* text =
      "SELECT X.Name, W.Salary FROM Company X WHERE X.Divisions.Employees[W]";
  auto first = session_->Query(text);
  ASSERT_TRUE(first.ok());
  auto second = session_->Query(text);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(first->rows(), second->rows());
}

TEST_F(SessionTest, CorrelatedSubquery) {
  // Companies where some employee earns above the company president's
  // salary (X is free in the subquery).
  auto rel = session_->Query(
      "SELECT X FROM Company X WHERE "
      "X.President.Salary some< "
      "(SELECT W FROM Employee E WHERE X.Divisions.Employees[E] "
      " and E.Salary[W])");
  ASSERT_TRUE(rel.ok()) << rel.status().ToString();
  // Verify each answer manually.
  for (const auto& row : rel->rows()) {
    const Oid& company = row[0];
    Oid president = db_.GetAttribute(company, A("President"))->scalar();
    double pres_salary =
        db_.GetAttribute(president, A("Salary"))->scalar().numeric_value();
    bool some_higher = false;
    for (const Oid& div :
         db_.GetAttribute(company, A("Divisions"))->AsSet()) {
      for (const Oid& emp : db_.GetAttribute(div, A("Employees"))->AsSet()) {
        if (db_.GetAttribute(emp, A("Salary"))->scalar().numeric_value() >
            pres_salary) {
          some_higher = true;
        }
      }
    }
    EXPECT_TRUE(some_higher) << company.ToString();
  }
}

TEST_F(SessionTest, ArithmeticMixesIntAndReal) {
  auto rel = session_->Query(
      "SELECT X FROM Employee X WHERE X.Salary * 1.5 > X.Salary + 1");
  ASSERT_TRUE(rel.ok()) << rel.status().ToString();
  EXPECT_EQ(rel->size(), db_.Extent(A("Employee")).size());
  // Integer arithmetic stays integral.
  auto sum = session_->Query(
      "SELECT X FROM Employee X WHERE X.Salary + 0 = X.Salary");
  ASSERT_TRUE(sum.ok());
  EXPECT_EQ(sum->size(), db_.Extent(A("Employee")).size());
}

// Int (+ - *) Int is computed in int64: exact above 2^53 and up to the
// int64 bounds, an error past them.
TEST_F(SessionTest, IntegerArithmeticIsExactAndChecked) {
  ASSERT_TRUE(session_
                  ->Execute("UPDATE CLASS Person SET mary.Salary = "
                            "9007199254740993 + 0")
                  .ok());
  const AttrValue* salary = db_.GetAttribute(A("mary"), A("Salary"));
  ASSERT_NE(salary, nullptr);
  EXPECT_EQ(salary->scalar(), Oid::Int(9007199254740993));
  auto edge = session_->Query("SELECT X WHERE X = 9223372036854775807 - 1");
  EXPECT_TRUE(edge.ok()) << edge.status().ToString();
  for (const char* value : {"9223372036854775807 + 1",
                            "0 - 9223372036854775807 - 2",
                            "4611686018427387904 * 2"}) {
    auto out = session_->Execute(
        std::string("UPDATE CLASS Person SET mary.Salary = ") + value);
    ASSERT_FALSE(out.ok()) << value;
    EXPECT_EQ(out.status().code(), StatusCode::kRuntimeError);
    EXPECT_NE(out.status().message().find("integer overflow"),
              std::string::npos)
        << out.status().ToString();
  }
}

// An all-Int SUM is exact in int64 and checked; a non-finite SUM or AVG
// is an error, not a stored infinity.
TEST_F(SessionTest, SumAndAvgStayInRange) {
  auto run = [&](const std::string& stmt) { return session_->Execute(stmt); };
  auto total = [&]() {
    const AttrValue* v = db_.GetAttribute(A("h"), A("Total"));
    return v == nullptr ? Oid() : v->scalar();
  };
  ASSERT_TRUE(run("UPDATE CLASS Person SET h.Top = {9223372036854775807}").ok());
  ASSERT_TRUE(run("UPDATE CLASS Person SET h.Total = sum(h.Top)").ok());
  EXPECT_EQ(total(), Oid::Int(9223372036854775807));
  ASSERT_TRUE(run("UPDATE CLASS Person SET h.Near = {9007199254740993, 2}").ok());
  ASSERT_TRUE(run("UPDATE CLASS Person SET h.Total = sum(h.Near)").ok());
  EXPECT_EQ(total(), Oid::Int(9007199254740995));
  // Ints that overflow int64 before a real joins them sum as reals.
  ASSERT_TRUE(run("UPDATE CLASS Person SET h.Mixed = "
                  "{9223372036854775807, 9223372036854775806, 0.5}")
                  .ok());
  ASSERT_TRUE(run("UPDATE CLASS Person SET h.Total = sum(h.Mixed)").ok());
  EXPECT_TRUE(total().is_real());

  ASSERT_TRUE(
      run("UPDATE CLASS Person SET h.Over = {9223372036854775807, 1}").ok());
  // Finite, with an infinite sum.
  ASSERT_TRUE(run("UPDATE CLASS Person SET h.Huge = {9e307, 9.9E+307}").ok());
  const Oid before = total();
  for (const auto& [stmt, message] :
       std::vector<std::pair<std::string, std::string>>{
           {"UPDATE CLASS Person SET h.Total = sum(h.Over)", "integer overflow"},
           {"UPDATE CLASS Person SET h.Total = sum(h.Huge)",
            "arithmetic overflow"},
           {"UPDATE CLASS Person SET h.Total = avg(h.Huge)",
            "arithmetic overflow"}}) {
    auto out = run(stmt);
    ASSERT_FALSE(out.ok()) << stmt;
    EXPECT_EQ(out.status().code(), StatusCode::kRuntimeError);
    EXPECT_NE(out.status().message().find(message), std::string::npos)
        << out.status().ToString();
  }
  EXPECT_EQ(total(), before);
}

// Real literals take an exponent; an aggregate name after a `.` is an
// attribute, written, read and aggregated over like any other.
TEST_F(SessionTest, ExponentsAndAggregateNamedAttributes) {
  auto run = [&](const std::string& stmt) { return session_->Execute(stmt); };
  ASSERT_TRUE(run("UPDATE CLASS Person SET kid.Age = 9e307").ok());
  EXPECT_EQ(db_.GetAttribute(A("kid"), A("Age"))->scalar(), Oid::Real(9e307));
  ASSERT_TRUE(run("UPDATE CLASS Person SET kid.Age = 1.5E-3").ok());
  EXPECT_EQ(db_.GetAttribute(A("kid"), A("Age"))->scalar(),
            Oid::Real(1.5e-3));

  ASSERT_TRUE(run("UPDATE CLASS Person SET h.Max = 5").ok());
  ASSERT_TRUE(run("UPDATE CLASS Person SET h.Count = {1, 2, 3}").ok());
  ASSERT_TRUE(run("UPDATE CLASS Person SET h.Sum = sum(h.Count)").ok());
  EXPECT_EQ(db_.GetAttribute(A("h"), A("Max"))->scalar(), Oid::Int(5));
  EXPECT_EQ(db_.GetAttribute(A("h"), A("Sum"))->scalar(), Oid::Int(6));
  auto max = session_->Query("SELECT M WHERE h.Max[M]");
  ASSERT_TRUE(max.ok()) << max.status().ToString();
  ASSERT_EQ(max->size(), 1u);
  EXPECT_EQ(max->rows()[0][0], Oid::Int(5));
  auto counted = session_->Query(
      "SELECT X WHERE count(X.Count) = 3 and X.Max = 5");
  ASSERT_TRUE(counted.ok()) << counted.status().ToString();
  ASSERT_EQ(counted->size(), 1u);
  EXPECT_EQ(counted->rows()[0][0], A("h"));
  // A method variable finds the attribute by its name.
  auto names = session_->Query("SELECT \"Y WHERE h.\"Y[5]");
  ASSERT_TRUE(names.ok()) << names.status().ToString();
  ASSERT_EQ(names->size(), 1u);
  EXPECT_EQ(names->rows()[0][0], A("Max"));
}

TEST_F(SessionTest, RelationToStringShowsColumnsAndRows) {
  auto rel = session_->Query("SELECT C WHERE comp0.Name[C]");
  ASSERT_TRUE(rel.ok());
  std::string text = rel->ToString();
  EXPECT_NE(text.find("'company0'"), std::string::npos);
}

TEST_F(SessionTest, DdlResultsReportTargets) {
  auto view = session_->Execute(
      "CREATE VIEW V AS SUBCLASS OF Object SIGNATURE S => Numeral "
      "SELECT S = W.Salary FROM Employee W OID FUNCTION OF W");
  ASSERT_TRUE(view.ok());
  EXPECT_EQ(view->relation.rows()[0][0], A("V"));
  auto alter = session_->Execute(
      "ALTER CLASS Employee ADD SIGNATURE Bonus => Numeral");
  ASSERT_TRUE(alter.ok());
  EXPECT_EQ(alter->relation.rows()[0][0], A("Employee"));
}

TEST_F(SessionTest, MinMaxAggregates) {
  auto rel = session_->Query(
      "SELECT X FROM Company X WHERE "
      "min(X.Divisions.Employees.Salary) < max(X.Divisions.Employees.Salary)");
  ASSERT_TRUE(rel.ok()) << rel.status().ToString();
  // Both companies have employees with distinct salaries (seeded data).
  EXPECT_FALSE(rel->empty());
  auto avg = session_->Query(
      "SELECT X FROM Company X WHERE "
      "avg(X.Divisions.Employees.Salary) <= "
      "max(X.Divisions.Employees.Salary)");
  ASSERT_TRUE(avg.ok());
  EXPECT_EQ(avg->size(), db_.Extent(A("Company")).size());
}

TEST_F(SessionTest, SumAggregate) {
  auto rel = session_->Query(
      "SELECT X FROM Employee X WHERE "
      "sum(X.Qualifications) > 0");  // sum over strings is an error
  EXPECT_FALSE(rel.ok());
  auto ok = session_->Query(
      "SELECT X FROM Company X WHERE "
      "sum(X.Divisions.Employees.Salary) > 0");
  ASSERT_TRUE(ok.ok()) << ok.status().ToString();
  EXPECT_EQ(ok->size(), db_.Extent(A("Company")).size());
}

TEST_F(SessionTest, NotConditionFiltersGroundly) {
  auto rel = session_->Query(
      "SELECT X FROM Person X WHERE X.Residence and "
      "not X.Residence.City['newyork']");
  ASSERT_TRUE(rel.ok()) << rel.status().ToString();
  for (const auto& row : rel->rows()) {
    const AttrValue* res = db_.GetAttribute(row[0], A("Residence"));
    ASSERT_NE(res, nullptr);
    const AttrValue* city = db_.GetAttribute(res->scalar(), A("City"));
    if (city != nullptr) {
      EXPECT_NE(city->scalar(), Oid::String("newyork"));
    }
  }
}

}  // namespace
}  // namespace xsql
