#include "parser/parser.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <string>

#include "parser/lexer.h"
#include "workload/fig1_schema.h"

namespace xsql {
namespace {

TEST(LexerTest, BasicTokens) {
  auto tokens = Lex("SELECT X.Residence[Y].City['newyork'] $C \"M ?V 3 2.5");
  ASSERT_TRUE(tokens.ok());
  std::vector<TokenType> types;
  for (const Token& t : *tokens) types.push_back(t.type);
  EXPECT_EQ(types[0], TokenType::kIdent);     // SELECT
  EXPECT_EQ(types[1], TokenType::kIdent);     // X
  EXPECT_EQ(types[2], TokenType::kDot);
  EXPECT_EQ(types[3], TokenType::kIdent);     // Residence
  EXPECT_EQ(types[4], TokenType::kLBracket);
  EXPECT_EQ(types[5], TokenType::kIdent);     // Y
  EXPECT_EQ(types[6], TokenType::kRBracket);
  EXPECT_EQ(types[7], TokenType::kDot);
  EXPECT_EQ(types[8], TokenType::kIdent);     // City
  EXPECT_EQ(types[9], TokenType::kLBracket);
  EXPECT_EQ(types[10], TokenType::kString);
  EXPECT_EQ((*tokens)[10].text, "newyork");
  EXPECT_EQ(types[11], TokenType::kRBracket);
  EXPECT_EQ(types[12], TokenType::kClassVar);
  EXPECT_EQ((*tokens)[12].text, "C");
  EXPECT_EQ(types[13], TokenType::kMethodVar);
  EXPECT_EQ(types[14], TokenType::kExplicitVar);
  EXPECT_EQ(types[15], TokenType::kInt);
  EXPECT_EQ(types[16], TokenType::kReal);
}

TEST(LexerTest, OperatorsAndArrows) {
  auto tokens = Lex("= != < <= > >= => =>> -> ->> + - * / @ : , ( ) { }");
  ASSERT_TRUE(tokens.ok());
  std::vector<TokenType> expected = {
      TokenType::kEq,     TokenType::kNe,        TokenType::kLt,
      TokenType::kLe,     TokenType::kGt,        TokenType::kGe,
      TokenType::kArrow,  TokenType::kDoubleArrow, TokenType::kArrow,
      TokenType::kDoubleArrow, TokenType::kPlus, TokenType::kMinus,
      TokenType::kStar,   TokenType::kSlash,     TokenType::kAt,
      TokenType::kColon,  TokenType::kComma,     TokenType::kLParen,
      TokenType::kRParen, TokenType::kLBrace,    TokenType::kRBrace,
      TokenType::kEnd};
  ASSERT_EQ(tokens->size(), expected.size());
  for (size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ((*tokens)[i].type, expected[i]) << "token " << i;
  }
}

TEST(LexerTest, CommentsAndErrors) {
  auto tokens = Lex("SELECT X -- this is a comment\nFROM Person X");
  ASSERT_TRUE(tokens.ok());
  EXPECT_EQ((*tokens)[2].text, "FROM");
  EXPECT_FALSE(Lex("'unterminated").ok());
  EXPECT_FALSE(Lex("a ! b").ok());
  EXPECT_FALSE(Lex("$ x").ok());
}

TEST(LexerTest, OutOfRangeNumericLiteralsAreParseErrors) {
  // A literal the lexer cannot represent is the client's error, not a
  // process abort: the conversions used to throw std::out_of_range.
  auto max = Lex("9223372036854775807");
  ASSERT_TRUE(max.ok());
  EXPECT_EQ((*max)[0].int_value, INT64_MAX);
  const std::string too_big_int = "99999999999999999999";
  const std::string too_big_real = std::string(400, '9') + ".0";
  const std::string too_small_real = "0." + std::string(400, '0') + "1";
  for (const std::string& literal :
       {std::string("9223372036854775808"), too_big_int, too_big_real,
        too_small_real}) {
    auto tokens = Lex(literal);
    ASSERT_FALSE(tokens.ok()) << literal;
    EXPECT_EQ(tokens.status().code(), StatusCode::kParseError);
  }
  auto stmt = Parse("SELECT X WHERE " + too_big_int + "[X]");
  ASSERT_FALSE(stmt.ok());
  EXPECT_EQ(stmt.status().code(), StatusCode::kParseError);
}

TEST(LexerTest, RealLiteralsTakeAnExponent) {
  for (const auto& [text, value] :
       std::vector<std::pair<std::string, double>>{{"9e307", 9e307},
                                                   {"1.5E-3", 1.5e-3},
                                                   {"2e+3", 2e3},
                                                   {"7E0", 7.0}}) {
    auto tokens = Lex(text);
    ASSERT_TRUE(tokens.ok()) << text;
    ASSERT_EQ(tokens->size(), 2u) << text;  // the literal and kEnd
    EXPECT_EQ((*tokens)[0].type, TokenType::kReal) << text;
    EXPECT_EQ((*tokens)[0].real_value, value) << text;
    EXPECT_EQ((*tokens)[0].text, text);
  }
  // An `e` without a digit after it (and its optional sign) is not an
  // exponent: the integer ends and the `e` starts the next token.
  for (const char* text : {"2e", "2ex", "2e+", "2e-x", "2E+y"}) {
    auto tokens = Lex(text);
    ASSERT_TRUE(tokens.ok()) << text;
    EXPECT_EQ((*tokens)[0].type, TokenType::kInt) << text;
    EXPECT_EQ((*tokens)[0].int_value, 2) << text;
    EXPECT_EQ((*tokens)[1].type, TokenType::kIdent) << text;
  }
  // Out of range stays a ParseError with an exponent too.
  for (const char* text : {"1e400", "1e-400", "2.5E+999"}) {
    auto tokens = Lex(text);
    ASSERT_FALSE(tokens.ok()) << text;
    EXPECT_EQ(tokens.status().code(), StatusCode::kParseError);
  }
  auto trailing = Parse("UPDATE CLASS Person SET kid.Age = 2ex");
  ASSERT_FALSE(trailing.ok());
  EXPECT_EQ(trailing.status().code(), StatusCode::kParseError);
}

class ParserTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(workload::BuildFig1Schema(&db_).ok());
    ASSERT_TRUE(db_.NewObject(Oid::Atom("uniSQL"),
                              {workload::fig1::Company()}).ok());
  }

  Statement MustParse(const std::string& text) {
    auto result = ParseAndResolve(text, db_);
    EXPECT_TRUE(result.ok()) << text << " -> " << result.status().ToString();
    return result.ok() ? std::move(result).value() : Statement{};
  }

  Database db_;
};

TEST_F(ParserTest, SimpleQuery) {
  Statement stmt = MustParse(
      "SELECT Y FROM Person X WHERE X.Residence[Y].City['newyork']");
  ASSERT_EQ(stmt.kind, Statement::Kind::kQuery);
  const Query& q = *stmt.query->simple;
  ASSERT_EQ(q.select.size(), 1u);
  ASSERT_EQ(q.from.size(), 1u);
  EXPECT_EQ(q.from[0].cls.value, Oid::Atom("Person"));
  EXPECT_EQ(q.from[0].var.name, "X");
  ASSERT_NE(q.where, nullptr);
  ASSERT_EQ(q.where->kind, Condition::Kind::kStandalonePath);
  const PathExpr& path = q.where->path;
  ASSERT_TRUE(path.head.is_var());
  EXPECT_EQ(path.head.var.name, "X");
  ASSERT_EQ(path.steps.size(), 2u);
  EXPECT_EQ(path.steps[0].method.name, Oid::Atom("Residence"));
  ASSERT_TRUE(path.steps[0].selector.has_value());
  EXPECT_TRUE(path.steps[0].selector->is_var());
  ASSERT_TRUE(path.steps[1].selector.has_value());
  EXPECT_EQ(path.steps[1].selector->value, Oid::String("newyork"));
}

TEST_F(ParserTest, NameResolutionRules) {
  // uniSQL exists in the database -> constant; W is uppercase-unknown ->
  // variable; mary123 is lowercase-unknown -> constant atom.
  Statement stmt = MustParse(
      "SELECT W WHERE uniSQL.President.FamMembers[W] and "
      "mary123.Residence.City['austin']");
  const Query& q = *stmt.query->simple;
  ASSERT_EQ(q.where->kind, Condition::Kind::kAnd);
  const PathExpr& p0 = q.where->children[0]->path;
  EXPECT_TRUE(p0.head.is_const());
  EXPECT_EQ(p0.head.value, Oid::Atom("uniSQL"));
  const PathExpr& p1 = q.where->children[1]->path;
  EXPECT_TRUE(p1.head.is_const());
  EXPECT_EQ(p1.head.value, Oid::Atom("mary123"));
}

TEST_F(ParserTest, ClassAndMethodVariables) {
  Statement stmt =
      MustParse("SELECT $X WHERE TurboEngine subclassOf $X");
  const Query& q = *stmt.query->simple;
  ASSERT_EQ(q.where->kind, Condition::Kind::kSubclassOf);
  EXPECT_TRUE(q.where->sub.is_const());
  EXPECT_EQ(q.where->sub.value, Oid::Atom("TurboEngine"));
  ASSERT_TRUE(q.where->super.is_var());
  EXPECT_EQ(q.where->super.var.sort, VarSort::kClass);

  Statement stmt2 = MustParse(
      "SELECT \"Y FROM Person X WHERE X.\"Y.City['newyork']");
  const Query& q2 = *stmt2.query->simple;
  const PathExpr& path = q2.where->path;
  ASSERT_TRUE(path.steps[0].method.name_is_var);
  EXPECT_EQ(path.steps[0].method.name_var.sort, VarSort::kMethod);
}

TEST_F(ParserTest, QuantifiedComparators) {
  Statement stmt = MustParse(
      "SELECT X FROM Employee X WHERE X.FamMembers.Age some> 20");
  const Query& q = *stmt.query->simple;
  ASSERT_EQ(q.where->kind, Condition::Kind::kComparison);
  EXPECT_EQ(q.where->lquant, Quant::kSome);
  EXPECT_EQ(q.where->rquant, Quant::kNone);
  EXPECT_EQ(q.where->comp_op, CompOp::kGt);

  Statement stmt2 = MustParse(
      "SELECT X FROM Person X WHERE "
      "X.Residence =all X.FamMembers.Residence");
  EXPECT_EQ(stmt2.query->simple->where->rquant, Quant::kAll);

  Statement stmt3 = MustParse(
      "SELECT X, Y FROM Person X, Person Y WHERE "
      "Y.FamMembers.Age all<all X.FamMembers.Age");
  EXPECT_EQ(stmt3.query->simple->where->lquant, Quant::kAll);
  EXPECT_EQ(stmt3.query->simple->where->rquant, Quant::kAll);
}

TEST_F(ParserTest, SetComparatorsAndBooleans) {
  Statement stmt = MustParse(
      "SELECT X FROM Automobile Y WHERE Y.Manufacturer[X] "
      "and X.President.OwnedVehicles.Color containsEq {'blue', 'red'} "
      "and X.President.Age < 30");
  const Query& q = *stmt.query->simple;
  ASSERT_EQ(q.where->kind, Condition::Kind::kAnd);
  ASSERT_EQ(q.where->children.size(), 3u);
  EXPECT_EQ(q.where->children[1]->kind, Condition::Kind::kSetComparison);
  EXPECT_EQ(q.where->children[1]->set_op, SetOp::kContainsEq);
  EXPECT_EQ(q.where->children[1]->rhs.kind, ValueExpr::Kind::kSetLiteral);
}

TEST_F(ParserTest, AggregatesAndArithmetic) {
  Statement stmt = MustParse(
      "SELECT X FROM Employee X WHERE count(X.FamMembers) > 4 "
      "and X.Salary < 35000");
  const Query& q = *stmt.query->simple;
  const Condition& agg = *q.where->children[0];
  EXPECT_EQ(agg.lhs.kind, ValueExpr::Kind::kAggregate);
  EXPECT_EQ(agg.lhs.agg_fn, AggFn::kCount);

  Statement stmt2 = MustParse("SELECT X FROM Employee X WHERE "
                              "X.Salary > (1 + 2) * 1000");
  const Condition& cmp = *stmt2.query->simple->where;
  EXPECT_EQ(cmp.rhs.kind, ValueExpr::Kind::kArith);
  EXPECT_EQ(cmp.rhs.arith_op, ArithOp::kMul);
}

// The aggregate names are keywords only where an aggregate can start;
// after a `.`, in a method head and in a signature they name methods.
TEST_F(ParserTest, AggregateNamesAreMethodNamesAfterADot) {
  Statement update = MustParse("UPDATE CLASS Person SET h.Max = 5");
  ASSERT_EQ(update.kind, Statement::Kind::kUpdateClass);
  const PathExpr& target = update.update_class->assignments[0].target;
  ASSERT_EQ(target.steps.size(), 1u);
  EXPECT_EQ(target.steps[0].method.name, Oid::Atom("Max"));

  Statement query = MustParse(
      "SELECT X FROM Person X WHERE max(X.Count) > X.Sum.(avg @ 2) "
      "and X.min[Y] and X.COUNT[Z]");
  const Condition& where = *query.query->simple->where;
  ASSERT_EQ(where.kind, Condition::Kind::kAnd);
  const Condition& cmp = *where.children[0];
  EXPECT_EQ(cmp.lhs.kind, ValueExpr::Kind::kAggregate);
  EXPECT_EQ(cmp.lhs.agg_fn, AggFn::kMax);
  EXPECT_EQ(cmp.lhs.path.steps[0].method.name, Oid::Atom("Count"));
  ASSERT_EQ(cmp.rhs.kind, ValueExpr::Kind::kPath);
  EXPECT_EQ(cmp.rhs.path.steps[0].method.name, Oid::Atom("Sum"));
  EXPECT_EQ(cmp.rhs.path.steps[1].method.name, Oid::Atom("avg"));
  EXPECT_EQ(where.children[1]->path.steps[0].method.name, Oid::Atom("min"));

  Statement alter = MustParse(
      "ALTER CLASS Person ADD SIGNATURE Sum => Numeral "
      "SELECT (Sum) = 1 FROM Person X OID X");
  ASSERT_EQ(alter.kind, Statement::Kind::kAlterClass);
  EXPECT_EQ(alter.alter_class->add_signatures[0].method, Oid::Atom("Sum"));
  EXPECT_EQ(alter.alter_class->method_def->select[0].method, Oid::Atom("Sum"));

  // Where a value starts, the names stay reserved.
  for (const std::string& text :
       {std::string("SELECT X FROM Person X WHERE max[X]"),
        std::string("SELECT count FROM Person X"),
        std::string("SELECT X FROM Person X WHERE X.Age = sum")}) {
    auto result = ParseAndResolve(text, db_);
    ASSERT_FALSE(result.ok()) << text;
    EXPECT_EQ(result.status().code(), StatusCode::kParseError) << text;
  }
}

TEST_F(ParserTest, OidFunctionClause) {
  Statement stmt = MustParse(
      "SELECT EmpSalary = W.Salary FROM Company X OID FUNCTION OF X,W "
      "WHERE X.Divisions.Employees[W]");
  const Query& q = *stmt.query->simple;
  ASSERT_TRUE(q.oid_function_of.has_value());
  ASSERT_EQ(q.oid_function_of->size(), 2u);
  EXPECT_EQ((*q.oid_function_of)[0].name, "X");
  ASSERT_EQ(q.select.size(), 1u);
  EXPECT_EQ(*q.select[0].out_attr, Oid::Atom("EmpSalary"));
}

TEST_F(ParserTest, GroupedSetAttribute) {
  Statement stmt = MustParse(
      "SELECT CompName = Y.Name, Beneficiaries = {W} FROM Company Y "
      "OID FUNCTION OF Y "
      "WHERE Y.Retirees[W] or Y.Divisions.Employees.Dependents[W]");
  const Query& q = *stmt.query->simple;
  ASSERT_EQ(q.select.size(), 2u);
  EXPECT_EQ(q.select[1].kind, SelectItem::Kind::kSetOfVar);
  EXPECT_EQ(q.select[1].set_var.name, "W");
  EXPECT_EQ(q.where->kind, Condition::Kind::kOr);
}

TEST_F(ParserTest, CreateView) {
  Statement stmt = MustParse(
      "CREATE VIEW CompSalaries AS SUBCLASS OF Object "
      "SIGNATURE CompName => String, DivName => String, Salary => Numeral "
      "SELECT CompName = X.Name, DivName = Y.Name, Salary = W.Salary "
      "FROM Company X OID FUNCTION OF X,W "
      "WHERE X.Divisions[Y].Employees[W]");
  ASSERT_EQ(stmt.kind, Statement::Kind::kCreateView);
  const CreateViewStmt& view = *stmt.create_view;
  EXPECT_EQ(view.name, Oid::Atom("CompSalaries"));
  EXPECT_EQ(view.superclass, Oid::Atom("Object"));
  ASSERT_EQ(view.signatures.size(), 3u);
  EXPECT_EQ(view.signatures[2].results[0], Oid::Atom("Numeral"));
  EXPECT_EQ(view.query.oid_fn_name, "CompSalaries");
}

TEST_F(ParserTest, ViewIdTermInQuery) {
  Statement stmt = MustParse(
      "SELECT X.Manufacturer.Name FROM Automobile X, Employee W "
      "WHERE CompSalaries(X.Manufacturer, W).Salary > 35000");
  const Query& q = *stmt.query->simple;
  // The path argument X.Manufacturer is desugared into a fresh variable
  // plus a conjunct, so WHERE became a conjunction.
  ASSERT_EQ(q.where->kind, Condition::Kind::kAnd);
  bool found_apply = false;
  for (const auto& child : q.where->children) {
    if (child->kind == Condition::Kind::kComparison &&
        child->lhs.kind == ValueExpr::Kind::kPath &&
        child->lhs.path.head.is_apply()) {
      found_apply = true;
      EXPECT_EQ(child->lhs.path.head.fn, "CompSalaries");
      EXPECT_EQ(child->lhs.path.head.args.size(), 2u);
    }
  }
  EXPECT_TRUE(found_apply);
}

TEST_F(ParserTest, AlterClassMethodDefinition) {
  Statement stmt = MustParse(
      "ALTER CLASS Company "
      "ADD SIGNATURE MngrSalary : String => Numeral "
      "SELECT (MngrSalary @ Y.Name) = W "
      "FROM Company X OID X "
      "WHERE X.Divisions[Y].Manager.Salary[W]");
  ASSERT_EQ(stmt.kind, Statement::Kind::kAlterClass);
  const AlterClassStmt& alter = *stmt.alter_class;
  EXPECT_EQ(alter.cls, Oid::Atom("Company"));
  ASSERT_EQ(alter.add_signatures.size(), 1u);
  EXPECT_EQ(alter.add_signatures[0].args.size(), 1u);
  ASSERT_TRUE(alter.method_def.has_value());
  const Query& def = *alter.method_def;
  ASSERT_EQ(def.select.size(), 1u);
  EXPECT_EQ(def.select[0].kind, SelectItem::Kind::kMethodHead);
  EXPECT_EQ(def.select[0].method, Oid::Atom("MngrSalary"));
  // (MngrSalary @ Y.Name) desugars: the argument becomes a variable.
  ASSERT_EQ(def.select[0].method_args.size(), 1u);
  EXPECT_TRUE(def.select[0].method_args[0].is_var());
  ASSERT_TRUE(def.oid_function_of.has_value());
  EXPECT_EQ((*def.oid_function_of)[0].name, "X");
}

TEST_F(ParserTest, UpdateClassNestedInWhere) {
  Statement stmt = MustParse(
      "ALTER CLASS Company "
      "ADD SIGNATURE RaiseMngrSalary : Numeral => Nil "
      "SELECT (RaiseMngrSalary @ W) = nil "
      "FROM Company X, Numeral W "
      "OID X "
      "WHERE W < 20 "
      "and (UPDATE CLASS Company "
      "     SET X.Divisions[Y].Manager.Salary = "
      "         (1 + W/100) * X.(MngrSalary @ Y.Name))");
  ASSERT_EQ(stmt.kind, Statement::Kind::kAlterClass);
  const Query& def = *stmt.alter_class->method_def;
  ASSERT_EQ(def.where->kind, Condition::Kind::kAnd);
  // The desugared `Y.Name[Z]` conjunct may wrap the original AND, so
  // search recursively.
  std::function<const Condition*(const Condition&)> find_update =
      [&](const Condition& cond) -> const Condition* {
    if (cond.kind == Condition::Kind::kUpdate) return &cond;
    for (const auto& child : cond.children) {
      if (const Condition* hit = find_update(*child)) return hit;
    }
    return nullptr;
  };
  const Condition* update = find_update(*def.where);
  ASSERT_NE(update, nullptr);
  ASSERT_EQ(update->update->assignments.size(), 1u);
  EXPECT_EQ(update->update->assignments[0].value.kind,
            ValueExpr::Kind::kArith);
}

TEST_F(ParserTest, SetOperators) {
  Statement stmt = MustParse(
      "SELECT X FROM Person X UNION SELECT Y FROM Employee Y");
  ASSERT_EQ(stmt.query->kind, QueryExpr::Kind::kUnion);
  Statement stmt2 = MustParse(
      "SELECT X FROM Person X MINUS SELECT Y FROM Employee Y");
  ASSERT_EQ(stmt2.query->kind, QueryExpr::Kind::kMinus);
}

TEST_F(ParserTest, Subquery) {
  Statement stmt = MustParse(
      "SELECT X FROM Vehicle X WHERE 200000 <all "
      "(SELECT W FROM Division Y WHERE "
      " X.Manufacturer.(MngrSalary @ Y.Name)[W])");
  const Query& q = *stmt.query->simple;
  ASSERT_EQ(q.where->kind, Condition::Kind::kComparison);
  EXPECT_EQ(q.where->rquant, Quant::kAll);
  EXPECT_EQ(q.where->rhs.kind, ValueExpr::Kind::kSubquery);
}

TEST_F(ParserTest, PathVariableExtension) {
  Statement stmt = MustParse(
      "SELECT X FROM Person X WHERE X.*P.City['newyork']");
  const PathExpr& path = stmt.query->simple->where->path;
  ASSERT_EQ(path.steps.size(), 2u);
  EXPECT_EQ(path.steps[0].kind, PathStep::Kind::kPathVar);
  EXPECT_EQ(path.steps[0].path_var.sort, VarSort::kPath);
}

TEST_F(ParserTest, PrinterRoundTrips) {
  const char* queries[] = {
      "SELECT Y FROM Person X WHERE X.Residence[Y].City['newyork']",
      "SELECT X FROM Employee X WHERE X.FamMembers.Age some> 20",
      "SELECT $X WHERE TurboEngine subclassOf $X",
  };
  for (const char* text : queries) {
    Statement stmt = MustParse(text);
    std::string printed = stmt.ToString();
    auto reparsed = ParseAndResolve(printed, db_);
    ASSERT_TRUE(reparsed.ok()) << printed;
    EXPECT_EQ(reparsed->ToString(), printed);
  }
}

TEST_F(ParserTest, Errors) {
  EXPECT_FALSE(Parse("SELECT").ok());
  EXPECT_FALSE(Parse("SELECT X FROM").ok());
  EXPECT_FALSE(Parse("FOO BAR").ok());
  EXPECT_FALSE(Parse("SELECT X WHERE X.").ok());
  EXPECT_FALSE(Parse("SELECT X WHERE X some").ok());
  EXPECT_FALSE(Parse("CREATE VIEW V AS Object SELECT X").ok());
  EXPECT_FALSE(Parse("SELECT X FROM Person X trailing").ok());
}

}  // namespace
}  // namespace xsql
