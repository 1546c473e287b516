// Comparator edge cases: IEEE-754 NaN and infinities through the
// ordered comparators, and quantified comparisons mixing quantifiers
// over sets containing unordered values. Regression suite for the
// CompareOids NaN bug (NaN used to compare equal to everything the
// three-way compare fell through on).
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <string>
#include <vector>

#include "eval/batch.h"
#include "eval/comparator.h"
#include "eval/evaluator.h"
#include "oid/oid.h"
#include "parser/parser.h"
#include "store/database.h"

namespace xsql {
namespace {

const double kNaN = std::numeric_limits<double>::quiet_NaN();
const double kInf = std::numeric_limits<double>::infinity();

TEST(CompareOidsTest, NaNIsUnorderedAgainstEverything) {
  // The regression: the old three-way compare returned 0 ("equal") for
  // NaN pairs because neither < nor > held.
  EXPECT_EQ(CompareOids(Oid::Real(kNaN), Oid::Real(kNaN)), std::nullopt);
  EXPECT_EQ(CompareOids(Oid::Real(kNaN), Oid::Real(1.0)), std::nullopt);
  EXPECT_EQ(CompareOids(Oid::Real(1.0), Oid::Real(kNaN)), std::nullopt);
  EXPECT_EQ(CompareOids(Oid::Real(kNaN), Oid::Int(7)), std::nullopt);
  EXPECT_EQ(CompareOids(Oid::Int(7), Oid::Real(kNaN)), std::nullopt);
}

TEST(CompareOidsTest, NaNSatisfiesNoOrderedRelation) {
  for (CompOp op :
       {CompOp::kLt, CompOp::kLe, CompOp::kGt, CompOp::kGe}) {
    EXPECT_FALSE(OidsRelate(Oid::Real(kNaN), op, Oid::Real(kNaN)));
    EXPECT_FALSE(OidsRelate(Oid::Real(kNaN), op, Oid::Real(0.0)));
    EXPECT_FALSE(OidsRelate(Oid::Real(0.0), op, Oid::Real(kNaN)));
  }
}

TEST(CompareOidsTest, EqualityIsOidIdentityNotIeee) {
  // `=` in the language is oid identity, not IEEE float equality: the
  // NaN oid IS itself (Oid::Compare is a total order with NaN sorting
  // after every ordered real), but it equals no other real. The old
  // Oid::Compare fell through to 0 for NaN-vs-anything, which made
  // NaN equal to *every* real and merged them on set insertion.
  EXPECT_TRUE(OidsRelate(Oid::Real(kNaN), CompOp::kEq, Oid::Real(kNaN)));
  EXPECT_FALSE(OidsRelate(Oid::Real(kNaN), CompOp::kEq, Oid::Real(0.0)));
  EXPECT_FALSE(OidsRelate(Oid::Real(0.0), CompOp::kEq, Oid::Real(kNaN)));
  EXPECT_TRUE(OidsRelate(Oid::Real(kNaN), CompOp::kNe, Oid::Real(1.0)));
  EXPECT_FALSE(OidsRelate(Oid::Real(kNaN), CompOp::kNe, Oid::Real(kNaN)));
  // A set keeps NaN apart from ordered reals it used to swallow.
  OidSet set;
  set.Insert(Oid::Real(kNaN));
  set.Insert(Oid::Real(0.0));
  EXPECT_EQ(set.size(), 2u);
}

TEST(CompareOidsTest, HashAgreesWithEqualityOnNaNAndSignedZero) {
  // Hash containers keyed by Oid (the hash join's table among them)
  // must find every key that == finds. The quiet NaN, the sign-bit
  // NaN that inf - inf yields, and a payload NaN are all one oid.
  const double inf = kInf;
  const double nans[] = {kNaN, inf - inf, -kNaN, std::nan("7")};
  for (double a : nans) {
    for (double b : nans) {
      ASSERT_TRUE(Oid::Real(a) == Oid::Real(b));
      EXPECT_EQ(Oid::Real(a).Hash(), Oid::Real(b).Hash());
    }
  }
  ASSERT_TRUE(Oid::Real(0.0) == Oid::Real(-0.0));
  EXPECT_EQ(Oid::Real(0.0).Hash(), Oid::Real(-0.0).Hash());
  // Still a real hash: distinct ordinary reals do not collapse.
  EXPECT_NE(Oid::Real(1.5).Hash(), Oid::Real(2.5).Hash());
}

TEST(CompareOidsTest, InfinitiesAreOrdered) {
  EXPECT_EQ(CompareOids(Oid::Real(-kInf), Oid::Real(kInf)), -1);
  EXPECT_EQ(CompareOids(Oid::Real(kInf), Oid::Real(-kInf)), 1);
  EXPECT_EQ(CompareOids(Oid::Real(kInf), Oid::Real(kInf)), 0);
  EXPECT_EQ(CompareOids(Oid::Real(-kInf), Oid::Real(-kInf)), 0);
  EXPECT_EQ(CompareOids(Oid::Real(kInf), Oid::Int(1)), 1);
  EXPECT_EQ(CompareOids(Oid::Int(1), Oid::Real(-kInf)), 1);
  // Infinity is ordered; NaN against infinity is not.
  EXPECT_EQ(CompareOids(Oid::Real(kInf), Oid::Real(kNaN)), std::nullopt);
}

TEST(CompareOidsTest, IntsAndRealsStillMix) {
  EXPECT_EQ(CompareOids(Oid::Int(2), Oid::Real(2.0)), 0);
  EXPECT_EQ(CompareOids(Oid::Int(2), Oid::Real(2.5)), -1);
  EXPECT_EQ(CompareOids(Oid::Real(3.5), Oid::Int(3)), 1);
}

TEST(EvalComparisonTest, SomeQuantifierSkipsNaNElements) {
  // {NaN, 30} some> 20: the NaN pair is unsatisfied, the 30 pair
  // satisfies — the comparison holds through the ordered element.
  OidSet lhs;
  lhs.Insert(Oid::Real(kNaN));
  lhs.Insert(Oid::Real(30.0));
  OidSet rhs;
  rhs.Insert(Oid::Real(20.0));
  EXPECT_TRUE(EvalComparison(lhs, Quant::kSome, CompOp::kGt, Quant::kNone,
                             rhs));
  // {NaN} some> 20 has no satisfying pair at all.
  OidSet only_nan;
  only_nan.Insert(Oid::Real(kNaN));
  EXPECT_FALSE(EvalComparison(only_nan, Quant::kSome, CompOp::kGt,
                              Quant::kNone, rhs));
}

TEST(EvalComparisonTest, AllQuantifierFailsOnNaNElements) {
  // {NaN, 30} all> 20: the NaN pair fails, so the universal fails —
  // under the old "NaN equals everything" bug comparators could let
  // unordered elements slip through quantifiers.
  OidSet lhs;
  lhs.Insert(Oid::Real(kNaN));
  lhs.Insert(Oid::Real(30.0));
  OidSet rhs;
  rhs.Insert(Oid::Real(20.0));
  EXPECT_FALSE(
      EvalComparison(lhs, Quant::kAll, CompOp::kGt, Quant::kNone, rhs));
}

TEST(EvalComparisonTest, MixedQuantifiersWithInfinities) {
  OidSet lhs;  // {-inf, 0}
  lhs.Insert(Oid::Real(-kInf));
  lhs.Insert(Oid::Real(0.0));
  OidSet rhs;  // {1, +inf}
  rhs.Insert(Oid::Real(1.0));
  rhs.Insert(Oid::Real(kInf));
  // some<all: 0 is below every element of the right side.
  EXPECT_TRUE(
      EvalComparison(lhs, Quant::kSome, CompOp::kLt, Quant::kAll, rhs));
  // all<some: every left element is below +inf.
  EXPECT_TRUE(
      EvalComparison(lhs, Quant::kAll, CompOp::kLt, Quant::kSome, rhs));
  // all>all is false: -inf exceeds nothing.
  EXPECT_FALSE(
      EvalComparison(lhs, Quant::kAll, CompOp::kGt, Quant::kAll, rhs));
  // A NaN on the right poisons universals over the right side...
  rhs.Insert(Oid::Real(kNaN));
  EXPECT_FALSE(
      EvalComparison(lhs, Quant::kSome, CompOp::kLt, Quant::kAll, rhs));
  // ...but existentials still find the ordered witnesses.
  EXPECT_TRUE(
      EvalComparison(lhs, Quant::kAll, CompOp::kLt, Quant::kSome, rhs));
}

TEST(EvalComparisonTest, UnquantifiedSidesStillRequireSingletons) {
  OidSet two;
  two.Insert(Oid::Real(1.0));
  two.Insert(Oid::Real(2.0));
  OidSet one;
  one.Insert(Oid::Real(1.0));
  EXPECT_FALSE(
      EvalComparison(two, Quant::kNone, CompOp::kLt, Quant::kNone, one));
  EXPECT_FALSE(EvalComparison(OidSet{}, Quant::kNone, CompOp::kEq,
                              Quant::kNone, one));
  EXPECT_TRUE(
      EvalComparison(one, Quant::kNone, CompOp::kEq, Quant::kNone, one));
}

// ------------------------------------------------- batch filter kernel
//
// FilterBatch is the production batch-mode prefilter (see
// eval/batch.h): the claim it must uphold is bit-for-bit agreement
// with per-tuple TestCondition. These tests drive BOTH through the NaN
// and mixed-operand cases above — a divergence here is a wrong answer
// in batch mode that the ordinary comparator tests would never see.

/// Objects of class Probe with attribute Val spanning NaN, infinities,
/// ordered reals, ints, and a non-numeric atom.
class BatchFilterTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(db_.DeclareClass(Oid::Atom("Probe")).ok());
    ASSERT_TRUE(db_
                    .DeclareAttribute(Oid::Atom("Probe"), Oid::Atom("Val"),
                                      Oid::Atom("Object"),
                                      /*set_valued=*/false)
                    .ok());
    const Oid values[] = {Oid::Real(kNaN),  Oid::Real(-kInf),
                          Oid::Real(kInf),  Oid::Real(0.0),
                          Oid::Real(1.5),   Oid::Int(7),
                          Oid::Int(-3),     Oid::Atom("unordered")};
    for (size_t i = 0; i < std::size(values); ++i) {
      const Oid obj = Oid::Atom("p" + std::to_string(i));
      ASSERT_TRUE(db_.NewObject(obj, {Oid::Atom("Probe")}).ok());
      ASSERT_TRUE(db_.SetScalar(obj, Oid::Atom("Val"), values[i]).ok());
      batch_.push_back(obj);
    }
  }

  /// Parses `SELECT X FROM Probe X WHERE <where>` and checks that
  /// FilterBatch's selection vector equals per-tuple TestCondition.
  void ExpectBatchEqualsTuple(const std::string& where) {
    auto stmt =
        ParseAndResolve("SELECT X FROM Probe X WHERE " + where, db_);
    ASSERT_TRUE(stmt.ok()) << where << ": " << stmt.status().ToString();
    const Condition& cond = *stmt->query->simple->where;
    const Variable var = stmt->query->simple->from[0].var;

    Evaluator ev(&db_);
    Binding binding;
    std::vector<char> sel(batch_.size(), 1);
    ASSERT_TRUE(
        FilterBatch(&ev, cond, var, batch_, &binding, &sel).ok())
        << where;

    for (size_t i = 0; i < batch_.size(); ++i) {
      BindScope scope(&binding, var, batch_[i]);
      ASSERT_TRUE(scope.ok());
      auto expected = ev.TestCondition(cond, &binding);
      ASSERT_TRUE(expected.ok()) << where;
      EXPECT_EQ(static_cast<bool>(sel[i]), *expected)
          << where << " diverges on element " << i << " ("
          << batch_[i].ToString() << ")";
    }
  }

  Database db_;
  std::vector<Oid> batch_;
};

TEST_F(BatchFilterTest, OrderedComparisonsMatchTupleOnNaNAndMixed) {
  // NaN and the atom satisfy NO ordered relation — batch mode must
  // clear their bits exactly where TestCondition says false.
  ExpectBatchEqualsTuple("X.Val > 0");
  ExpectBatchEqualsTuple("X.Val < 0");
  ExpectBatchEqualsTuple("X.Val >= 0");
  ExpectBatchEqualsTuple("X.Val <= 1.5");
}

TEST_F(BatchFilterTest, EqualityIsOidIdentityInBatchModeToo) {
  // `=` is oid identity: the NaN object's Val equals nothing ordered,
  // and != keeps NaN (it differs from every other oid).
  ExpectBatchEqualsTuple("X.Val = 7");
  ExpectBatchEqualsTuple("X.Val != 7");
  ExpectBatchEqualsTuple("X.Val = 0");
}

TEST_F(BatchFilterTest, NegationAndPrefiltersAgree) {
  ExpectBatchEqualsTuple("not X.Val > 0");
  ExpectBatchEqualsTuple("not X.Val = 7");
}

TEST_F(BatchFilterTest, PreClearedBitsStayCleared) {
  auto stmt = ParseAndResolve("SELECT X FROM Probe X WHERE X.Val >= 0",
                              db_);
  ASSERT_TRUE(stmt.ok());
  const Condition& cond = *stmt->query->simple->where;
  const Variable var = stmt->query->simple->from[0].var;

  Evaluator ev(&db_);
  Binding binding;
  std::vector<char> sel(batch_.size(), 1);
  sel[3] = 0;  // an earlier filter already rejected element 3
  ASSERT_TRUE(FilterBatch(&ev, cond, var, batch_, &binding, &sel).ok());
  // A later filter must never resurrect it, whatever the condition says.
  EXPECT_EQ(sel[3], 0);
}

}  // namespace
}  // namespace xsql
