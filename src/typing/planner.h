#ifndef XSQL_TYPING_PLANNER_H_
#define XSQL_TYPING_PLANNER_H_

#include <cstddef>
#include <string>
#include <vector>

#include "ast/ast.h"
#include "store/database.h"
#include "store/index.h"
#include "typing/range.h"

namespace xsql {

/// The product of cost-based planning for one simple query: how to
/// order the FROM extents, how to rank the top-level WHERE conjuncts,
/// and which conjuncts can run as hash joins. Slots index into
/// `FlattenAnd(*query.where)` and `query.from` respectively; the
/// evaluator validates both sizes against the query it is running and
/// falls back to the greedy ready-first order on any mismatch, so a
/// plan can never be *applied* to the wrong query.
struct QueryPlan {
  /// FROM-entry indices, smallest estimated candidate set first.
  std::vector<size_t> from_order;
  /// Estimated candidate cardinality per FROM entry, declaration order.
  /// SIZE_MAX marks "unknown" (class-variable FROM entries).
  std::vector<size_t> from_card;
  /// Cost rank per top-level conjunct: among simultaneously-ready
  /// conjuncts the lowest rank runs first.
  std::vector<int> conjunct_rank;
  /// Conjuncts evaluable as variable-variable equality hash joins
  /// (both head variables FROM-declared over constant classes).
  std::vector<bool> hash_joinable;
  /// False when §5 semantics pin declaration order: a nested UPDATE
  /// anywhere in the condition relies on left-to-right evaluation, so
  /// the evaluator must ignore the plan entirely.
  bool allow_reorder = true;
  /// True when no evaluation step of this query can mutate the
  /// database: no UPDATE conditions, no id-function applications (view
  /// materialization), no method-variable or path-variable steps, no
  /// invocations of registry-defined methods (query bodies may contain
  /// UPDATE clauses, native bodies take a mutable database), and no
  /// OID-function subqueries. Pure queries may cache materialized
  /// candidate arrays across re-entries and filter them batch-at-a-time;
  /// impure ones rebuild the arrays on every re-entry, because a
  /// conjunct could mutate the extents mid-statement.
  bool batch_eligible = false;
  /// Human-readable decisions for EXPLAIN / EXPLAIN ANALYZE.
  std::vector<std::string> decisions;
};

/// Selectivity-driven planner: turns the Theorem 6.1(2) range witness
/// and the [BERT89] path-index statistics into (a) an enumeration order
/// over the FROM extents, (b) a cost rank over WHERE conjuncts, and
/// (c) hash-join markings for variable-variable equality conjuncts.
/// Planning is advisory — every decision only reorders or re-implements
/// work the evaluator would do anyway, never changes the §3.4 answer.
class Planner {
 public:
  explicit Planner(const Database& db, const PathIndexSet* indexes = nullptr)
      : db_(db), indexes_(indexes) {}

  /// Plans a simple query. `ranges` (from a strict-typing witness)
  /// refines raw extent sizes to Theorem 6.1(2) candidate-set sizes;
  /// null plans from extents alone.
  QueryPlan Plan(const Query& query, const RangeMap* ranges = nullptr) const;

  /// True when `cond` has the shape a hash join can serve: an equality
  /// `P1 =... P2` under any quantifiers, both sides plain path
  /// expressions whose only variable is the (distinct) head variable.
  /// An empty kAll side satisfies the comparison vacuously, so the
  /// join partners such a side with every candidate on the other.
  static bool HashJoinableShape(const Condition& cond);

 private:
  const Database& db_;
  const PathIndexSet* indexes_;
};

}  // namespace xsql

#endif  // XSQL_TYPING_PLANNER_H_
