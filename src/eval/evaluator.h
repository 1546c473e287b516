#ifndef XSQL_EVAL_EVALUATOR_H_
#define XSQL_EVAL_EVALUATOR_H_

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "ast/ast.h"
#include "common/exec_context.h"
#include "common/status.h"
#include "eval/binding.h"
#include "eval/path_eval.h"
#include "eval/relation.h"
#include "oid/oid.h"
#include "store/database.h"
#include "store/index.h"
#include "store/method.h"
#include "typing/planner.h"
#include "typing/range.h"

namespace xsql {

/// A method implemented by a native C++ function.
class NativeMethodBody : public MethodBody {
 public:
  using Fn = std::function<Result<OidSet>(Database&, const Oid& receiver,
                                          const std::vector<Oid>& args)>;

  NativeMethodBody(int arity, bool set_valued, Fn fn)
      : arity_(arity), set_valued_(set_valued), fn_(std::move(fn)) {}

  int arity() const override { return arity_; }
  bool set_valued() const override { return set_valued_; }
  std::string kind() const override { return "native"; }
  const Fn& fn() const { return fn_; }

 private:
  int arity_;
  bool set_valued_;
  Fn fn_;
};

/// A method defined by an XSQL query (§5, the ALTER CLASS ... SELECT
/// (M @ args) = expr ... OID X ... form). Invocation binds the receiver
/// variable and the parameters, evaluates the WHERE clause (left to
/// right — nested UPDATEs rely on that order, §5) and collects the
/// values of the result expression.
class QueryMethodBody : public MethodBody {
 public:
  QueryMethodBody(Oid method, std::vector<Variable> params,
                  Variable receiver_var, ValueExpr result_expr,
                  std::vector<FromEntry> from,
                  std::shared_ptr<Condition> where, bool set_valued)
      : method_(std::move(method)),
        params_(std::move(params)),
        receiver_var_(std::move(receiver_var)),
        result_expr_(std::move(result_expr)),
        from_(std::move(from)),
        where_(std::move(where)),
        set_valued_(set_valued) {}

  int arity() const override { return static_cast<int>(params_.size()); }
  bool set_valued() const override { return set_valued_; }
  std::string kind() const override { return "query"; }

  const Oid& method() const { return method_; }
  const std::vector<Variable>& params() const { return params_; }
  const Variable& receiver_var() const { return receiver_var_; }
  const ValueExpr& result_expr() const { return result_expr_; }
  const std::vector<FromEntry>& from() const { return from_; }
  const std::shared_ptr<Condition>& where() const { return where_; }

 private:
  Oid method_;
  std::vector<Variable> params_;
  Variable receiver_var_;
  ValueExpr result_expr_;
  std::vector<FromEntry> from_;
  std::shared_ptr<Condition> where_;
  bool set_valued_;
};

/// Hook the evaluator uses to resolve view id-functions (§4.2); the
/// Session's ViewManager implements it.
class ViewResolver {
 public:
  virtual ~ViewResolver() = default;
  virtual bool IsView(const std::string& fn) const = 0;
  virtual Status EnsureMaterialized(const std::string& fn) = 0;
};

/// Evaluation controls.
struct EvalOptions {
  /// Theorem 6.1(2): restrict v-selector instantiation to A(X).
  bool use_range_pruning = true;
  /// Ranges from a strict-typing witness (null: no pruning possible).
  const RangeMap* ranges = nullptr;
  /// Explicit order of the top-level WHERE conjuncts (a permutation of
  /// their indices); used by the Theorem 6.1(1) plan-independence tests.
  std::vector<size_t> conjunct_order;
  /// Class whose instances created objects become (OID FUNCTION
  /// queries); defaults to the builtin Object class, views pass their
  /// view class.
  std::optional<Oid> result_class;
  /// Optional [BERT89]-style path indexes. A conjunct of the shape
  /// `X.a1...an[value]` whose head variable is FROM-declared with a
  /// matching fresh index is answered by reverse lookup instead of a
  /// forward sweep. Stale indexes are ignored (never incorrect).
  const PathIndexSet* indexes = nullptr;
  /// Cost-based plan for this query (see Planner): selectivity order
  /// over the FROM extents, ranks over the WHERE conjuncts, hash-join
  /// markings. Advisory — the conjunct driver validates it against the
  /// query's shape and ignores it on any mismatch (or when
  /// `allow_reorder` is off, or when `conjunct_order` fixes an explicit
  /// order). A pure plan (QueryPlan::batch_eligible) also lets the FROM
  /// generator cache candidate arrays across re-entries and run cheap
  /// ground conjuncts per-batch over a selection vector. Must outlive
  /// the evaluation.
  const QueryPlan* plan = nullptr;
};

/// The result of running one query.
struct EvalOutput {
  Relation relation;
  /// When the query had an OID FUNCTION OF clause: the created objects'
  /// oids, now materialized in the database.
  std::vector<Oid> created;
  bool objects_created = false;
};

/// Renders an execution result as the human-readable text the server
/// ships in kResult frames (also what the client REPLs print). Lives
/// here rather than in the server so recovery can re-render replies
/// while rebuilding the request-dedup table from the WAL.
std::string RenderEvalOutput(const EvalOutput& out);

/// Query evaluation engine (§3.4, §5 semantics).
///
/// `Run` is the production evaluator: nested loops driven by the FROM
/// clause and by path-expression enumeration, with the Theorem 6.1(2)
/// range pruning when a strict-typing witness is supplied. `RunNaive`
/// is the literal §3.4 semantics — enumerate *all* substitutions over
/// the active domain and test — kept as the reference implementation
/// for differential testing.
class Evaluator : public MethodInvoker {
 public:
  explicit Evaluator(Database* db, ViewResolver* views = nullptr,
                     ExecutionContext* ctx = nullptr)
      : db_(db),
        views_(views),
        ctx_(ctx != nullptr ? ctx : ExecutionContext::Unlimited()) {}

  /// Rebinds the guardrail context (null restores Unlimited()). The
  /// Session points a long-lived evaluator at each statement's context.
  void set_exec_context(ExecutionContext* ctx) {
    ctx_ = ctx != nullptr ? ctx : ExecutionContext::Unlimited();
  }
  ExecutionContext* exec_context() { return ctx_; }

  /// Evaluates a query; `outer` supplies bindings of correlated
  /// variables (subqueries, method bodies).
  Result<EvalOutput> Run(const Query& query, const EvalOptions& opts = {},
                         const Binding* outer = nullptr);

  /// Evaluates a query expression (UNION/MINUS/INTERSECT tree).
  Result<Relation> RunQueryExpr(const QueryExpr& expr,
                                const EvalOptions& opts = {},
                                const Binding* outer = nullptr);

  /// Reference evaluator: full substitution enumeration (§3.4).
  Result<EvalOutput> RunNaive(const Query& query);

  /// Executes an UPDATE CLASS statement under `binding` (§5); free
  /// variables in the target paths are enumerated.
  Status ExecuteUpdate(const UpdateClassStmt& update, Binding* binding);

  /// Ground truth test of a condition (all variables bound).
  Result<bool> TestCondition(const Condition& cond, Binding* binding);

  /// Value of a value expression under a binding.
  Result<OidSet> EvalValue(const ValueExpr& expr, Binding* binding,
                           const EvalOptions& opts = {});

  // --- MethodInvoker ---
  Result<OidSet> Invoke(const Oid& receiver, const Oid& method,
                        const std::vector<Oid>& args) override;
  Status ForEachMethodOn(const Oid& receiver, size_t arity,
                         const std::function<Status(const Oid&)>& fn) override;
  Result<Oid> ResolveIdFunction(const std::string& fn,
                                const std::vector<Oid>& args) override;

  Database* db() { return db_; }

 private:
  friend class ConjunctDriver;

  /// The body of Run; the public wrapper adds the trace span and the
  /// eval metrics around it.
  Result<EvalOutput> RunImpl(const Query& query, const EvalOptions& opts,
                             const Binding* outer);

  PathEvaluator MakePathEvaluator(const EvalOptions& opts);

  /// Runs the FROM entries and the WHERE conjuncts through one
  /// conjunct driver, calling `cb` once per solution (binding extended
  /// in place). `opts.conjunct_order` fixes an explicit order.
  Status ForEachSolution(const std::vector<FromEntry>& from,
                         const std::shared_ptr<Condition>& where,
                         Binding* binding, const EvalOptions& opts,
                         PathEvaluator* pe, const std::function<Status()>& cb);

  /// Runs a query-defined method body.
  Result<OidSet> InvokeQueryMethod(const QueryMethodBody& body,
                                   const Oid& receiver,
                                   const std::vector<Oid>& args);

  /// Direct classes of an oid for method resolution, including the
  /// builtin class of literals.
  std::vector<Oid> ClassesForInvoke(const Oid& oid) const;

  Database* db_;
  ViewResolver* views_;
  ExecutionContext* ctx_;
  int next_query_id_ = 0;
};

}  // namespace xsql

#endif  // XSQL_EVAL_EVALUATOR_H_
