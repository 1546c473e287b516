#ifndef XSQL_EVAL_PATH_EVAL_H_
#define XSQL_EVAL_PATH_EVAL_H_

#include <functional>
#include <memory>
#include <vector>

#include "ast/ast.h"
#include "common/exec_context.h"
#include "common/status.h"
#include "eval/binding.h"
#include "oid/oid.h"
#include "store/database.h"

namespace xsql {

/// How the path evaluator runs methods and id-functions. Implemented by
/// the Evaluator (query-defined methods need query evaluation, view
/// id-terms need materialization), keeping path mechanics independent of
/// the query driver.
class MethodInvoker {
 public:
  virtual ~MethodInvoker() = default;

  /// Invokes `method` on `receiver` with `args` and returns the result
  /// as a set (a scalar result is a singleton, an undefined or
  /// inapplicable invocation is the empty set — at run time both simply
  /// yield no database paths, §2/§3.1).
  virtual Result<OidSet> Invoke(const Oid& receiver, const Oid& method,
                                const std::vector<Oid>& args) = 0;

  /// Calls `fn` on each method-name object a method variable may take in
  /// the scope of `receiver` for the given arity — attributes with
  /// defined values (local or inherited defaults) and resolvable method
  /// definitions — once each, in oid order. Stops at the first error.
  virtual Status ForEachMethodOn(
      const Oid& receiver, size_t arity,
      const std::function<Status(const Oid&)>& fn) = 0;

  /// Resolves an id-function application `fn(args...)` to an oid
  /// (§4.2). For view names this materializes the view first.
  virtual Result<Oid> ResolveIdFunction(const std::string& fn,
                                        const std::vector<Oid>& args) = 0;
};

/// Tuning knobs for path evaluation.
struct PathEvalOptions {
  /// Guardrails (step budget, deadline, cancellation, and the
  /// path-variable length policy). Null falls back to
  /// ExecutionContext::Unlimited().
  ExecutionContext* ctx = nullptr;
  /// Candidate oids for an unbound head variable; when unset the
  /// database's active domain is used. The Theorem 6.1(2) optimization
  /// plugs range-restricted candidates in here. Returns a shared
  /// snapshot: the evaluator probes this once per enumeration, so a
  /// by-value result would copy the whole candidate set each time.
  std::function<std::shared_ptr<const OidSet>(const Variable&)> var_domain;
};

/// Evaluates extended path expressions (§3.1, §5).
///
/// Two modes correspond to the two roles a path expression plays:
///  * `Enumerate` — the path as a *generator*: finds every database path
///    satisfying some ground instance of the expression consistent with
///    the current (partial) binding, extending the binding over the
///    expression's variables and reporting each tail;
///  * `Value` — the path as a *ground term*: with all variables bound,
///    computes the value (the set of tails of satisfying paths, §3.2).
class PathEvaluator {
 public:
  PathEvaluator(const Database& db, MethodInvoker* invoker,
                PathEvalOptions opts)
      : db_(db),
        invoker_(invoker),
        opts_(std::move(opts)),
        ctx_(opts_.ctx != nullptr ? opts_.ctx
                                  : ExecutionContext::Unlimited()) {}

  /// Callback receives the tail object of one satisfying database path;
  /// the binding (as extended for that path) is visible during the call.
  using TailCallback = std::function<Status(const Oid& tail)>;

  Status Enumerate(const PathExpr& path, Binding* binding,
                   const TailCallback& cb);

  Result<OidSet> Value(const PathExpr& path, const Binding& binding);

  /// Evaluates an id-term; every variable must be bound.
  Result<Oid> EvalIdTerm(const IdTerm& term, const Binding& binding);

 private:
  /// The body of Enumerate; the public wrapper adds the trace span and
  /// the enumeration metric around it.
  Status EnumerateImpl(const PathExpr& path, Binding* binding,
                       const TailCallback& cb);

  Status StartFrom(const PathExpr& path, const Oid& head, Binding* binding,
                   const TailCallback& cb);
  Status Walk(const PathExpr& path, size_t step_index, const Oid& obj,
              Binding* binding, const TailCallback& cb);
  Status WalkPathVar(const PathExpr& path, size_t step_index, const Oid& obj,
                     std::vector<Oid>* seq, size_t depth, Binding* binding,
                     const TailCallback& cb);
  Status Continue(const PathExpr& path, size_t step_index, const OidSet& values,
                  const std::optional<IdTerm>& selector, Binding* binding,
                  const TailCallback& cb);

  /// True when binding `var` to `oid` respects the variable's sort
  /// (class variables bind classes, method variables bind
  /// method-objects; individual variables are unrestricted).
  bool SortAdmits(const Variable& var, const Oid& oid) const;

  std::shared_ptr<const OidSet> DomainFor(const Variable& var);

  const Database& db_;
  MethodInvoker* invoker_;
  PathEvalOptions opts_;
  ExecutionContext* ctx_;
  /// The active domain as one set, taken at this evaluator's first
  /// unranged probe and shared by the rest.
  std::shared_ptr<const OidSet> active_domain_;
};

}  // namespace xsql

#endif  // XSQL_EVAL_PATH_EVAL_H_
