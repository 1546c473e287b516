#include "eval/path_eval.h"

#include "obs/metrics.h"
#include "obs/trace.h"
#include "store/catalog.h"

namespace xsql {

bool PathEvaluator::SortAdmits(const Variable& var, const Oid& oid) const {
  switch (var.sort) {
    case VarSort::kIndividual:
      return true;
    case VarSort::kClass:
      return db_.graph().IsClass(oid);
    case VarSort::kMethod:
      return db_.IsInstanceOf(oid, builtin::MetaMethod());
    case VarSort::kPath:
      return oid.is_term() && oid.term_fn() == "path";
  }
  return false;
}

std::shared_ptr<const OidSet> PathEvaluator::DomainFor(
    const Variable& var) {
  switch (var.sort) {
    case VarSort::kClass:
      return std::make_shared<OidSet>(
          db_.graph().Extent(builtin::MetaClass()));
    case VarSort::kMethod:
      return std::make_shared<OidSet>(
          db_.graph().Extent(builtin::MetaMethod()));
    default:
      if (opts_.var_domain) return opts_.var_domain(var);
      if (active_domain_ == nullptr) {
        active_domain_ =
            std::make_shared<OidSet>(db_.ActiveDomain().ToOidSet());
      }
      return active_domain_;
  }
}

Result<Oid> PathEvaluator::EvalIdTerm(const IdTerm& term,
                                      const Binding& binding) {
  switch (term.kind) {
    case IdTerm::Kind::kConst:
      return term.value;
    case IdTerm::Kind::kVar:
      if (!binding.Bound(term.var)) {
        return Status::RuntimeError("unbound variable " + term.var.ToString());
      }
      return binding.Get(term.var);
    case IdTerm::Kind::kApply: {
      std::vector<Oid> args;
      args.reserve(term.args.size());
      for (const IdTerm& arg : term.args) {
        XSQL_ASSIGN_OR_RETURN(Oid value, EvalIdTerm(arg, binding));
        args.push_back(std::move(value));
      }
      return invoker_->ResolveIdFunction(term.fn, std::move(args));
    }
    case IdTerm::Kind::kNameRef:
      return Status::RuntimeError("unresolved name '" + term.name +
                                  "' (run ResolveNames)");
  }
  return Status::RuntimeError("bad id-term");
}

Status PathEvaluator::Enumerate(const PathExpr& path, Binding* binding,
                                const TailCallback& cb) {
  static obs::Counter& enumerations =
      obs::MetricsRegistry::Global().GetCounter("xsql.path.enumerations");
  enumerations.Inc();
  obs::Span span("path/enumerate", [&] { return path.ToString(); });
  if (span.active()) {
    // Count the tails this enumeration yields; only pay the wrapper
    // when a tracer is listening.
    TailCallback counted = [&](const Oid& tail) -> Status {
      span.AddRows(1);
      return cb(tail);
    };
    return EnumerateImpl(path, binding, counted);
  }
  return EnumerateImpl(path, binding, cb);
}

Status PathEvaluator::EnumerateImpl(const PathExpr& path, Binding* binding,
                                    const TailCallback& cb) {
  const IdTerm& head = path.head;
  if (head.is_var() && !binding->Bound(head.var)) {
    // Unbound head: iterate candidate oids (Theorem 6.1(2) plugs range
    // pruning in via opts_.var_domain). The domain is a shared snapshot,
    // not a per-probe copy.
    std::shared_ptr<const OidSet> domain = DomainFor(head.var);
    for (const Oid& candidate : *domain) {
      if (!SortAdmits(head.var, candidate)) continue;
      BindScope scope(binding, head.var, candidate);
      XSQL_RETURN_IF_ERROR(StartFrom(path, candidate, binding, cb));
    }
    return Status::OK();
  }
  XSQL_ASSIGN_OR_RETURN(Oid start, EvalIdTerm(head, *binding));
  return StartFrom(path, start, binding, cb);
}

Status PathEvaluator::StartFrom(const PathExpr& path, const Oid& head,
                                Binding* binding, const TailCallback& cb) {
  return Walk(path, 0, head, binding, cb);
}

Status PathEvaluator::Walk(const PathExpr& path, size_t step_index,
                           const Oid& obj, Binding* binding,
                           const TailCallback& cb) {
  XSQL_RETURN_IF_ERROR(ctx_->Step());
  if (step_index == path.steps.size()) return cb(obj);
  const PathStep& step = path.steps[step_index];

  if (step.kind == PathStep::Kind::kPathVar) {
    const Variable& pvar = step.path_var;
    if (binding->Bound(pvar)) {
      // Replay the bound attribute sequence.
      const Oid& bound = binding->Get(pvar);
      if (!bound.is_term() || bound.term_fn() != "path") {
        return Status::OK();
      }
      OidSet frontier;
      frontier.Insert(obj);
      for (const Oid& attr : bound.term_args()) {
        OidSet next;
        for (const Oid& cur : frontier) {
          XSQL_ASSIGN_OR_RETURN(OidSet values, invoker_->Invoke(cur, attr, {}));
          next = OidSet::Union(next, values);
        }
        frontier = std::move(next);
      }
      return Continue(path, step_index, frontier, step.selector, binding, cb);
    }
    std::vector<Oid> seq;
    return WalkPathVar(path, step_index, obj, &seq, 0, binding, cb);
  }

  // Method expression step.
  std::vector<Oid> args;
  args.reserve(step.method.args.size());
  for (const IdTerm& arg : step.method.args) {
    XSQL_ASSIGN_OR_RETURN(Oid value, EvalIdTerm(arg, *binding));
    args.push_back(std::move(value));
  }

  auto invoke_and_continue = [&](const Oid& method) -> Status {
    XSQL_ASSIGN_OR_RETURN(OidSet values, invoker_->Invoke(obj, method, args));
    return Continue(path, step_index, values, step.selector, binding, cb);
  };

  if (step.method.name_is_var) {
    const Variable& mvar = step.method.name_var;
    if (binding->Bound(mvar)) return invoke_and_continue(binding->Get(mvar));
    return invoker_->ForEachMethodOn(
        obj, args.size(), [&](const Oid& method) -> Status {
          BindScope scope(binding, mvar, method);
          return invoke_and_continue(method);
        });
  }
  return invoke_and_continue(step.method.name);
}

Status PathEvaluator::WalkPathVar(const PathExpr& path, size_t step_index,
                                  const Oid& obj, std::vector<Oid>* seq,
                                  size_t depth, Binding* binding,
                                  const TailCallback& cb) {
  // Bind the sequence collected so far and continue with the rest of the
  // path from `obj` (path variables match sequences of length >= 0).
  {
    Oid bound = Oid::Term("path", *seq);
    BindScope scope(binding, path.steps[step_index].path_var, bound);
    OidSet singleton;
    singleton.Insert(obj);
    XSQL_RETURN_IF_ERROR(Continue(path, step_index, singleton,
                                  path.steps[step_index].selector, binding,
                                  cb));
  }
  // The length cap is a language-semantics policy (a path variable
  // matches sequences up to this length), so truncation is silent.
  if (depth >= ctx_->limits().max_path_var_len) return Status::OK();
  return invoker_->ForEachMethodOn(obj, 0, [&](const Oid& attr) -> Status {
    XSQL_ASSIGN_OR_RETURN(OidSet values, invoker_->Invoke(obj, attr, {}));
    for (const Oid& next : values) {
      seq->push_back(attr);
      Status st = WalkPathVar(path, step_index, next, seq, depth + 1, binding, cb);
      seq->pop_back();
      XSQL_RETURN_IF_ERROR(st);
    }
    return Status::OK();
  });
}

Status PathEvaluator::Continue(const PathExpr& path, size_t step_index,
                               const OidSet& values,
                               const std::optional<IdTerm>& selector,
                               Binding* binding, const TailCallback& cb) {
  if (!selector.has_value()) {
    for (const Oid& v : values) {
      XSQL_RETURN_IF_ERROR(Walk(path, step_index + 1, v, binding, cb));
    }
    return Status::OK();
  }
  const IdTerm& sel = *selector;
  if (sel.is_var() && !binding->Bound(sel.var)) {
    for (const Oid& v : values) {
      if (!SortAdmits(sel.var, v)) continue;
      BindScope scope(binding, sel.var, v);
      XSQL_RETURN_IF_ERROR(Walk(path, step_index + 1, v, binding, cb));
    }
    return Status::OK();
  }
  XSQL_ASSIGN_OR_RETURN(Oid target, EvalIdTerm(sel, *binding));
  if (values.Contains(target)) {
    return Walk(path, step_index + 1, target, binding, cb);
  }
  return Status::OK();
}

Result<OidSet> PathEvaluator::Value(const PathExpr& path,
                                    const Binding& binding) {
  static obs::Counter& values =
      obs::MetricsRegistry::Global().GetCounter("xsql.path.values");
  values.Inc();
  // A ground path's value: run Enumerate with an (already complete)
  // binding and collect tails. Unbound variables surface as errors from
  // EvalIdTerm / as enumeration — forbid the latter by checking first.
  OidSet tails;
  Binding scratch = binding;
  Status st = EnumerateImpl(path, &scratch,
                        [&tails](const Oid& tail) -> Status {
                          tails.Insert(tail);
                          return Status::OK();
                        });
  if (!st.ok()) return st;
  return tails;
}

}  // namespace xsql
