#include "flogic/flogic_eval.h"

#include <functional>

#include "eval/binding.h"
#include "eval/comparator.h"
#include "eval/evaluator.h"
#include "store/catalog.h"

namespace xsql {
namespace flogic {

namespace {

class ModelChecker {
 public:
  ModelChecker(Database* db, ExecutionContext* ctx)
      : db_(db),
        ctx_(ctx != nullptr ? ctx : ExecutionContext::Unlimited()),
        evaluator_(db, nullptr, ctx_) {}

  Result<Relation> Run(const FLogicQuery& query) {
    std::vector<std::string> columns;
    for (const Variable& v : query.answer_vars) columns.push_back(v.name);
    Relation rel(columns);
    Binding binding;
    std::function<Status(size_t)> loop = [&](size_t idx) -> Status {
      if (idx == query.answer_vars.size()) {
        bool truth = true;
        if (query.body != nullptr) {
          XSQL_ASSIGN_OR_RETURN(truth, Eval(*query.body, &binding));
        }
        if (truth) {
          XSQL_RETURN_IF_ERROR(ctx_->ChargeRow());
          std::vector<Oid> row;
          for (const Variable& v : query.answer_vars) {
            row.push_back(binding.Get(v));
          }
          XSQL_RETURN_IF_ERROR(rel.AddRow(std::move(row)));
        }
        return Status::OK();
      }
      const Variable& var = query.answer_vars[idx];
      // Answer variables enjoy the same sound restriction: outside the
      // body's support the tuple cannot be an answer.
      std::optional<OidSet> support;
      if (query.body != nullptr) {
        support = ExistsSupport(*query.body, var, &binding, 0);
      }
      const OidSet& domain = support.has_value() ? *support : DomainFor(var);
      for (const Oid& candidate : domain) {
        XSQL_RETURN_IF_ERROR(ctx_->Step());
        BindScope scope(&binding, var, candidate);
        XSQL_RETURN_IF_ERROR(loop(idx + 1));
      }
      return Status::OK();
    };
    XSQL_RETURN_IF_ERROR(loop(0));
    return rel;
  }

 private:
  const OidSet& DomainFor(const Variable& var) {
    // Domains are fixed for the whole check; cache per sort — quantifier
    // nodes are evaluated inside nested loops.
    switch (var.sort) {
      case VarSort::kClass:
        if (!class_domain_.has_value()) {
          class_domain_ = db_->graph().Extent(builtin::MetaClass());
        }
        return *class_domain_;
      case VarSort::kMethod:
        if (!method_domain_.has_value()) {
          method_domain_ = db_->graph().Extent(builtin::MetaMethod());
        }
        return *method_domain_;
      default:
        if (!individual_domain_.has_value()) {
          individual_domain_ = db_->ActiveDomain().ToOidSet();
        }
        return *individual_domain_;
    }
  }

  /// True when the term evaluates under the current binding (no unbound
  /// variables), yielding its value.
  std::optional<Oid> TryEvalTerm(const IdTerm& term, const Binding& binding) {
    auto result = EvalTerm(term, binding);
    if (!result.ok()) return std::nullopt;
    return std::move(result).value();
  }

  /// A set R such that `formula` is false whenever `var` is bound
  /// outside R (all other free variables fixed by `binding`), or nullopt
  /// when no such set is syntactically derivable. Guards come from data
  /// molecules `o[m@.. ->> var]` and equalities `var = t` whose other
  /// parts are already bound; conjunction propagates any child's guard,
  /// disjunction needs (and unions) guards from every child, and an
  /// inner existential is handled by enumerating *its* (recursively
  /// restricted) support.
  std::optional<OidSet> ExistsSupport(const Formula& formula,
                                      const Variable& var, Binding* binding,
                                      int depth) {
    // Beyond the recursion-depth policy the derivation gives up and the
    // caller falls back to a full domain scan — sound, just slower.
    if (depth > static_cast<int>(ctx_->limits().max_recursion_depth)) {
      return std::nullopt;
    }
    switch (formula.kind) {
      case Formula::Kind::kAtom: {
        const Atom& atom = formula.atom;
        if (atom.kind == Atom::Kind::kData && atom.value.is_var() &&
            atom.value.var == var) {
          std::optional<Oid> obj = TryEvalTerm(atom.obj, *binding);
          std::optional<Oid> method = TryEvalTerm(atom.method, *binding);
          if (!obj || !method) return std::nullopt;
          std::vector<Oid> args;
          for (const IdTerm& a : atom.args) {
            std::optional<Oid> value = TryEvalTerm(a, *binding);
            if (!value) return std::nullopt;
            args.push_back(std::move(*value));
          }
          auto result = evaluator_.Invoke(*obj, *method, args);
          if (!result.ok()) return std::nullopt;
          return std::move(result).value();
        }
        if (atom.kind == Atom::Kind::kIsa && atom.obj.is_var() &&
            atom.obj.var == var) {
          std::optional<Oid> cls = TryEvalTerm(atom.value, *binding);
          if (cls) return db_->Extent(*cls);
        }
        if (atom.kind == Atom::Kind::kEquals ||
            (atom.kind == Atom::Kind::kComparison &&
             atom.op == CompOp::kEq)) {
          for (const auto& [side, other] :
               {std::pair(&atom.obj, &atom.value),
                std::pair(&atom.value, &atom.obj)}) {
            if (side->is_var() && side->var == var) {
              std::optional<Oid> value = TryEvalTerm(*other, *binding);
              if (value) {
                OidSet s;
                s.Insert(*value);
                return s;
              }
            }
          }
        }
        return std::nullopt;
      }
      case Formula::Kind::kAnd:
        for (const auto& child : formula.children) {
          std::optional<OidSet> support =
              ExistsSupport(*child, var, binding, depth + 1);
          if (support.has_value()) return support;
        }
        return std::nullopt;
      case Formula::Kind::kOr: {
        OidSet out;
        for (const auto& child : formula.children) {
          std::optional<OidSet> support =
              ExistsSupport(*child, var, binding, depth + 1);
          if (!support.has_value()) return std::nullopt;
          out = OidSet::Union(out, *support);
        }
        return out;
      }
      case Formula::Kind::kExists: {
        if (formula.var == var) return std::nullopt;  // shadowed
        // A guard that does not mention the inner variable restricts
        // var directly (guards mentioning it fail TryEvalTerm while the
        // inner variable is unbound, so this is sound).
        std::optional<OidSet> direct =
            ExistsSupport(*formula.children[0], var, binding, depth + 1);
        if (direct.has_value()) return direct;
        std::optional<OidSet> inner =
            ExistsSupport(*formula.children[0], formula.var, binding,
                          depth + 1);
        if (!inner.has_value()) return std::nullopt;
        OidSet out;
        for (const Oid& v : *inner) {
          BindScope scope(binding, formula.var, v);
          std::optional<OidSet> support =
              ExistsSupport(*formula.children[0], var, binding, depth + 1);
          if (!support.has_value()) return std::nullopt;
          out = OidSet::Union(out, *support);
        }
        return out;
      }
      default:
        return std::nullopt;
    }
  }

  /// Dual: a set R such that `formula` is true whenever `var` falls
  /// outside R. Our translation produces guarded implications
  /// Or(Not(guard), body): outside the guard's support the implication
  /// is vacuously true.
  std::optional<OidSet> ForallSupport(const Formula& formula,
                                      const Variable& var,
                                      Binding* binding) {
    if (formula.kind == Formula::Kind::kNot) {
      return ExistsSupport(*formula.children[0], var, binding, 0);
    }
    if (formula.kind == Formula::Kind::kOr) {
      for (const auto& child : formula.children) {
        if (child->kind == Formula::Kind::kNot) {
          std::optional<OidSet> support =
              ExistsSupport(*child->children[0], var, binding, 0);
          if (support.has_value()) return support;
        }
      }
    }
    return std::nullopt;
  }

  std::optional<OidSet> class_domain_;
  std::optional<OidSet> method_domain_;
  std::optional<OidSet> individual_domain_;

  Result<Oid> EvalTerm(const IdTerm& term, const Binding& binding) {
    switch (term.kind) {
      case IdTerm::Kind::kConst:
        return term.value;
      case IdTerm::Kind::kVar:
        if (!binding.Bound(term.var)) {
          return Status::RuntimeError("unbound variable " +
                                      term.var.ToString());
        }
        return binding.Get(term.var);
      case IdTerm::Kind::kApply: {
        std::vector<Oid> args;
        for (const IdTerm& a : term.args) {
          XSQL_ASSIGN_OR_RETURN(Oid value, EvalTerm(a, binding));
          args.push_back(std::move(value));
        }
        return Oid::Term(term.fn, std::move(args));
      }
      case IdTerm::Kind::kNameRef:
        return Status::RuntimeError("unresolved name in formula");
    }
    return Status::RuntimeError("bad term");
  }

  Result<bool> EvalAtom(const Atom& atom, const Binding& binding) {
    switch (atom.kind) {
      case Atom::Kind::kData: {
        XSQL_ASSIGN_OR_RETURN(Oid obj, EvalTerm(atom.obj, binding));
        XSQL_ASSIGN_OR_RETURN(Oid method, EvalTerm(atom.method, binding));
        std::vector<Oid> args;
        for (const IdTerm& a : atom.args) {
          XSQL_ASSIGN_OR_RETURN(Oid value, EvalTerm(a, binding));
          args.push_back(std::move(value));
        }
        XSQL_ASSIGN_OR_RETURN(Oid value, EvalTerm(atom.value, binding));
        XSQL_ASSIGN_OR_RETURN(OidSet result,
                              evaluator_.Invoke(obj, method, args));
        return result.Contains(value);
      }
      case Atom::Kind::kIsa: {
        XSQL_ASSIGN_OR_RETURN(Oid obj, EvalTerm(atom.obj, binding));
        XSQL_ASSIGN_OR_RETURN(Oid cls, EvalTerm(atom.value, binding));
        return db_->IsInstanceOf(obj, cls);
      }
      case Atom::Kind::kSubclass: {
        XSQL_ASSIGN_OR_RETURN(Oid sub, EvalTerm(atom.obj, binding));
        XSQL_ASSIGN_OR_RETURN(Oid super, EvalTerm(atom.value, binding));
        return db_->graph().IsStrictSubclass(sub, super);
      }
      case Atom::Kind::kEquals: {
        XSQL_ASSIGN_OR_RETURN(Oid lhs, EvalTerm(atom.obj, binding));
        XSQL_ASSIGN_OR_RETURN(Oid rhs, EvalTerm(atom.value, binding));
        return lhs == rhs;
      }
      case Atom::Kind::kComparison: {
        XSQL_ASSIGN_OR_RETURN(Oid lhs, EvalTerm(atom.obj, binding));
        XSQL_ASSIGN_OR_RETURN(Oid rhs, EvalTerm(atom.value, binding));
        return OidsRelate(lhs, atom.op, rhs);
      }
    }
    return Status::RuntimeError("bad atom");
  }

  Result<bool> Eval(const Formula& formula, Binding* binding) {
    switch (formula.kind) {
      case Formula::Kind::kAtom:
        return EvalAtom(formula.atom, *binding);
      case Formula::Kind::kAnd:
        for (const auto& child : formula.children) {
          XSQL_ASSIGN_OR_RETURN(bool truth, Eval(*child, binding));
          if (!truth) return false;
        }
        return true;
      case Formula::Kind::kOr:
        for (const auto& child : formula.children) {
          XSQL_ASSIGN_OR_RETURN(bool truth, Eval(*child, binding));
          if (truth) return true;
        }
        return false;
      case Formula::Kind::kNot: {
        XSQL_ASSIGN_OR_RETURN(bool truth, Eval(*formula.children[0], binding));
        return !truth;
      }
      case Formula::Kind::kExists: {
        // Sound domain restriction: values outside the support make the
        // child false, so only the support needs scanning.
        std::optional<OidSet> support =
            ExistsSupport(*formula.children[0], formula.var, binding, 0);
        const OidSet& domain =
            support.has_value() ? *support : DomainFor(formula.var);
        for (const Oid& candidate : domain) {
          XSQL_RETURN_IF_ERROR(ctx_->Step());
          BindScope scope(binding, formula.var, candidate);
          XSQL_ASSIGN_OR_RETURN(bool truth,
                                Eval(*formula.children[0], binding));
          if (truth) return true;
        }
        return false;
      }
      case Formula::Kind::kForall: {
        // Dual restriction: values outside the support make the child
        // (an implication guarded by a reach formula) vacuously true.
        std::optional<OidSet> support =
            ForallSupport(*formula.children[0], formula.var, binding);
        const OidSet& domain =
            support.has_value() ? *support : DomainFor(formula.var);
        for (const Oid& candidate : domain) {
          XSQL_RETURN_IF_ERROR(ctx_->Step());
          BindScope scope(binding, formula.var, candidate);
          XSQL_ASSIGN_OR_RETURN(bool truth,
                                Eval(*formula.children[0], binding));
          if (!truth) return false;
        }
        return true;
      }
    }
    return Status::RuntimeError("bad formula");
  }

  Database* db_;
  ExecutionContext* ctx_;
  Evaluator evaluator_;
};

}  // namespace

Result<Relation> EvaluateFLogic(const FLogicQuery& query, Database* db,
                                ExecutionContext* ctx) {
  ModelChecker checker(db, ctx);
  return checker.Run(query);
}

}  // namespace flogic
}  // namespace xsql
