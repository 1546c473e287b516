#include "eval/view.h"

#include "eval/update.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace xsql {

Status ViewManager::Create(const CreateViewStmt& stmt) {
  if (views_.contains(stmt.name.str())) {
    return Status::InvalidArgument("view " + stmt.name.ToString() +
                                   " already exists");
  }
  XSQL_RETURN_IF_ERROR(db_->DeclareClass(stmt.name, {stmt.superclass}));
  for (const SignatureDecl& decl : stmt.signatures) {
    XSQL_RETURN_IF_ERROR(ApplySignatureDecl(db_, stmt.name, decl));
  }
  ViewDef def;
  def.name = stmt.name;
  def.superclass = stmt.superclass;
  def.signatures = stmt.signatures;
  def.query = stmt.query;
  if (!def.query.oid_function_of.has_value()) {
    return Status::InvalidArgument(
        "view query must have an OID FUNCTION OF clause");
  }
  db_->RecordUndo([this, name = stmt.name.str()](Database*) {
    views_.erase(name);
  });
  views_.emplace(stmt.name.str(), std::move(def));
  return Status::OK();
}

Status ViewManager::EnsureMaterialized(const std::string& fn) {
  auto it = views_.find(fn);
  if (it == views_.end()) return Status::NotFound("no view " + fn);
  if (materializing_) return Status::OK();  // re-entrant resolution
  if (it->second.materialized_at == 0 ||
      it->second.materialized_at < db_->version()) {
    return Materialize(fn);
  }
  return Status::OK();
}

Status ViewManager::Materialize(const std::string& name) {
  static obs::Counter& materializations =
      obs::MetricsRegistry::Global().GetCounter("xsql.view.materializations");
  materializations.Inc();
  obs::Span span("view/materialize", [&] { return name; });
  auto it = views_.find(name);
  if (it == views_.end()) return Status::NotFound("no view " + name);
  ViewDef& def = it->second;
  ExecutionContext* ctx =
      ctx_ != nullptr ? ctx_ : ExecutionContext::Unlimited();
  RecursionScope depth(ctx, "view expansion " + def.name.ToString());
  XSQL_RETURN_IF_ERROR(depth.status());
  // Detach the previous materialization from the view class (undoable:
  // a failed statement re-attaches them, so keep `created` in sync by
  // restoring it on any failure path).
  std::vector<Oid> previous = std::move(def.created);
  def.created.clear();
  auto fail = [&](Status st) {
    def.created = std::move(previous);
    return st;
  };
  for (const Oid& oid : previous) {
    Status st = db_->RemoveInstanceOf(oid, def.name);
    if (!st.ok()) return fail(std::move(st));
  }
  materializing_ = true;
  Evaluator evaluator(db_, this, ctx);
  EvalOptions opts;
  opts.result_class = def.name;
  Result<EvalOutput> out = evaluator.Run(def.query, opts);
  materializing_ = false;
  if (!out.ok()) return fail(out.status());
  def.created = out->created;
  def.materialized_at = db_->version();
  return Status::OK();
}

Status ViewManager::UpdateThroughView(const Oid& view_oid, const Oid& attr,
                                      const Oid& value) {
  if (!view_oid.is_term()) {
    return Status::InvalidArgument("view object oid must be an id-term");
  }
  auto it = views_.find(view_oid.term_fn());
  if (it == views_.end()) {
    return Status::NotFound("no view named " + view_oid.term_fn());
  }
  const ViewDef& def = it->second;
  // Find the select item defining `attr` and check its provenance: it
  // must be a one-step path `V.baseAttr` whose head V is one of the OID
  // FUNCTION variables, so the view object determines the base object.
  for (const SelectItem& item : def.query.select) {
    if (item.kind != SelectItem::Kind::kExpr || !item.out_attr.has_value() ||
        !(*item.out_attr == attr)) {
      continue;
    }
    if (item.expr.kind != ValueExpr::Kind::kPath ||
        item.expr.path.steps.size() != 1 ||
        !item.expr.path.head.is_var()) {
      return Status::InvalidArgument(
          "attribute " + attr.ToString() +
          " of view " + def.name.ToString() + " is not updatable");
    }
    const PathStep& step = item.expr.path.steps[0];
    if (step.kind != PathStep::Kind::kMethod || step.method.name_is_var ||
        !step.method.args.empty()) {
      return Status::InvalidArgument("attribute " + attr.ToString() +
                                     " is not updatable");
    }
    const std::vector<Variable>& fn_vars = *def.query.oid_function_of;
    for (size_t i = 0; i < fn_vars.size(); ++i) {
      if (fn_vars[i] == item.expr.path.head.var) {
        if (i >= view_oid.term_args().size()) {
          return Status::RuntimeError("malformed view oid " +
                                      view_oid.ToString());
        }
        const Oid& base = view_oid.term_args()[i];
        XSQL_RETURN_IF_ERROR(
            db_->SetScalar(base, step.method.name, value));
        // Keep the materialized view object in sync.
        XSQL_RETURN_IF_ERROR(db_->SetScalar(view_oid, attr, value));
        return Status::OK();
      }
    }
    return Status::InvalidArgument(
        "attribute " + attr.ToString() +
        " does not derive from an OID FUNCTION variable; not updatable");
  }
  return Status::NotFound("view " + def.name.ToString() +
                          " has no attribute " + attr.ToString());
}

std::vector<std::string> ViewManager::ViewNames() const {
  std::vector<std::string> out;
  out.reserve(views_.size());
  for (const auto& [name, def] : views_) out.push_back(name);
  return out;
}

}  // namespace xsql
