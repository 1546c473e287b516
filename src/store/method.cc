#include "store/method.h"

#include <algorithm>

namespace xsql {

namespace {

const MethodRegistry::Def* FindDef(const std::vector<MethodRegistry::Def>& defs,
                                   const Oid& cls, int arity) {
  auto it = std::find_if(defs.begin(), defs.end(), [&](const auto& def) {
    return def.arity == arity && def.cls == cls;
  });
  return it == defs.end() ? nullptr : &*it;
}

}  // namespace

Status MethodRegistry::Define(const Oid& cls, const Oid& method, int arity,
                              std::shared_ptr<const MethodBody> body) {
  if (body == nullptr) {
    return Status::InvalidArgument("null method body for " + method.ToString());
  }
  if (body->arity() != arity) {
    return Status::InvalidArgument("body arity mismatch for " +
                                   method.ToString());
  }
  Restore(cls, method, arity, std::move(body));
  return Status::OK();
}

Status MethodRegistry::ResolveConflict(const Oid& cls, const Oid& method,
                                       const Oid& from_super) {
  conflict_choice_[Key{cls, method}] = from_super;
  return Status::OK();
}

bool MethodRegistry::DefinedOn(const Oid& cls, const Oid& method,
                               int arity) const {
  return FindDef(DefinitionsOf(method), cls, arity) != nullptr;
}

Result<MethodRegistry::Resolution> MethodRegistry::Resolve(
    const ClassGraph& graph, const std::vector<Oid>& classes,
    const Oid& method, int arity) const {
  // The nearest definitions win (overriding); two *incomparable* nearest
  // definitions are a conflict unless the schema resolved it.
  const std::vector<Def>& defs = DefinitionsOf(method);
  const std::vector<Oid> hits =
      graph.NearestProviders(classes, [&](const Oid& cls) {
        return FindDef(defs, cls, arity) != nullptr;
      });
  if (hits.empty()) {
    return Status::NotFound("no definition of " + method.ToString() + "/" +
                            std::to_string(arity) + " visible");
  }
  if (hits.size() == 1) {
    return Resolution{hits[0], FindDef(defs, hits[0], arity)->body};
  }
  // Multiple incomparable definitions at the same depth: consult the
  // explicit conflict-resolution table (checked per starting class).
  for (const Oid& start : classes) {
    auto choice = conflict_choice_.find(Key{start, method});
    if (choice != conflict_choice_.end()) {
      for (const Oid& hit : hits) {
        if (hit == choice->second ||
            graph.IsStrictSubclass(choice->second, hit)) {
          return Resolution{hit, FindDef(defs, hit, arity)->body};
        }
      }
    }
  }
  std::string msg = "unresolved multiple-inheritance conflict for " +
                    method.ToString() + " among {";
  for (size_t i = 0; i < hits.size(); ++i) {
    if (i > 0) msg += ", ";
    msg += hits[i].ToString();
  }
  msg += "}; add an explicit resolution (MEY88)";
  return Status::RuntimeError(std::move(msg));
}

std::shared_ptr<const MethodBody> MethodRegistry::Definition(
    const Oid& cls, const Oid& method, int arity) const {
  const Def* def = FindDef(DefinitionsOf(method), cls, arity);
  return def == nullptr ? nullptr : def->body;
}

void MethodRegistry::Restore(const Oid& cls, const Oid& method, int arity,
                             std::shared_ptr<const MethodBody> body) {
  std::vector<Def>& defs = defs_[method];
  auto it = std::find_if(defs.begin(), defs.end(), [&](const Def& def) {
    return def.arity == arity && def.cls == cls;
  });
  if (body != nullptr) {
    if (it == defs.end()) {
      defs.push_back(Def{cls, arity, std::move(body)});
    } else {
      it->body = std::move(body);
    }
    return;
  }
  if (it != defs.end()) defs.erase(it);
  if (defs.empty()) defs_.erase(method);
}

std::optional<Oid> MethodRegistry::ConflictChoice(const Oid& cls,
                                                  const Oid& method) const {
  auto it = conflict_choice_.find(Key{cls, method});
  if (it == conflict_choice_.end()) return std::nullopt;
  return it->second;
}

void MethodRegistry::RestoreConflictChoice(const Oid& cls, const Oid& method,
                                           std::optional<Oid> from_super) {
  Key key{cls, method};
  if (!from_super.has_value()) {
    conflict_choice_.erase(key);
  } else {
    conflict_choice_[key] = *from_super;
  }
}

const std::vector<MethodRegistry::Def>& MethodRegistry::DefinitionsOf(
    const Oid& method) const {
  static const std::vector<Def> kNone;
  auto it = defs_.find(method);
  return it == defs_.end() ? kNone : it->second;
}

}  // namespace xsql
