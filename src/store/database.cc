#include "store/database.h"

#include <algorithm>

#include "common/fault.h"
#include "store/catalog.h"

namespace xsql {

namespace {

using Pairs = std::vector<std::pair<Oid, Oid>>;

/// `obj`'s run in a shard's (oid, class) pairs.
std::pair<Pairs::const_iterator, Pairs::const_iterator> RunOf(
    const Pairs& pairs, const Oid& obj) {
  auto lo = std::partition_point(pairs.begin(), pairs.end(),
                                 [&](const auto& m) { return m.first < obj; });
  return {lo, std::partition_point(lo, pairs.end(), [&](const auto& m) {
            return m.first == obj;
          })};
}

/// Visits the domain occurrences one attribute contributes: its name and
/// its scalar value or each set element.
template <typename Fn>
void ForEachOccurrence(const Oid& attr, const AttrValue& value, Fn&& fn) {
  fn(attr);
  if (value.set_valued()) {
    for (const Oid& v : value.set()) fn(v);
  } else {
    fn(value.scalar());
  }
}

}  // namespace

Database::Database() {
  for (auto& shard : objects_) shard = std::make_shared<ObjectShard>();
  // Builtin hierarchy: individual classes live under Object; the two
  // meta-classes (Class, Method) stand apart, making the catalog part of
  // the hierarchy without mixing the class universe into individuals.
  (void)GraphDeclareClass(builtin::Object());
  (void)GraphAddSubclass(builtin::Numeral(), builtin::Object());
  (void)GraphAddSubclass(builtin::String(), builtin::Object());
  (void)GraphAddSubclass(builtin::Boolean(), builtin::Object());
  (void)GraphAddSubclass(builtin::NilClass(), builtin::Object());
  (void)GraphDeclareClass(builtin::MetaClass());
  (void)GraphDeclareClass(builtin::MetaMethod());
  for (const Oid& cls : builtin::All()) {
    GraphAddInstance(cls, builtin::MetaClass());
  }
}

Database::Database(ForkTag, const Database& src)
    : graph_(src.graph_),
      signatures_(src.signatures_),
      methods_(src.methods_),
      objects_(src.objects_),
      definitions_(src.definitions_),
      version_(src.version_),
      cow_epoch_(src.cow_epoch_ + 1),
      domain_(src.domain_),
      default_counts_(src.default_counts_) {}

std::unique_ptr<Database> Database::Fork() const {
  return std::unique_ptr<Database>(new Database(ForkTag{}, *this));
}

void Database::BeginNewEpoch() { ++cow_epoch_; }

Object* Database::FindMutableRaw(const Oid& oid) {
  // Probe the const view first: cloning a whole shard to discover the
  // object is absent would be a wasted copy.
  if (!HasObject(oid)) return nullptr;
  return &WritableShard(oid).objects.at(oid);
}

bool Database::HasDirectClass(const Oid& obj, const Oid& cls) const {
  const auto [lo, hi] = RunOf(MembershipsOf(obj), obj);
  return std::any_of(lo, hi, [&](const auto& m) { return m.second == cls; });
}

void Database::CreateObjectRaw(const Oid& oid) {
  if (HasObject(oid)) return;
  WritableShard(oid).objects.emplace(oid, Object(oid));
  domain_.Add(oid, cow_epoch_);
}

void Database::EraseObjectRaw(const Oid& oid) {
  if (!HasObject(oid)) return;
  CountDefaults(oid, -1);
  ObjectShard& shard = WritableShard(oid);
  auto it = shard.objects.find(oid);
  for (const auto& [attr, value] : it->second.attrs()) {
    ForEachOccurrence(attr, value,
                      [&](const Oid& x) { domain_.Remove(x, cow_epoch_); });
  }
  shard.objects.erase(it);
  domain_.Remove(oid, cow_epoch_);
}

void Database::PutAttrRaw(const Oid& obj, const Oid& attr, AttrValue value) {
  Object* object = FindMutableRaw(obj);
  if (object == nullptr) return;
  // Count the new occurrences before dropping the old ones, so a value
  // that stays (or an attribute name that is overwritten) never leaves
  // the domain and re-enters it.
  ForEachOccurrence(attr, value,
                    [&](const Oid& x) { domain_.Add(x, cow_epoch_); });
  if (const AttrValue* prior = object->Get(attr)) {
    ForEachOccurrence(attr, *prior,
                      [&](const Oid& x) { domain_.Remove(x, cow_epoch_); });
  } else {
    CountDefault(obj, attr, +1);
  }
  if (value.set_valued()) {
    object->SetSet(attr, std::move(value.mutable_set()));
  } else {
    object->SetScalar(attr, value.scalar());
  }
}

Status Database::AddToSetRaw(const Oid& obj, const Oid& attr,
                             const Oid& value) {
  Object* object = FindMutableRaw(obj);
  if (object == nullptr) return Status::NotFound("no object " + obj.ToString());
  const AttrValue* prior = object->Get(attr);
  const bool new_attr = prior == nullptr;
  const bool new_value =
      new_attr || (prior->set_valued() && !prior->set().Contains(value));
  XSQL_RETURN_IF_ERROR(object->AddToSet(attr, value));
  if (new_attr) {
    domain_.Add(attr, cow_epoch_);
    CountDefault(obj, attr, +1);
  }
  if (new_value) domain_.Add(value, cow_epoch_);
  return Status::OK();
}

void Database::RemoveAttrRaw(const Oid& obj, const Oid& attr) {
  Object* object = FindMutableRaw(obj);
  if (object == nullptr) return;
  const AttrValue* prior = object->Get(attr);
  if (prior == nullptr) return;
  ForEachOccurrence(attr, *prior,
                    [&](const Oid& x) { domain_.Remove(x, cow_epoch_); });
  CountDefault(obj, attr, -1);
  object->Remove(attr);
}

void Database::DeclareClassRaw(const Oid& cls) {
  if (graph_.IsClass(cls)) return;
  (void)graph_.DeclareClass(cls, cow_epoch_);
  domain_.Add(cls, cow_epoch_);
  CountDefaults(cls, +1);
}

void Database::RemoveClassRaw(const Oid& cls) {
  if (!graph_.IsClass(cls)) return;
  CountDefaults(cls, -1);
  graph_.RemoveClass(cls, cow_epoch_);
  domain_.Remove(cls, cow_epoch_);
}

void Database::AddInstanceRaw(const Oid& obj, const Oid& cls) {
  if (HasDirectClass(obj, cls)) return;
  Pairs& pairs = WritableMemberships(obj);
  pairs.emplace(RunOf(pairs, obj).second, obj, cls);
  graph_.AddToExtent(cls, obj, cow_epoch_);
}

void Database::RemoveInstanceRaw(const Oid& obj, const Oid& cls) {
  if (!HasDirectClass(obj, cls)) return;
  Pairs& pairs = WritableMemberships(obj);
  const auto [lo, hi] = RunOf(pairs, obj);
  pairs.erase(std::find_if(
      lo, hi, [&](const auto& m) { return m.second == cls; }));
  graph_.RemoveFromExtent(cls, obj, cow_epoch_);
}

void Database::Recount() {
  domain_ = CountedOidSet();
  auto count = [&](const Oid& oid) { domain_.Add(oid, cow_epoch_); };
  ForEachObject([&](const Oid& oid, const Object& object) {
    count(oid);
    for (const auto& [attr, value] : object.attrs()) {
      ForEachOccurrence(attr, value, count);
    }
  });
  default_counts_.clear();
  for (const Oid& cls : graph_.classes()) {
    count(cls);
    CountDefaults(cls, +1);
  }
}

void Database::CountDefaults(const Oid& obj, int delta) {
  if (const Object* object = GetObject(obj)) {
    for (const auto& [attr, value] : object->attrs()) {
      CountDefault(obj, attr, delta);
    }
  }
}

void Database::CountDefault(const Oid& obj, const Oid& attr, int delta) {
  if (!graph_.IsClass(obj)) return;
  uint32_t& count = default_counts_[attr];
  count += delta;
  if (count == 0) default_counts_.erase(attr);
}

Status Database::DeclareClass(const Oid& cls, const std::vector<Oid>& supers) {
  XSQL_RETURN_IF_ERROR(FaultCheck("Database::DeclareClass"));
  if (!cls.is_atom()) {
    return Status::InvalidArgument("class oid must be an atom: " +
                                   cls.ToString());
  }
  XSQL_RETURN_IF_ERROR(GraphDeclareClass(cls));
  if (supers.empty()) {
    XSQL_RETURN_IF_ERROR(GraphAddSubclass(cls, builtin::Object()));
  } else {
    for (const Oid& super : supers) {
      XSQL_RETURN_IF_ERROR(FaultCheck("Database::DeclareClass#super"));
      XSQL_RETURN_IF_ERROR(GraphAddSubclass(cls, super));
    }
  }
  // Classes are objects: register in the meta-class and give them a
  // (possibly empty) tuple-object record.
  GraphAddInstance(cls, builtin::MetaClass());
  EnsureObject(cls);
  Touch();
  return Status::OK();
}

Status Database::AddSubclass(const Oid& sub, const Oid& super) {
  XSQL_RETURN_IF_ERROR(FaultCheck("Database::AddSubclass"));
  XSQL_RETURN_IF_ERROR(GraphAddSubclass(sub, super));
  GraphAddInstance(sub, builtin::MetaClass());
  GraphAddInstance(super, builtin::MetaClass());
  Touch();
  return Status::OK();
}

Status Database::DeclareAttribute(const Oid& cls, const Oid& attr,
                                  const Oid& result, bool set_valued) {
  Signature sig;
  sig.method = attr;
  sig.result = result;
  sig.set_valued = set_valued;
  return DeclareSignature(cls, std::move(sig));
}

Status Database::DeclareSignature(const Oid& cls, Signature sig) {
  XSQL_RETURN_IF_ERROR(FaultCheck("Database::DeclareSignature"));
  if (!graph_.IsClass(cls)) {
    XSQL_RETURN_IF_ERROR(DeclareClass(cls));
  }
  XSQL_RETURN_IF_ERROR(RegisterMethodObject(sig.method));
  if (undo_ != nullptr && !signatures_.Has(cls, sig)) {
    Signature saved = sig;
    undo_->Record([cls, saved](Database* db) {
      db->signatures_.Remove(cls, saved);
    });
  }
  XSQL_RETURN_IF_ERROR(signatures_.Add(cls, std::move(sig)));
  Touch();
  return Status::OK();
}

Status Database::DefineMethod(const Oid& cls, const Oid& method, int arity,
                              std::shared_ptr<const MethodBody> body) {
  XSQL_RETURN_IF_ERROR(FaultCheck("Database::DefineMethod"));
  XSQL_RETURN_IF_ERROR(RegisterMethodObject(method));
  if (undo_ != nullptr) {
    std::shared_ptr<const MethodBody> prior =
        methods_.Definition(cls, method, arity);
    undo_->Record([cls, method, arity, prior](Database* db) {
      db->methods_.Restore(cls, method, arity, prior);
    });
  }
  XSQL_RETURN_IF_ERROR(methods_.Define(cls, method, arity, std::move(body)));
  Touch();
  return Status::OK();
}

Status Database::ResolveMethodConflict(const Oid& cls, const Oid& method,
                                       const Oid& from_super) {
  XSQL_RETURN_IF_ERROR(FaultCheck("Database::ResolveMethodConflict"));
  if (undo_ != nullptr) {
    std::optional<Oid> prior = methods_.ConflictChoice(cls, method);
    undo_->Record([cls, method, prior](Database* db) {
      db->methods_.RestoreConflictChoice(cls, method, prior);
    });
  }
  XSQL_RETURN_IF_ERROR(methods_.ResolveConflict(cls, method, from_super));
  Touch();
  return Status::OK();
}

Status Database::NewObject(const Oid& oid, const std::vector<Oid>& classes) {
  XSQL_RETURN_IF_ERROR(FaultCheck("Database::NewObject"));
  EnsureObject(oid);
  for (const Oid& cls : classes) {
    XSQL_RETURN_IF_ERROR(FaultCheck("Database::NewObject#class"));
    if (!graph_.IsClass(cls)) {
      return Status::NotFound("unknown class " + cls.ToString());
    }
    GraphAddInstance(oid, cls);
  }
  Touch();
  return Status::OK();
}

Status Database::AddInstanceOf(const Oid& oid, const Oid& cls) {
  XSQL_RETURN_IF_ERROR(FaultCheck("Database::AddInstanceOf"));
  if (!graph_.IsClass(cls)) {
    return Status::NotFound("unknown class " + cls.ToString());
  }
  EnsureObject(oid);
  GraphAddInstance(oid, cls);
  Touch();
  return Status::OK();
}

Status Database::SetScalar(const Oid& obj, const Oid& attr, const Oid& value) {
  XSQL_RETURN_IF_ERROR(FaultCheck("Database::SetScalar"));
  XSQL_RETURN_IF_ERROR(RegisterMethodObject(attr));
  RecordUndoAttr(obj, attr);
  EnsureObject(obj);
  PutAttrRaw(obj, attr, AttrValue::Scalar(value));
  Touch();
  return Status::OK();
}

Status Database::SetSet(const Oid& obj, const Oid& attr, OidSet values) {
  XSQL_RETURN_IF_ERROR(FaultCheck("Database::SetSet"));
  XSQL_RETURN_IF_ERROR(RegisterMethodObject(attr));
  RecordUndoAttr(obj, attr);
  EnsureObject(obj);
  PutAttrRaw(obj, attr, AttrValue::Set(std::move(values)));
  Touch();
  return Status::OK();
}

Status Database::AddToSet(const Oid& obj, const Oid& attr, const Oid& value) {
  XSQL_RETURN_IF_ERROR(FaultCheck("Database::AddToSet"));
  XSQL_RETURN_IF_ERROR(RegisterMethodObject(attr));
  RecordUndoAttr(obj, attr);
  EnsureObject(obj);
  XSQL_RETURN_IF_ERROR(AddToSetRaw(obj, attr, value));
  Touch();
  return Status::OK();
}

Status Database::ClearAttribute(const Oid& obj, const Oid& attr) {
  XSQL_RETURN_IF_ERROR(FaultCheck("Database::ClearAttribute"));
  if (!HasObject(obj)) {
    return Status::NotFound("no object " + obj.ToString());
  }
  RecordUndoAttr(obj, attr);
  RemoveAttrRaw(obj, attr);
  Touch();
  return Status::OK();
}

Status Database::RemoveInstanceOf(const Oid& oid, const Oid& cls) {
  XSQL_RETURN_IF_ERROR(FaultCheck("Database::RemoveInstanceOf"));
  if (undo_ != nullptr && HasDirectClass(oid, cls)) {
    undo_->Record([oid, cls](Database* db) { db->AddInstanceRaw(oid, cls); });
  }
  RemoveInstanceRaw(oid, cls);
  Touch();
  return Status::OK();
}

void Database::AddDefinition(std::string text) {
  // Truncating to the earlier length is a no-op if the append never
  // happened, as the undo protocol requires.
  RecordUndo([prior = definitions_.size()](Database* db) {
    if (db->definitions_.size() > prior) db->definitions_.resize(prior);
  });
  // No Touch(): nothing version-keyed reads the list, and bumping the
  // version here would stale the view CREATE VIEW just materialized.
  definitions_.push_back(std::move(text));
}

void Database::Rollback(UndoLog* log) {
  UndoLog* saved = undo_;
  undo_ = nullptr;  // inverses go through raw primitives; never re-record
  log->Rollback(this);
  undo_ = saved;
  Touch();
}

const AttrValue* Database::GetAttribute(const Oid& obj, const Oid& attr) const {
  if (const Object* o = GetObject(obj)) {
    if (const AttrValue* v = o->Get(attr)) return v;
  }
  if (!default_counts_.contains(attr)) return nullptr;
  // Behavioral inheritance of defaults: the nearest class-object that
  // stores the attribute wins; among incomparable nearest ones, the
  // smallest class oid (a deterministic stand-in for the schema-level
  // conflict resolution the paper requires).
  const std::vector<Oid> providers = graph_.NearestProviders(
      DirectClassesOf(obj), [&](const Oid& cls) {
        const Object* class_obj = GetObject(cls);
        return class_obj != nullptr && class_obj->Get(attr) != nullptr;
      });
  return providers.empty() ? nullptr : GetObject(providers.front())->Get(attr);
}

bool Database::IsInstanceOf(const Oid& oid, const Oid& cls) const {
  // Literal instances of the builtin classes.
  if (oid.is_numeric()) {
    if (graph_.IsSubclassEq(builtin::Numeral(), cls)) return true;
  } else if (oid.is_string()) {
    if (graph_.IsSubclassEq(builtin::String(), cls)) return true;
  } else if (oid.is_bool()) {
    if (graph_.IsSubclassEq(builtin::Boolean(), cls)) return true;
  } else if (oid.is_nil()) {
    if (graph_.IsSubclassEq(builtin::NilClass(), cls)) return true;
  }
  const auto [lo, hi] = RunOf(MembershipsOf(oid), oid);
  return std::any_of(lo, hi, [&](const auto& m) {
    return graph_.IsSubclassEq(m.second, cls);
  });
}

std::vector<Oid> Database::DirectClassesOf(const Oid& obj) const {
  const auto [lo, hi] = RunOf(MembershipsOf(obj), obj);
  std::vector<Oid> out;
  for (auto it = lo; it != hi; ++it) out.push_back(it->second);
  return out;
}

OidSet Database::AllClassesOf(const Oid& obj) const {
  std::vector<Oid> out;
  for (const Oid& direct : DirectClassesOf(obj)) {
    out.push_back(direct);
    for (const ClassGraph::Ancestor& a : graph_.Closure(direct)) {
      out.push_back(a.cls);
    }
  }
  return OidSet(std::move(out));
}

std::vector<std::pair<Oid, Oid>> Database::AllInstancePairs() const {
  std::vector<std::pair<Oid, Oid>> out;
  for (const auto& shard : objects_) {
    out.insert(out.end(), shard->memberships->pairs.begin(),
               shard->memberships->pairs.end());
  }
  return out;
}

OidSet Database::Extent(const Oid& cls) const {
  OidSet out = graph_.Extent(cls);
  // Literal classes draw their extent from the active domain.
  const bool wants_numeral = graph_.IsSubclassEq(builtin::Numeral(), cls);
  const bool wants_string = graph_.IsSubclassEq(builtin::String(), cls);
  const bool wants_bool = graph_.IsSubclassEq(builtin::Boolean(), cls);
  const bool wants_nil = graph_.IsSubclassEq(builtin::NilClass(), cls);
  if (!(wants_numeral || wants_string || wants_bool || wants_nil)) return out;
  // A filter of the sorted domain is sorted: one linear merge.
  std::vector<Oid> literals;
  domain_.ForEach([&](const Oid& oid) {
    if ((wants_numeral && oid.is_numeric()) ||
        (wants_string && oid.is_string()) || (wants_bool && oid.is_bool()) ||
        (wants_nil && oid.is_nil())) {
      literals.push_back(oid);
    }
  });
  return OidSet::Union(out, OidSet(std::move(literals)));
}

Status Database::RegisterMethodObject(const Oid& attr) {
  if (!attr.is_atom()) {
    return Status::InvalidArgument("attribute/method name must be an atom: " +
                                   attr.ToString());
  }
  GraphAddInstance(attr, builtin::MetaMethod());
  return Status::OK();
}

void Database::EnsureObject(const Oid& oid) {
  if (HasObject(oid)) return;
  if (undo_ != nullptr) {
    undo_->Record([oid](Database* db) { db->EraseObjectRaw(oid); });
  }
  CreateObjectRaw(oid);
}

Status Database::FaultCheck(const char* site) {
  FaultInjector& fi = FaultInjector::Global();
  if (!fi.armed()) return Status::OK();
  return fi.Check(FaultInjector::Domain::kMutation, site);
}

Status Database::GraphDeclareClass(const Oid& cls) {
  if (undo_ != nullptr && !graph_.IsClass(cls)) {
    undo_->Record([cls](Database* db) { db->RemoveClassRaw(cls); });
  }
  DeclareClassRaw(cls);
  return Status::OK();
}

Status Database::GraphAddSubclass(const Oid& sub, const Oid& super) {
  if (undo_ != nullptr) {
    // AddSubclass auto-declares both endpoints before its cycle check can
    // fail, so the declarations must be undoable even on failure.
    if (!graph_.IsClass(sub)) {
      undo_->Record([sub](Database* db) { db->RemoveClassRaw(sub); });
    }
    if (!graph_.IsClass(super)) {
      undo_->Record([super](Database* db) { db->RemoveClassRaw(super); });
    }
    std::vector<Oid> supers = graph_.DirectSuperclasses(sub);
    if (std::find(supers.begin(), supers.end(), super) == supers.end()) {
      undo_->Record([sub, super](Database* db) {
        db->graph_.RemoveSubclassEdge(sub, super, db->cow_epoch_);
      });
    }
  }
  if (!(sub == super)) {
    // Declare the endpoints here, counted, before the graph would.
    DeclareClassRaw(sub);
    DeclareClassRaw(super);
  }
  return graph_.AddSubclass(sub, super, cow_epoch_);
}

void Database::GraphAddInstance(const Oid& obj, const Oid& cls) {
  if (undo_ != nullptr) {
    if (!graph_.IsClass(cls)) {
      undo_->Record([cls](Database* db) { db->RemoveClassRaw(cls); });
    }
    if (!HasDirectClass(obj, cls)) {
      undo_->Record(
          [obj, cls](Database* db) { db->RemoveInstanceRaw(obj, cls); });
    }
  }
  DeclareClassRaw(cls);
  AddInstanceRaw(obj, cls);
}

void Database::RecordUndoAttr(const Oid& obj, const Oid& attr) {
  if (undo_ == nullptr) return;
  const Object* existing = GetObject(obj);
  if (existing == nullptr) {
    // The whole object record is about to be created; GetOrCreate records
    // its erasure, which discards any attribute written to it.
    return;
  }
  const AttrValue* prior = existing->Get(attr);
  if (prior == nullptr) {
    undo_->Record(
        [obj, attr](Database* db) { db->RemoveAttrRaw(obj, attr); });
  } else {
    undo_->Record([obj, attr, saved = *prior](Database* db) {
      db->PutAttrRaw(obj, attr, saved);
    });
  }
}

}  // namespace xsql
