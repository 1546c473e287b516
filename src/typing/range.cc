#include "typing/range.h"

#include "store/catalog.h"

namespace xsql {

VarRange::VarRange() { classes_.push_back(builtin::Object()); }

void VarRange::Add(const Oid& cls) {
  for (const Oid& have : classes_) {
    if (have == cls) return;
  }
  classes_.push_back(cls);
}

bool VarRange::Within(const Database& db, const Oid& oid) const {
  for (const Oid& cls : classes_) {
    if (!db.IsInstanceOf(oid, cls)) return false;
  }
  return true;
}

bool VarRange::Empty(const ClassGraph& graph) const {
  return !graph.HaveCommonSubclass(classes_);
}

bool VarRange::SubrangeOf(const ClassGraph& graph, const Oid& cls) const {
  return graph.IsSubrange(classes_, cls);
}

OidSet VarRange::CandidateOids(const Database& db) const {
  const ClassGraph& graph = db.graph();
  bool first = true;
  OidSet out;
  for (const Oid& cls : classes_) {
    // Extent(sub) ⊆ Extent(super), literal classes included, so a class
    // with a proper subclass in the range adds nothing to the
    // intersection: {Object, Person} reads only Extent(Person).
    bool redundant = false;
    for (const Oid& other : classes_) {
      if (graph.IsStrictSubclass(other, cls)) {
        redundant = true;
        break;
      }
    }
    if (redundant) continue;
    OidSet extent = db.Extent(cls);
    if (first) {
      out = std::move(extent);
      first = false;
    } else {
      out = OidSet::Intersect(out, extent);
    }
  }
  return out;
}

std::string VarRange::ToString() const {
  std::string out = "{";
  for (size_t i = 0; i < classes_.size(); ++i) {
    if (i > 0) out += ", ";
    out += classes_[i].ToString();
  }
  out += "}";
  return out;
}

}  // namespace xsql
