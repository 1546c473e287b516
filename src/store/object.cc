#include "store/object.h"

#include <algorithm>

namespace xsql {

AttrValue& Object::Slot(const Oid& attr) {
  const size_t i = IndexOf(attr);
  if (i < attrs_.size()) return attrs_[i].second;
  auto pos = std::lower_bound(
      attrs_.begin(), attrs_.end(), attr,
      [](const auto& entry, const Oid& key) { return entry.first < key; });
  return attrs_.emplace(pos, attr, AttrValue())->second;
}

Status Object::AddToSet(const Oid& attr, const Oid& value) {
  const size_t i = IndexOf(attr);
  if (i == attrs_.size()) {
    Slot(attr) = AttrValue::Set(OidSet({value}));
    return Status::OK();
  }
  if (!attrs_[i].second.set_valued()) {
    return Status::InvalidArgument("attribute " + attr.ToString() + " of " +
                                   id_.ToString() + " is scalar");
  }
  attrs_[i].second.mutable_set().Insert(value);
  return Status::OK();
}

std::string Object::ToString() const {
  std::string out = id_.ToString() + "[";
  bool first = true;
  for (const auto& [attr, value] : attrs_) {
    if (!first) out += "; ";
    first = false;
    out += attr.ToString();
    out += value.set_valued() ? " ->> " : " -> ";
    out += value.ToString();
  }
  out += ']';
  return out;
}

}  // namespace xsql
