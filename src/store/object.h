#ifndef XSQL_STORE_OBJECT_H_
#define XSQL_STORE_OBJECT_H_

#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"
#include "oid/oid.h"

namespace xsql {

/// The value of one attribute of a tuple-object (§2, "Attributes").
///
/// Scalar attributes hold a single oid; set-valued attributes hold a set
/// of oids. Set-objects are just tuple-objects with one set-valued
/// attribute, so this one value type covers the whole model.
class AttrValue {
 public:
  static AttrValue Scalar(Oid value) {
    AttrValue v;
    v.set_valued_ = false;
    v.scalar_ = std::move(value);
    return v;
  }
  static AttrValue Set(OidSet values) {
    AttrValue v;
    v.set_valued_ = true;
    v.set_ = std::move(values);
    return v;
  }

  bool set_valued() const { return set_valued_; }
  const Oid& scalar() const { return scalar_; }
  const OidSet& set() const { return set_; }
  OidSet& mutable_set() { return set_; }

  /// The value viewed as a set: a scalar contributes a singleton. Path
  /// expressions treat scalar and set-valued attributes uniformly (§3.1),
  /// so this is the evaluator's main accessor.
  OidSet AsSet() const {
    if (set_valued_) return set_;
    OidSet s;
    s.Insert(scalar_);
    return s;
  }

  bool operator==(const AttrValue& other) const {
    return set_valued_ == other.set_valued_ &&
           (set_valued_ ? set_ == other.set_ : scalar_ == other.scalar_);
  }

  std::string ToString() const {
    return set_valued_ ? set_.ToString() : scalar_.ToString();
  }

 private:
  bool set_valued_ = false;
  Oid scalar_;
  OidSet set_;
};

/// A tuple-object: a logical oid plus attribute-name -> value entries.
///
/// All objects in the model are tuple-objects (§2); classes are objects
/// too and may carry attributes (including inheritable defaults), which is
/// why `Object` makes no distinction.
class Object {
 public:
  Object() = default;
  explicit Object(Oid id) : id_(std::move(id)) {}

  const Oid& id() const { return id_; }

  /// Sets attribute `attr` to the scalar `value`.
  void SetScalar(const Oid& attr, Oid value) {
    Slot(attr) = AttrValue::Scalar(std::move(value));
  }

  /// Sets attribute `attr` to the set `values`.
  void SetSet(const Oid& attr, OidSet values) {
    Slot(attr) = AttrValue::Set(std::move(values));
  }

  /// Adds one element to a set-valued attribute (created if missing).
  /// Fails if `attr` currently holds a scalar.
  Status AddToSet(const Oid& attr, const Oid& value);

  /// The stored value of `attr`, or nullptr when undefined *on this
  /// object* (inheritance of defaults is the Database's job). A scan by
  /// oid equality: an object has a handful of attributes, and equality
  /// never reads their text.
  const AttrValue* Get(const Oid& attr) const {
    const size_t i = IndexOf(attr);
    return i == attrs_.size() ? nullptr : &attrs_[i].second;
  }

  /// Removes the attribute entirely (making it undefined here).
  void Remove(const Oid& attr) {
    const size_t i = IndexOf(attr);
    if (i < attrs_.size()) attrs_.erase(attrs_.begin() + i);
  }

  /// All locally-defined attributes, sorted by attribute oid.
  const std::vector<std::pair<Oid, AttrValue>>& attrs() const {
    return attrs_;
  }

  std::string ToString() const;

 private:
  /// Position of `attr` in `attrs_`, or `attrs_.size()` when absent.
  size_t IndexOf(const Oid& attr) const {
    size_t i = 0;
    while (i < attrs_.size() && !(attrs_[i].first == attr)) ++i;
    return i;
  }
  /// The value slot of `attr`, inserted (empty) at its sorted position
  /// when missing.
  AttrValue& Slot(const Oid& attr);

  Oid id_;
  std::vector<std::pair<Oid, AttrValue>> attrs_;
};

}  // namespace xsql

#endif  // XSQL_STORE_OBJECT_H_
