#include "oid/oid.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <functional>

namespace xsql {

Oid Oid::Bool(bool b) {
  Oid o;
  o.kind_ = OidKind::kBool;
  o.int_ = b ? 1 : 0;
  return o;
}

Oid Oid::Int(int64_t v) {
  Oid o;
  o.kind_ = OidKind::kInt;
  o.int_ = v;
  return o;
}

Oid Oid::Real(double v) {
  Oid o;
  o.kind_ = OidKind::kReal;
  o.real_ = v;
  return o;
}

Oid Oid::String(std::string s) {
  Oid o;
  o.kind_ = OidKind::kString;
  o.str_ = std::make_shared<const std::string>(std::move(s));
  return o;
}

Oid Oid::Atom(std::string name) {
  Oid o;
  o.kind_ = OidKind::kAtom;
  o.str_ = std::make_shared<const std::string>(std::move(name));
  return o;
}

Oid Oid::Term(std::string fn, std::vector<Oid> args) {
  Oid o;
  o.kind_ = OidKind::kTerm;
  o.term_ = std::make_shared<const TermRep>(TermRep{std::move(fn), std::move(args)});
  return o;
}

const std::string& Oid::term_fn() const { return term_->fn; }
const std::vector<Oid>& Oid::term_args() const { return term_->args; }

bool Oid::operator==(const Oid& other) const { return Compare(other) == 0; }

int Oid::Compare(const Oid& other) const {
  if (kind_ != other.kind_) return kind_ < other.kind_ ? -1 : 1;
  switch (kind_) {
    case OidKind::kNil:
      return 0;
    case OidKind::kBool:
    case OidKind::kInt:
      return int_ < other.int_ ? -1 : (int_ > other.int_ ? 1 : 0);
    case OidKind::kReal: {
      // Compare is a TOTAL order (OidSet dedup and sorting depend on
      // it), so NaN cannot be "unordered" here the way CompareOids
      // reports it: a bare IEEE compare returns 0 for NaN vs anything,
      // which used to merge NaN with arbitrary reals on set insertion.
      // Order NaN after every ordered real instead.
      const bool a_nan = std::isnan(real_);
      const bool b_nan = std::isnan(other.real_);
      if (a_nan || b_nan) return a_nan == b_nan ? 0 : (a_nan ? 1 : -1);
      return real_ < other.real_ ? -1 : (real_ > other.real_ ? 1 : 0);
    }
    case OidKind::kString:
    case OidKind::kAtom: {
      int c = str_->compare(*other.str_);
      return c < 0 ? -1 : (c > 0 ? 1 : 0);
    }
    case OidKind::kTerm: {
      int c = term_->fn.compare(other.term_->fn);
      if (c != 0) return c < 0 ? -1 : 1;
      const auto& a = term_->args;
      const auto& b = other.term_->args;
      for (size_t i = 0; i < a.size() && i < b.size(); ++i) {
        int e = a[i].Compare(b[i]);
        if (e != 0) return e;
      }
      return a.size() < b.size() ? -1 : (a.size() > b.size() ? 1 : 0);
    }
  }
  return 0;
}

size_t Oid::Hash() const {
  size_t h = static_cast<size_t>(kind_) * 0x9E3779B97F4A7C15ULL;
  auto mix = [&h](size_t v) {
    h ^= v + 0x9E3779B97F4A7C15ULL + (h << 6) + (h >> 2);
  };
  switch (kind_) {
    case OidKind::kNil:
      break;
    case OidKind::kBool:
    case OidKind::kInt:
      mix(std::hash<int64_t>{}(int_));
      break;
    case OidKind::kReal:
      // Must agree with Compare: every NaN is one value whatever its
      // sign and payload, and -0.0 equals +0.0.
      if (std::isnan(real_)) {
        mix(0x7FF8000000000000ULL);
      } else if (real_ == 0.0) {
        mix(0);
      } else {
        mix(std::hash<double>{}(real_));
      }
      break;
    case OidKind::kString:
    case OidKind::kAtom:
      mix(std::hash<std::string>{}(*str_));
      break;
    case OidKind::kTerm:
      mix(std::hash<std::string>{}(term_->fn));
      for (const Oid& a : term_->args) mix(a.Hash());
      break;
  }
  return h;
}

std::string Oid::ToString() const {
  switch (kind_) {
    case OidKind::kNil:
      return "nil";
    case OidKind::kBool:
      return int_ ? "true" : "false";
    case OidKind::kInt:
      return std::to_string(int_);
    case OidKind::kReal: {
      char buf[32];
      std::snprintf(buf, sizeof(buf), "%g", real_);
      return buf;
    }
    case OidKind::kString:
      return "'" + *str_ + "'";
    case OidKind::kAtom:
      return *str_;
    case OidKind::kTerm: {
      std::string out = term_->fn;
      out += '(';
      for (size_t i = 0; i < term_->args.size(); ++i) {
        if (i > 0) out += ',';
        out += term_->args[i].ToString();
      }
      out += ')';
      return out;
    }
  }
  return "?";
}

OidSet::OidSet(std::vector<Oid> elems) : elems_(std::move(elems)) {
  if (!std::is_sorted(elems_.begin(), elems_.end())) {
    std::sort(elems_.begin(), elems_.end());
  }
  const size_t before = elems_.size();
  elems_.erase(std::unique(elems_.begin(), elems_.end()), elems_.end());
  // A set built from a multiset should not keep the multiset's buffer.
  if (elems_.size() < before / 2) elems_.shrink_to_fit();
}

OidSet OidSet::FromSorted(std::vector<Oid> elems) {
  OidSet out;
  out.elems_ = std::move(elems);
  return out;
}

void OidSet::Insert(const Oid& oid) {
  auto it = std::lower_bound(elems_.begin(), elems_.end(), oid);
  if (it == elems_.end() || !(*it == oid)) elems_.insert(it, oid);
}

bool OidSet::Contains(const Oid& oid) const {
  return std::binary_search(elems_.begin(), elems_.end(), oid);
}

bool OidSet::SubsetOf(const OidSet& other) const {
  return std::includes(other.elems_.begin(), other.elems_.end(),
                       elems_.begin(), elems_.end());
}

OidSet OidSet::Union(const OidSet& a, const OidSet& b) {
  OidSet out;
  out.elems_.reserve(a.size() + b.size());
  std::set_union(a.elems_.begin(), a.elems_.end(), b.elems_.begin(),
                 b.elems_.end(), std::back_inserter(out.elems_));
  return out;
}

OidSet OidSet::Intersect(const OidSet& a, const OidSet& b) {
  OidSet out;
  std::set_intersection(a.elems_.begin(), a.elems_.end(), b.elems_.begin(),
                        b.elems_.end(), std::back_inserter(out.elems_));
  return out;
}

OidSet OidSet::Difference(const OidSet& a, const OidSet& b) {
  OidSet out;
  std::set_difference(a.elems_.begin(), a.elems_.end(), b.elems_.begin(),
                      b.elems_.end(), std::back_inserter(out.elems_));
  return out;
}

std::string OidSet::ToString() const {
  std::string out = "{";
  for (size_t i = 0; i < elems_.size(); ++i) {
    if (i > 0) out += ", ";
    out += elems_[i].ToString();
  }
  out += '}';
  return out;
}

}  // namespace xsql
