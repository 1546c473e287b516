#ifndef XSQL_OID_OID_H_
#define XSQL_OID_OID_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace xsql {

/// The syntactic category of a logical object id (§2, "Objects and object
/// identity").
///
/// Logical oids are *terms in the query language*: atoms such as
/// `mary123`, literals such as `20` or `'Ford Motor Co.'` (a number or a
/// string is the logical id of the abstract object with the usual
/// properties of that number/string), the special object `nil` (§5), and
/// functional *id-terms* `f(t1,...,tn)` built from id-functions [KW89],
/// which the language uses to mint ids for view/query-result objects (§4).
enum class OidKind : uint8_t {
  kNil = 0,
  kBool,
  kInt,
  kReal,
  kString,
  kAtom,
  kTerm,
};

/// An immutable logical object id.
///
/// `Oid` is a small value type: cheap to copy (strings and term bodies are
/// shared), totally ordered (kind-major, then value) so it can key sorted
/// containers, and hashable. Identity of the *object* is identity of the
/// logical id; two distinct ids may denote the same conceptual entity
/// (the paper explicitly permits `_mary65 == secretary(dept77)` at the
/// conceptual level), but the store — like the paper's semantics — works
/// with logical ids.
class Oid {
 public:
  /// Default-constructs `nil`.
  Oid() : kind_(OidKind::kNil), int_(0), real_(0) {}

  static Oid Nil() { return Oid(); }
  static Oid Bool(bool b);
  static Oid Int(int64_t v);
  static Oid Real(double v);
  static Oid String(std::string s);
  static Oid Atom(std::string name);
  /// Functional id-term `fn(args...)`. `fn` is the id-function symbol.
  static Oid Term(std::string fn, std::vector<Oid> args);

  OidKind kind() const { return kind_; }
  bool is_nil() const { return kind_ == OidKind::kNil; }
  bool is_bool() const { return kind_ == OidKind::kBool; }
  bool is_int() const { return kind_ == OidKind::kInt; }
  bool is_real() const { return kind_ == OidKind::kReal; }
  bool is_string() const { return kind_ == OidKind::kString; }
  bool is_atom() const { return kind_ == OidKind::kAtom; }
  bool is_term() const { return kind_ == OidKind::kTerm; }
  /// Int or Real.
  bool is_numeric() const { return is_int() || is_real(); }

  bool bool_value() const { return int_ != 0; }
  int64_t int_value() const { return int_; }
  double real_value() const { return real_; }
  /// Numeric value as double (valid when is_numeric()).
  double numeric_value() const { return is_int() ? static_cast<double>(int_) : real_; }
  /// String payload (valid for kString and kAtom).
  const std::string& str() const { return *str_; }
  /// Function symbol of an id-term (valid for kTerm).
  const std::string& term_fn() const;
  /// Argument list of an id-term (valid for kTerm).
  const std::vector<Oid>& term_args() const;

  /// Structural equality of logical ids.
  bool operator==(const Oid& other) const;
  bool operator!=(const Oid& other) const { return !(*this == other); }
  /// Total order: kind-major, then value; for use in sorted containers.
  bool operator<(const Oid& other) const { return Compare(other) < 0; }
  /// Three-way structural comparison (-1/0/+1).
  int Compare(const Oid& other) const;

  size_t Hash() const;

  /// Renders the id the way the paper writes it: atoms bare, strings in
  /// single quotes, id-terms as `f(a,b)`.
  std::string ToString() const;

 private:
  struct TermRep {
    std::string fn;
    std::vector<Oid> args;
  };

  OidKind kind_;
  int64_t int_;  // also stores bool
  double real_;
  std::shared_ptr<const std::string> str_;
  std::shared_ptr<const TermRep> term_;
};

/// Hash functor for unordered containers keyed by Oid.
struct OidHash {
  size_t operator()(const Oid& oid) const { return oid.Hash(); }
};

/// A set of oids as a sorted, deduplicated vector.
///
/// Attribute values, path-expression values, and query answers are all
/// oid sets; sorted vectors keep them cache-friendly and make set algebra
/// (union/intersection/difference, §3.2) linear merges.
class OidSet {
 public:
  OidSet() = default;
  explicit OidSet(std::vector<Oid> elems);
  /// Adopts `elems` as is: the caller guarantees it is sorted and free
  /// of duplicates (a merge of sorted runs), so no O(n) re-check runs.
  static OidSet FromSorted(std::vector<Oid> elems);

  void Insert(const Oid& oid);
  bool Contains(const Oid& oid) const;
  bool empty() const { return elems_.empty(); }
  size_t size() const { return elems_.size(); }
  const std::vector<Oid>& elems() const { return elems_; }
  auto begin() const { return elems_.begin(); }
  auto end() const { return elems_.end(); }

  bool operator==(const OidSet& other) const { return elems_ == other.elems_; }

  /// True if every element of this set is in `other` (subsetEq).
  bool SubsetOf(const OidSet& other) const;

  static OidSet Union(const OidSet& a, const OidSet& b);
  static OidSet Intersect(const OidSet& a, const OidSet& b);
  static OidSet Difference(const OidSet& a, const OidSet& b);

  std::string ToString() const;

 private:
  std::vector<Oid> elems_;
};

}  // namespace xsql

#endif  // XSQL_OID_OID_H_
