#ifndef XSQL_OID_OID_H_
#define XSQL_OID_OID_H_

#include <bit>
#include <cmath>
#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
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

namespace oid_internal {
struct InternedText;
struct InternedTerm;
}  // namespace oid_internal

/// Folds `v` into the running hash `h` (boost's hash_combine).
inline size_t HashCombine(size_t h, size_t v) {
  return h ^ (v + 0x9E3779B97F4A7C15ULL + (h << 6) + (h >> 2));
}

/// An immutable logical object id.
///
/// `Oid` is a kind plus an 8-byte payload — 16 bytes, trivially
/// copyable. Bool and Int keep the integer, Real the double; atoms and
/// strings point at a process-wide interned text entry, and id-terms at
/// a hash-consed term entry (see "Interning" in oid.cc). Entries are
/// append-only and never freed, so a pointer is stable for the life of
/// the process and reading an oid takes no lock. Pointers never leave
/// the process: snapshots, the WAL and the wire carry `ToString()` text.
///
/// Totally ordered (kind-major, then value; text lexicographically) so
/// it can key sorted containers, and hashable. Identity of the *object*
/// is identity of the logical id; two distinct ids may denote the same
/// conceptual entity (the paper explicitly permits
/// `_mary65 == secretary(dept77)` at the conceptual level), but the
/// store — like the paper's semantics — works with logical ids.
class Oid {
 public:
  /// Default-constructs `nil`.
  constexpr Oid() = default;

  static Oid Nil() { return Oid(); }
  static Oid Bool(bool b) { return Oid(OidKind::kBool, b ? 1 : 0); }
  static Oid Int(int64_t v) {
    return Oid(OidKind::kInt, static_cast<uint64_t>(v));
  }
  static Oid Real(double v) {
    return Oid(OidKind::kReal, std::bit_cast<uint64_t>(v));
  }
  static Oid String(std::string_view s);
  static Oid Atom(std::string_view name);
  /// Functional id-term `fn(args...)`. `fn` is the id-function symbol.
  static Oid Term(std::string_view fn, std::vector<Oid> args);

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

  bool bool_value() const { return bits_ != 0; }
  int64_t int_value() const { return static_cast<int64_t>(bits_); }
  double real_value() const { return std::bit_cast<double>(bits_); }
  /// Numeric value as double (valid when is_numeric()).
  double numeric_value() const {
    return is_int() ? static_cast<double>(int_value()) : real_value();
  }
  /// String payload (valid for kString and kAtom).
  inline const std::string& str() const;
  /// Function symbol of an id-term (valid for kTerm).
  inline const std::string& term_fn() const;
  /// Argument list of an id-term (valid for kTerm).
  inline const std::vector<Oid>& term_args() const;

  /// Structural equality of logical ids. Equal atoms, strings and
  /// id-terms share one entry, so this compares kind and payload bits;
  /// reals keep IEEE-style rules instead (every NaN is one value, and
  /// -0.0 equals +0.0), and so do id-terms with a real argument.
  inline bool operator==(const Oid& other) const;
  bool operator!=(const Oid& other) const { return !(*this == other); }
  /// Total order: kind-major, then value; for use in sorted containers.
  bool operator<(const Oid& other) const { return Compare(other) < 0; }
  /// Three-way structural comparison (-1/0/+1). Atoms and strings order
  /// by their text, id-terms by symbol then arguments.
  int Compare(const Oid& other) const;

  /// Agrees with `==`. Text and term hashes are computed once, when the
  /// entry is interned.
  inline size_t Hash() const;

  /// Renders the id the way the paper writes it: atoms bare, strings in
  /// single quotes, id-terms as `f(a,b)`.
  std::string ToString() const;

 private:
  friend class OidInterner;  // hash-conses terms by argument bits

  constexpr Oid(OidKind kind, uint64_t bits) : kind_(kind), bits_(bits) {}

  const oid_internal::InternedText* text() const {
    return reinterpret_cast<const oid_internal::InternedText*>(bits_);
  }
  const oid_internal::InternedTerm* term() const {
    return reinterpret_cast<const oid_internal::InternedTerm*>(bits_);
  }
  static bool RealsEqual(double a, double b) {
    return a == b || (std::isnan(a) && std::isnan(b));
  }
  static bool TermsEqual(const oid_internal::InternedTerm* a,
                         const oid_internal::InternedTerm* b);
  static int CompareTerms(const oid_internal::InternedTerm* a,
                          const oid_internal::InternedTerm* b);

  OidKind kind_ = OidKind::kNil;
  /// Bool/Int: the integer; Real: the double's bits; String/Atom: an
  /// `InternedText*`; Term: an `InternedTerm*`; Nil: 0.
  uint64_t bits_ = 0;
};

namespace oid_internal {

/// One interned atom/string text. An atom and a string with the same
/// text share the entry; the oid's kind tells them apart.
struct InternedText {
  std::string text;
  size_t hash;  // std::hash<std::string>{}(text)
};

/// One hash-consed id-term: the interned symbol, the arguments, and the
/// term's `Oid::Hash()`. Terms whose arguments are bitwise equal are the
/// same entry.
struct InternedTerm {
  const InternedText* fn;
  std::vector<Oid> args;
  size_t hash;
  /// Some argument, at any depth, is a real — the only way two distinct
  /// entries can still be `==` (a NaN payload or the sign of a zero).
  bool has_real;
};

}  // namespace oid_internal

const std::string& Oid::str() const { return text()->text; }
const std::string& Oid::term_fn() const { return term()->fn->text; }
const std::vector<Oid>& Oid::term_args() const { return term()->args; }

bool Oid::operator==(const Oid& other) const {
  if (kind_ != other.kind_) return false;
  if (bits_ == other.bits_) return true;
  switch (kind_) {
    case OidKind::kReal:
      return RealsEqual(real_value(), other.real_value());
    case OidKind::kTerm:
      return TermsEqual(term(), other.term());
    default:
      return false;
  }
}

size_t Oid::Hash() const {
  const size_t seed = static_cast<size_t>(kind_) * 0x9E3779B97F4A7C15ULL;
  switch (kind_) {
    case OidKind::kNil:
      return seed;
    case OidKind::kBool:
    case OidKind::kInt:
      return HashCombine(seed, std::hash<int64_t>{}(int_value()));
    case OidKind::kReal: {
      // Must agree with ==: every NaN is one value whatever its sign and
      // payload, and -0.0 equals +0.0.
      const double r = real_value();
      if (std::isnan(r)) return HashCombine(seed, 0x7FF8000000000000ULL);
      return HashCombine(seed, r == 0.0 ? 0 : std::hash<double>{}(r));
    }
    case OidKind::kString:
    case OidKind::kAtom:
      return HashCombine(seed, text()->hash);
    case OidKind::kTerm:
      return term()->hash;
  }
  return seed;
}

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
