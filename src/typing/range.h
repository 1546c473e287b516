#ifndef XSQL_TYPING_RANGE_H_
#define XSQL_TYPING_RANGE_H_

#include <map>
#include <string>
#include <vector>

#include "ast/ast.h"
#include "store/database.h"

namespace xsql {

/// The range A(X) of a variable under a type assignment (§6.2): the set
/// of classes every binding of X must belong to. Always contains
/// `Object` (each individual variable is restricted to Object).
class VarRange {
 public:
  VarRange();

  /// Adds a class constraint (deduplicating).
  void Add(const Oid& cls);

  const std::vector<Oid>& classes() const { return classes_; }

  /// An oid is *within* the range if it is an instance of every class.
  bool Within(const Database& db, const Oid& oid) const;

  /// §6.2 emptiness: no oid could ever satisfy all classes — decided
  /// statically as "the classes have no common subclass".
  bool Empty(const ClassGraph& graph) const;

  /// §6.2 subrange test against a single class.
  bool SubrangeOf(const ClassGraph& graph, const Oid& cls) const;

  /// The candidate oids for a variable with this range: the extent of
  /// the most restrictive intersection — computed as the intersection of
  /// the class extents, skipping any class that has a proper subclass in
  /// the range. This is Theorem 6.1(2)'s optimization handle.
  OidSet CandidateOids(const Database& db) const;

  std::string ToString() const;

 private:
  std::vector<Oid> classes_;
};

/// Ranges for all individual variables of a query.
using RangeMap = std::map<Variable, VarRange>;

}  // namespace xsql

#endif  // XSQL_TYPING_RANGE_H_
