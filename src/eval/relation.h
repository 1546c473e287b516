#ifndef XSQL_EVAL_RELATION_H_
#define XSQL_EVAL_RELATION_H_

#include <string>
#include <unordered_set>
#include <vector>

#include "common/status.h"
#include "oid/oid.h"

namespace xsql {

/// A query answer: a set of tuples of oids (§3.3). Duplicates are not
/// allowed (the paper's queries return relations with set semantics);
/// insertion order of first occurrences is preserved for stable output.
class Relation {
 public:
  Relation() = default;
  explicit Relation(std::vector<std::string> columns)
      : columns_(std::move(columns)) {}

  const std::vector<std::string>& columns() const { return columns_; }
  size_t arity() const { return columns_.size(); }
  const std::vector<std::vector<Oid>>& rows() const { return rows_; }
  size_t size() const { return rows_.size(); }
  bool empty() const { return rows_.empty(); }

  /// Adds a row unless already present. Row width must match arity.
  Status AddRow(std::vector<Oid> row);

  bool ContainsRow(const std::vector<Oid>& row) const {
    return index_.contains(row);
  }

  /// Single-column relations used as sets (subquery results, §5).
  Result<OidSet> AsSet() const;

  /// SQL set operators on computed relations (§3.3). Arity must agree.
  static Result<Relation> Union(const Relation& a, const Relation& b);
  static Result<Relation> Minus(const Relation& a, const Relation& b);
  static Result<Relation> Intersect(const Relation& a, const Relation& b);

  std::string ToString() const;

 private:
  std::vector<std::string> columns_;
  struct RowHash {
    size_t operator()(const std::vector<Oid>& row) const {
      size_t h = row.size();
      for (const Oid& oid : row) h = HashCombine(h, oid.Hash());
      return h;
    }
  };

  std::vector<std::vector<Oid>> rows_;
  /// Deduplicates only; `rows_` keeps the output order.
  std::unordered_set<std::vector<Oid>, RowHash> index_;
};

}  // namespace xsql

#endif  // XSQL_EVAL_RELATION_H_
