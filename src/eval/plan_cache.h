#ifndef XSQL_EVAL_PLAN_CACHE_H_
#define XSQL_EVAL_PLAN_CACHE_H_

#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <utility>

#include "ast/ast.h"
#include "typing/planner.h"
#include "typing/type_checker.h"

namespace xsql {

/// Everything the session computes for a statement before evaluation:
/// the parsed and name-resolved AST, the typing verdict (with the
/// Theorem 6.1(2) range witness), and the cost-based plan. Immutable
/// once published to the cache — concurrent snapshot readers
/// execute straight off one instance.
struct PreparedPlan {
  Statement stmt;
  /// Typing and planning ran (simple queries only; UNION trees and DDL
  /// skip both).
  bool has_plan = false;
  TypingResult typing;
  QueryPlan plan;
  /// Database::version() the preparation read; any mutation since makes
  /// the entry stale (name resolution, ranges, extents all depend on
  /// the schema and the instance).
  uint64_t db_version = 0;
};

/// A shared LRU cache of prepared statements keyed by normalized
/// statement text + typing configuration. Hits skip parse, typecheck,
/// and planning entirely; entries are invalidated by version mismatch
/// at lookup time, so DDL or any mutation (which bumps
/// `Database::version()`) can never serve a stale preparation.
///
/// Thread safety: every operation takes the internal mutex. The server
/// shares one cache across all connection sessions; latch-free snapshot
/// readers hit it concurrently, writers run under the statement latch
/// and simply repopulate after bumping the version.
class PlanCache {
 public:
  /// `capacity` 0 disables the cache (lookups miss, inserts drop).
  explicit PlanCache(size_t capacity = 64) : capacity_(capacity) {}

  /// The fresh entry for `key` at `db_version`, or null. A version
  /// mismatch erases the entry (counted as an invalidation, not a
  /// miss-reuse); a hit refreshes LRU order.
  std::shared_ptr<const PreparedPlan> Lookup(const std::string& key,
                                             uint64_t db_version);

  /// Read-only probe: no LRU update, no metrics. For EXPLAIN surfacing.
  bool Contains(const std::string& key, uint64_t db_version) const;

  /// Publishes a preparation (replacing any entry under the same key);
  /// evicts the least-recently-used entry beyond capacity.
  void Insert(const std::string& key,
              std::shared_ptr<const PreparedPlan> prepared);

  void Clear();
  size_t size() const;
  size_t capacity() const { return capacity_; }

  /// Whitespace-normalized statement text: runs collapse to one space,
  /// ends trimmed. `SELECT  X ...` and `select` differ — normalization
  /// is deliberately conservative (no case folding: identifiers are
  /// case-sensitive).
  static std::string NormalizeText(const std::string& text);

 private:
  using Entry = std::pair<std::string, std::shared_ptr<const PreparedPlan>>;

  const size_t capacity_;
  mutable std::mutex mu_;
  std::list<Entry> lru_;  // front = most recent
  std::unordered_map<std::string, std::list<Entry>::iterator> by_key_;
};

}  // namespace xsql

#endif  // XSQL_EVAL_PLAN_CACHE_H_
