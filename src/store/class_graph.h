#ifndef XSQL_STORE_CLASS_GRAPH_H_
#define XSQL_STORE_CLASS_GRAPH_H_

#include <algorithm>
#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "oid/oid.h"
#include "store/counted_oid_set.h"

namespace xsql {

/// The IS-A hierarchy and the class extents of §2.
///
/// Classes are identified by their class-oids (atoms like `Person`). The
/// IS-A (subclass) relation is a DAG — `AddSubclass` rejects edges that
/// would create a cycle. Each class keeps its direct extent; the deep
/// extent closes it upward along IS-A (an instance of `Employee` is an
/// instance of `Person`), exactly the paper's containment rule, while
/// the converse (extensional equality does not imply IS-A) is naturally
/// respected because IS-A is only what was declared. The per-object side
/// of instance-of — each oid's direct classes — lives with the object in
/// Database, which keeps the two sides in step.
///
/// Storage is copy-on-write to support MVCC snapshots: each class node
/// (IS-A edges + direct extent) is held by shared_ptr, and the direct
/// extent is a chunked CountedOidSet, so copying a ClassGraph shares
/// every node and chunk. Every mutator takes the writer's COW epoch and
/// clones a piece before writing it under the store's one COW rule
/// (CowWritable in store/cow.h); an insert clones one node and one chunk.
///
/// Each node also keeps its *closure*: its strict ancestors with their
/// minimum IS-A distances. The edge mutators recompute the closures
/// below the changed edge, so the subclass tests, `Ancestors` and the
/// "nearest class wins" rule of behavioral inheritance read it with a
/// binary search or a scan and never walk the graph.
class ClassGraph {
 public:
  /// A strict ancestor and its minimum IS-A distance (a direct
  /// superclass is at distance 1).
  struct Ancestor {
    Oid cls;
    uint32_t distance;
  };

  /// Registers `cls` as a class with no superclasses (yet).
  /// Idempotent for already-declared classes.
  Status DeclareClass(const Oid& cls, uint64_t epoch);

  /// Declares `sub` IS-A `super`. Both are auto-declared if new.
  /// Fails with InvalidArgument if the edge would create a cycle.
  Status AddSubclass(const Oid& sub, const Oid& super, uint64_t epoch);

  /// Adds `obj` to the direct extent of `cls` (declared on demand).
  void AddToExtent(const Oid& cls, const Oid& obj, uint64_t epoch);

  /// Removes `obj` from the direct extent of `cls`; no-op when absent.
  void RemoveFromExtent(const Oid& cls, const Oid& obj, uint64_t epoch);

  /// Undo primitive: unregisters a class declared by mistake, unlinking
  /// its IS-A edges. No-op for undeclared classes. Rollback has already
  /// undone the class's memberships, which were recorded after it.
  void RemoveClass(const Oid& cls, uint64_t epoch);

  /// Undo primitive: removes a single IS-A edge. No-op when absent.
  void RemoveSubclassEdge(const Oid& sub, const Oid& super, uint64_t epoch);

  bool IsClass(const Oid& oid) const;

  /// The paper's `subclassOf` is *strict*: `C subclassOf C` is false.
  bool IsStrictSubclass(const Oid& sub, const Oid& super) const;
  /// Reflexive subclass test.
  bool IsSubclassEq(const Oid& sub, const Oid& super) const;

  /// All declared classes, in declaration order.
  const std::vector<Oid>& classes() const { return class_list_; }

  std::vector<Oid> DirectSuperclasses(const Oid& cls) const;
  std::vector<Oid> DirectSubclasses(const Oid& cls) const;

  /// All strict ancestors (resp. descendants) of `cls`.
  OidSet Ancestors(const Oid& cls) const;
  OidSet Descendants(const Oid& cls) const;

  /// The maintained closure of `cls`: its strict ancestors sorted by oid,
  /// each with its minimum distance. Empty for an undeclared class.
  const std::vector<Ancestor>& Closure(const Oid& cls) const;

  /// Behavioral inheritance's "nearest class wins" (§2): the classes
  /// satisfying `provides` at the minimum IS-A distance from `classes`,
  /// each of which is at distance 0 from itself. Sorted by oid, without
  /// duplicates; empty when no class in `classes` or above them provides.
  /// Default values and method resolution both dispatch through this.
  template <typename Provides>
  std::vector<Oid> NearestProviders(const std::vector<Oid>& classes,
                                    Provides&& provides) const {
    uint32_t best = UINT32_MAX;
    std::vector<Oid> out;
    auto consider = [&](const Oid& cls, uint32_t distance) {
      if (distance > best || !provides(cls)) return;
      if (distance < best) {
        best = distance;
        out.clear();
      }
      out.push_back(cls);
    };
    for (const Oid& cls : classes) {
      consider(cls, 0);
      for (const Ancestor& a : Closure(cls)) consider(a.cls, a.distance);
    }
    std::sort(out.begin(), out.end());
    out.erase(std::unique(out.begin(), out.end()), out.end());
    return out;
  }

  /// Direct instances only.
  const CountedOidSet& DirectExtent(const Oid& cls) const;

  /// Deep extent: direct instances of `cls` and of every descendant.
  OidSet Extent(const Oid& cls) const;

  /// True if some declared class is a (non-strict) subclass of every class
  /// in `classes`. Used for the §6.2 range-emptiness test: a range with no
  /// common subclass (e.g. {Person, Company}) can never contain an oid.
  bool HaveCommonSubclass(const std::vector<Oid>& classes) const;

  /// §6.2 subrange test: a range `R` (set of classes) is a subrange of `T`
  /// if every oid that could belong to all of `R` is an instance of `T`;
  /// statically, every common (non-strict) subclass of `R` must be a
  /// subclass of `T`. Vacuously true when `R` has no common subclass.
  bool IsSubrange(const std::vector<Oid>& range, const Oid& of_class) const;

 private:
  struct Node {
    std::vector<Oid> supers;
    std::vector<Oid> subs;
    std::vector<Ancestor> closure;
    CountedOidSet direct_extent;
    uint64_t epoch = 0;
    size_t ApproxBytes() const {
      return sizeof(Node) + (supers.size() + subs.size()) * sizeof(Oid) +
             closure.size() * sizeof(Ancestor);
    }
  };

  const Node* Find(const Oid& cls) const;
  /// The node writable in `epoch` (see CowWritable); nullptr if absent.
  Node* FindMutable(const Oid& cls, uint64_t epoch);
  /// Recomputes the closure of `cls` from the IS-A edges.
  void RecomputeClosure(const Oid& cls, uint64_t epoch);
  /// After an edge change at `sub`: the closures of `sub` and of the
  /// classes below it change, and no others. The set below `sub` does
  /// not change with an edge above it, so the old closures find it.
  void RecomputeClosuresFrom(const Oid& sub, uint64_t epoch);

  std::unordered_map<Oid, std::shared_ptr<Node>, OidHash> nodes_;
  std::vector<Oid> class_list_;
};

}  // namespace xsql

#endif  // XSQL_STORE_CLASS_GRAPH_H_
