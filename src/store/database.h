#ifndef XSQL_STORE_DATABASE_H_
#define XSQL_STORE_DATABASE_H_

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/status.h"
#include "oid/oid.h"
#include "store/class_graph.h"
#include "store/counted_oid_set.h"
#include "store/cow.h"
#include "store/method.h"
#include "store/object.h"
#include "store/signature.h"
#include "store/undo_log.h"

namespace xsql {

class Database;
namespace storage {
Status LoadSnapshot(const std::string& text, Database* db);
}  // namespace storage

/// The object-oriented database of §2: objects, classes, signatures,
/// methods and the instance-of / IS-A relationships, with the system
/// catalogue folded into the class hierarchy.
///
/// Key semantics implemented here rather than in sub-stores:
///  * literals (`20`, `'austin'`, `true`, `nil`) are instances of the
///    builtin classes Numeral/String/Boolean/Nil without registration;
///  * attribute lookup applies *behavioral inheritance of defaults*:
///    a value undefined on an object is inherited from the nearest
///    class-object (classes are objects and can carry default values);
///  * class extents for the literal classes use the *active domain*
///    (every oid occurring in the database), the standard logic-database
///    reading of an otherwise infinite extent. The domain is maintained,
///    not recomputed: a reference count per oid occurrence changes with
///    each write, and the member set changes only when a count crosses
///    zero;
///  * attribute names used in data are auto-registered as method-objects
///    (instances of `Method`) so that method variables can range over
///    them — the paper's schema-browsing feature.
///
/// Dispatch reads maintained facts and never walks the IS-A graph: the
/// class graph keeps each class's closure (strict ancestors with their
/// minimum distances), the method registry indexes definitions by name,
/// and the database counts, per attribute, the class-objects that store
/// it. A path step whose attribute no class-object stores and no class
/// defines costs the stored-attribute probe alone.
///
/// MVCC support: `Fork()` produces a structurally-shared copy in O(schema
/// + shard-count). The per-oid state (object records and each oid's
/// direct classes) is sharded by oid hash and each shard is held by
/// shared_ptr, as are the class-graph nodes and the chunks of the class
/// extents and of the active domain. The database owns the one COW
/// epoch and passes it to every write; each write clones the piece it
/// touches under the one rule in store/cow.h (CowWritable). A fork
/// taken under the writer latch and never mutated again is an immutable
/// snapshot that concurrent readers can use with no synchronization at
/// all: no member is computed lazily, so a reader never writes.
class Database {
 public:
  Database();

  Database(const Database&) = delete;
  Database& operator=(const Database&) = delete;

  /// A structurally-shared copy for MVCC: shares every object shard,
  /// class-graph node, and extent and domain chunk with `this`; copies the
  /// (schema-sized) signature and method stores, definitions and default
  /// counts. The fork starts a new COW epoch, so its first write to any
  /// shared piece clones it.
  ///
  /// If *this* database keeps mutating after the fork (the writer path:
  /// master forks a snapshot, then executes the next statement), the
  /// caller must call `BeginNewEpoch()` on it after forking — otherwise
  /// in-place writes would reach shards the fork shares.
  std::unique_ptr<Database> Fork() const;

  /// Starts a new COW epoch on this side of a fork (writer-path master).
  void BeginNewEpoch();

  // ---- Schema -------------------------------------------------------

  /// Declares a class. If `supers` is empty the class is made a direct
  /// subclass of `Object` (classes of individuals live under Object).
  Status DeclareClass(const Oid& cls, const std::vector<Oid>& supers = {});

  /// Adds an IS-A edge between existing or new classes.
  Status AddSubclass(const Oid& sub, const Oid& super);

  /// Declares signature `attr => result` (or `=>>`) on `cls` and
  /// registers `attr` as a method-object.
  Status DeclareAttribute(const Oid& cls, const Oid& attr, const Oid& result,
                          bool set_valued);

  /// Declares a full method signature on `cls`.
  Status DeclareSignature(const Oid& cls, Signature sig);

  /// Defines/overrides a method body on a class (see MethodRegistry).
  Status DefineMethod(const Oid& cls, const Oid& method, int arity,
                      std::shared_ptr<const MethodBody> body);

  /// Explicit multiple-inheritance conflict resolution [MEY88].
  Status ResolveMethodConflict(const Oid& cls, const Oid& method,
                               const Oid& from_super);

  // ---- Data ---------------------------------------------------------

  /// Creates an object with the given direct classes. The object record
  /// is created on first use even for class-objects.
  Status NewObject(const Oid& oid, const std::vector<Oid>& classes);

  /// Adds `oid` to further classes.
  Status AddInstanceOf(const Oid& oid, const Oid& cls);

  /// Sets a scalar attribute; registers `attr` as a method-object.
  Status SetScalar(const Oid& obj, const Oid& attr, const Oid& value);

  /// Sets a set-valued attribute wholesale.
  Status SetSet(const Oid& obj, const Oid& attr, OidSet values);

  /// Adds an element to a set-valued attribute.
  Status AddToSet(const Oid& obj, const Oid& attr, const Oid& value);

  /// Removes an attribute from an object (making it undefined there).
  Status ClearAttribute(const Oid& obj, const Oid& attr);

  /// Removes `oid` from the direct extent of `cls` (undoable).
  Status RemoveInstanceOf(const Oid& oid, const Oid& cls);

  // ---- Definitions --------------------------------------------------

  /// Records an executed definition statement (CREATE VIEW or a
  /// method-defining ALTER CLASS): view and query-method bodies are
  /// executable, not data, so snapshots carry these statements and
  /// recovery re-executes them in order. Undoable.
  void AddDefinition(std::string text);
  const std::vector<std::string>& definitions() const { return definitions_; }
  /// Empties and returns the list (not undoable; for recovery).
  std::vector<std::string> TakeDefinitions() {
    return std::exchange(definitions_, {});
  }

  // ---- Statement atomicity ------------------------------------------

  /// Starts recording inverse mutations into `log`. Every public mutator
  /// called until EndUndo records enough to restore the pre-statement
  /// state; see UndoLog for the protocol. `log` must outlive recording.
  void BeginUndo(UndoLog* log) { undo_ = log; }
  void EndUndo() { undo_ = nullptr; }
  bool undo_active() const { return undo_ != nullptr; }

  /// Applies `log` in reverse. Recording is suspended while rolling back
  /// (inverses must not record further inverses or trip fault checks).
  void Rollback(UndoLog* log);

  /// Records `inverse` while a log is active, for state a statement
  /// mutates outside the database (the view catalog). Same protocol as
  /// the built-in inverses: record first, tolerate a missing mutation.
  void RecordUndo(UndoLog::Action inverse) {
    if (undo_ != nullptr) undo_->Record(std::move(inverse));
  }

  // ---- Lookup -------------------------------------------------------

  bool HasObject(const Oid& oid) const {
    const size_t hash = oid.Hash();
    return objects_[hash % kObjectShards]->objects.contains(
        HashedOid{oid, hash});
  }
  const Object* GetObject(const Oid& oid) const {
    const size_t hash = oid.Hash();
    const ObjectShard& shard = *objects_[hash % kObjectShards];
    auto it = shard.objects.find(HashedOid{oid, hash});
    return it == shard.objects.end() ? nullptr : &it->second;
  }

  /// The value of `attr` on `obj`, applying default-value inheritance
  /// from class-objects (nearest class wins; among incomparable nearest
  /// providers the smallest class oid wins — a deterministic stand-in
  /// for the schema-level conflict resolution the paper requires).
  /// Returns nullptr when the attribute is undefined (a null, not an
  /// error — see §2 on undefined vs. inapplicable).
  const AttrValue* GetAttribute(const Oid& obj, const Oid& attr) const;

  /// True if `oid` denotes an instance of `cls`, including literal
  /// instances of the builtin classes and upward IS-A closure.
  bool IsInstanceOf(const Oid& oid, const Oid& cls) const;

  /// The classes `obj` directly belongs to, in the order it joined them.
  std::vector<Oid> DirectClassesOf(const Oid& obj) const;

  /// All classes `obj` belongs to (direct classes + their ancestors).
  OidSet AllClassesOf(const Oid& obj) const;

  /// Per attribute, the number of class-objects that store it — the
  /// providers of inherited default values. Absent attributes count 0.
  const std::unordered_map<Oid, uint32_t, OidHash>& default_counts() const {
    return default_counts_;
  }

  /// Every (object, direct class) pair — snapshot/export support.
  std::vector<std::pair<Oid, Oid>> AllInstancePairs() const;

  /// Deep extent of `cls`. For Numeral/String/Boolean this is the set of
  /// matching literals in the active domain.
  OidSet Extent(const Oid& cls) const;

  /// Every oid that occurs in the database: object ids, attribute names,
  /// attribute values and declared classes (recursing into id-term
  /// arguments is not needed — a term occurrence is itself a domain
  /// element). O(1): the mutators maintain it. A caller that holds the
  /// domain across evaluation that may write (a view materialized
  /// mid-enumeration) takes a copy: copies share chunks and never change.
  const CountedOidSet& ActiveDomain() const { return domain_; }

  // ---- Components ---------------------------------------------------

  const ClassGraph& graph() const { return graph_; }
  const SignatureStore& signatures() const { return signatures_; }
  SignatureStore& mutable_signatures() { return signatures_; }
  const MethodRegistry& methods() const { return methods_; }
  MethodRegistry& mutable_methods() { return methods_; }

  /// Number of data objects (including class-objects).
  size_t object_count() const {
    size_t n = 0;
    for (const auto& shard : objects_) n += shard->objects.size();
    return n;
  }

  /// Visits every data object (including class-objects), unordered:
  /// `fn(const Oid&, const Object&)`. Replaces the old `objects()`
  /// accessor — the map is sharded for copy-on-write and no longer
  /// exists as one container.
  template <typename Fn>
  void ForEachObject(Fn&& fn) const {
    for (const auto& shard : objects_) {
      for (const auto& [oid, object] : shard->objects) fn(oid, object);
    }
  }

  /// Monotone counter bumped on every mutation; used for cache
  /// invalidation by higher layers.
  uint64_t version() const { return version_; }

 private:
  /// The snapshot loader restores the class graph and the instance-of
  /// pairs verbatim through the raw primitives, then recounts once.
  friend Status storage::LoadSnapshot(const std::string& text, Database* db);

  /// Per-oid sharding: one shared_ptr'd shard per hash slice, so a write
  /// in a fresh COW epoch copies ~1/kObjectShards of the per-oid state
  /// (a couple of oids at generator scale 8, a few dozen at scale 128),
  /// while a fork copies kObjectShards pointers. An oid may have direct
  /// classes without an object record (method-objects, builtin classes).
  static constexpr size_t kObjectShards = 1024;
  /// A shard's (oid, direct class) pairs, sorted by oid, each oid's
  /// classes in the order it joined them. A COW piece of its own inside
  /// the shard, so a write to an object record copies only its pointer.
  struct Memberships {
    std::vector<std::pair<Oid, Oid>> pairs;
    uint64_t epoch = 0;
    size_t ApproxBytes() const {
      return sizeof(Memberships) + pairs.size() * sizeof(pairs[0]);
    }
  };
  /// An oid with its hash, so a lookup hashes once: the shard index and
  /// the shard's map both read it.
  struct HashedOid {
    const Oid& oid;
    size_t hash;
  };
  struct ShardHash {
    using is_transparent = void;
    size_t operator()(const Oid& oid) const { return oid.Hash(); }
    size_t operator()(const HashedOid& key) const { return key.hash; }
  };
  struct ShardEq {
    using is_transparent = void;
    bool operator()(const Oid& a, const Oid& b) const { return a == b; }
    bool operator()(const HashedOid& key, const Oid& oid) const {
      return key.oid == oid;
    }
    bool operator()(const Oid& oid, const HashedOid& key) const {
      return key.oid == oid;
    }
  };
  struct ObjectShard {
    std::unordered_map<Oid, Object, ShardHash, ShardEq> objects;
    std::shared_ptr<Memberships> memberships = std::make_shared<Memberships>();
    uint64_t epoch = 0;
    size_t ApproxBytes() const {
      return sizeof(ObjectShard) +
             objects.size() * (sizeof(Oid) + sizeof(Object));
    }
  };

  static size_t ShardIndexOf(const Oid& oid) {
    return oid.Hash() % kObjectShards;
  }

  struct ForkTag {};
  Database(ForkTag, const Database& src);

  ObjectShard& WritableShard(const Oid& oid) {
    return CowWritable(objects_[ShardIndexOf(oid)], cow_epoch_);
  }
  const std::vector<std::pair<Oid, Oid>>& MembershipsOf(
      const Oid& oid) const {
    return objects_[ShardIndexOf(oid)]->memberships->pairs;
  }
  std::vector<std::pair<Oid, Oid>>& WritableMemberships(const Oid& oid) {
    return CowWritable(WritableShard(oid).memberships, cow_epoch_).pairs;
  }
  Object* FindMutableRaw(const Oid& oid);
  bool HasDirectClass(const Oid& obj, const Oid& cls) const;

  // Counted raw primitives. Every change to an object record, an
  // attribute or the class list — forward or undo inverse — goes
  // through these, so the occurrence counts behind the active domain
  // and the default counts never drift and Rollback needs no inverses
  // specific to either. They neither record undo nor Touch() (Rollback
  // touches once at the end), and each tolerates an absent target.
  void CreateObjectRaw(const Oid& oid);
  /// Drops the object and the counts of its own attributes.
  void EraseObjectRaw(const Oid& oid);
  void PutAttrRaw(const Oid& obj, const Oid& attr, AttrValue value);
  Status AddToSetRaw(const Oid& obj, const Oid& attr, const Oid& value);
  void RemoveAttrRaw(const Oid& obj, const Oid& attr);
  void DeclareClassRaw(const Oid& cls);
  void RemoveClassRaw(const Oid& cls);
  // The instance-of pair (`obj`, `cls`) on both of its sides: `obj`'s
  // class list and `cls`'s direct extent. Not counted: a membership is
  // not a domain occurrence.
  void AddInstanceRaw(const Oid& obj, const Oid& cls);
  void RemoveInstanceRaw(const Oid& obj, const Oid& cls);

  /// Rebuilds the domain and the default counts from scratch (after a
  /// raw snapshot load).
  void Recount();
  /// Adds `delta` to the default count of `attr` (resp. of each
  /// attribute `obj` stores) when `obj` is a class-object.
  void CountDefault(const Oid& obj, const Oid& attr, int delta);
  void CountDefaults(const Oid& obj, int delta);

  Status RegisterMethodObject(const Oid& attr);
  /// Creates the object record if absent, recording its erasure.
  void EnsureObject(const Oid& oid);
  void Touch() { ++version_; }

  /// Fault-injection hook for the mutation domain (see common/fault.h).
  static Status FaultCheck(const char* site);

  // Undo-recording wrappers around the graph primitives: they save the
  // inverse (only when the forward call would actually change state)
  // before delegating.
  Status GraphDeclareClass(const Oid& cls);
  Status GraphAddSubclass(const Oid& sub, const Oid& super);
  void GraphAddInstance(const Oid& obj, const Oid& cls);

  /// Saves the current value of (`obj`, `attr`) into the undo log before
  /// an attribute write/clear.
  void RecordUndoAttr(const Oid& obj, const Oid& attr);

  ClassGraph graph_;
  SignatureStore signatures_;
  MethodRegistry methods_;
  std::array<std::shared_ptr<ObjectShard>, kObjectShards> objects_;
  std::vector<std::string> definitions_;
  UndoLog* undo_ = nullptr;
  uint64_t version_ = 0;
  /// The store's one copy-on-write epoch, passed to every write: pieces
  /// stamped with an older epoch may be shared with a fork and are
  /// cloned before a write (see CowWritable).
  uint64_t cow_epoch_ = 0;

  /// The active domain, counted per occurrence.
  CountedOidSet domain_;
  /// See default_counts(); an attribute's entry is erased at 0.
  std::unordered_map<Oid, uint32_t, OidHash> default_counts_;
};

}  // namespace xsql

#endif  // XSQL_STORE_DATABASE_H_
