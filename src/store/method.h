#ifndef XSQL_STORE_METHOD_H_
#define XSQL_STORE_METHOD_H_

#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/status.h"
#include "oid/oid.h"
#include "store/class_graph.h"

namespace xsql {

/// Abstract body of a method implementation (§2 "Methods", §5).
///
/// The store does not know how to *run* a method — that is the
/// evaluator's job (query-defined bodies carry an AST, native bodies a
/// C++ function). Keeping the body abstract here avoids a dependency
/// cycle between the store substrate and the query layer while the
/// registry still owns behavioral-inheritance resolution.
class MethodBody {
 public:
  virtual ~MethodBody() = default;

  /// Number of explicit arguments (the receiver is the implicit 0th
  /// argument and is not counted, matching the paper's signatures).
  virtual int arity() const = 0;

  /// Whether invocations return a set (`=>>`) or a scalar (`=>`).
  virtual bool set_valued() const = 0;

  /// Human-readable tag for diagnostics ("native", "query", ...).
  virtual std::string kind() const = 0;
};

/// Per-class method definitions with behavioral inheritance (§2, §6.1).
///
/// A definition of method M on class C is inherited by every subclass of
/// C, and *overridden* by a redefinition in a subclass. Under multiple
/// inheritance, when two incomparable superclasses both supply a
/// definition, we follow the paper's adoption of [MEY88]: the schema must
/// resolve the conflict explicitly (`ResolveConflict`); otherwise
/// resolution reports a runtime error. Structural inheritance of
/// *signatures* is unaffected (handled by SignatureStore).
///
/// Definitions are indexed by method name, so a name no class defines —
/// every stored attribute, in practice — is answered by one hash probe.
class MethodRegistry {
 public:
  /// A direct definition of a method on a class.
  struct Def {
    Oid cls;
    int arity;
    std::shared_ptr<const MethodBody> body;
  };

  /// Defines (or redefines) `method`/`arity` on `cls`.
  Status Define(const Oid& cls, const Oid& method, int arity,
                std::shared_ptr<const MethodBody> body);

  /// Declares that class `cls` inherits `method` from superclass
  /// `from_super` when multiple superclasses define it.
  Status ResolveConflict(const Oid& cls, const Oid& method,
                         const Oid& from_super);

  /// True if `method`/`arity` is defined directly on `cls`.
  bool DefinedOn(const Oid& cls, const Oid& method, int arity) const;

  /// Resolution result: the class whose definition applies plus the body.
  struct Resolution {
    Oid defining_class;
    std::shared_ptr<const MethodBody> body;
  };

  /// Resolves the definition of `method`/`arity` seen by an object whose
  /// direct classes are `classes`: the definitions nearest in the IS-A
  /// closure win (overriding). NotFound if no definition is visible;
  /// RuntimeError on an unresolved multiple-inheritance conflict.
  Result<Resolution> Resolve(const ClassGraph& graph,
                             const std::vector<Oid>& classes,
                             const Oid& method, int arity) const;

  /// The direct definition of `method`/`arity` on `cls`, or null.
  /// Undo support: captured before a Define overwrites it.
  std::shared_ptr<const MethodBody> Definition(const Oid& cls,
                                               const Oid& method,
                                               int arity) const;

  /// Undo primitive: reinstates `body` as the direct definition (erases
  /// the definition when `body` is null).
  void Restore(const Oid& cls, const Oid& method, int arity,
               std::shared_ptr<const MethodBody> body);

  /// The conflict-resolution choice recorded for (`cls`, `method`), if any.
  std::optional<Oid> ConflictChoice(const Oid& cls, const Oid& method) const;

  /// Undo primitive: reinstates (or erases, when nullopt) the
  /// conflict-resolution choice for (`cls`, `method`).
  void RestoreConflictChoice(const Oid& cls, const Oid& method,
                             std::optional<Oid> from_super);

  /// Every direct definition of `method`, on any class at any arity;
  /// empty exactly when no class defines the name.
  const std::vector<Def>& DefinitionsOf(const Oid& method) const;

  /// Visits every direct definition: `fn(const Oid& method, const Def&)`.
  template <typename Fn>
  void ForEachDefinition(Fn&& fn) const {
    for (const auto& [method, defs] : defs_) {
      for (const Def& def : defs) fn(method, def);
    }
  }

 private:
  struct Key {
    Oid cls;
    Oid method;
    bool operator==(const Key& other) const {
      return cls == other.cls && method == other.method;
    }
  };
  struct KeyHash {
    size_t operator()(const Key& k) const {
      return k.cls.Hash() * 31 + k.method.Hash();
    }
  };

  /// Method name -> its direct definitions. A name's entry is erased
  /// with its last definition.
  std::unordered_map<Oid, std::vector<Def>, OidHash> defs_;
  // (cls, method) -> superclass chosen for conflict resolution.
  std::unordered_map<Key, Oid, KeyHash> conflict_choice_;
};

}  // namespace xsql

#endif  // XSQL_STORE_METHOD_H_
