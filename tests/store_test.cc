#include <gtest/gtest.h>

#include <map>

#include "common/rng.h"
#include "domain_oracle.h"
#include "store/catalog.h"
#include "store/counted_oid_set.h"
#include "store/database.h"

namespace xsql {
namespace {

Oid A(const char* s) { return Oid::Atom(s); }

using testing_oracle::DispatchMatchesWalk;
using testing_oracle::DomainMatchesRecompute;

TEST(ClassGraphTest, DeclareAndSubclass) {
  ClassGraph graph;
  ASSERT_TRUE(graph.AddSubclass(A("Employee"), A("Person"), 0).ok());
  EXPECT_TRUE(graph.IsClass(A("Employee")));
  EXPECT_TRUE(graph.IsClass(A("Person")));
  EXPECT_TRUE(graph.IsStrictSubclass(A("Employee"), A("Person")));
  EXPECT_FALSE(graph.IsStrictSubclass(A("Person"), A("Employee")));
  // subclassOf is strict (§3.1).
  EXPECT_FALSE(graph.IsStrictSubclass(A("Person"), A("Person")));
  EXPECT_TRUE(graph.IsSubclassEq(A("Person"), A("Person")));
}

TEST(ClassGraphTest, TransitiveSubclass) {
  ClassGraph graph;
  ASSERT_TRUE(graph.AddSubclass(A("Turbo"), A("FourStroke"), 0).ok());
  ASSERT_TRUE(graph.AddSubclass(A("FourStroke"), A("Piston"), 0).ok());
  EXPECT_TRUE(graph.IsStrictSubclass(A("Turbo"), A("Piston")));
  OidSet ancestors = graph.Ancestors(A("Turbo"));
  EXPECT_TRUE(ancestors.Contains(A("FourStroke")));
  EXPECT_TRUE(ancestors.Contains(A("Piston")));
  EXPECT_EQ(ancestors.size(), 2u);
  OidSet descendants = graph.Descendants(A("Piston"));
  EXPECT_TRUE(descendants.Contains(A("Turbo")));
}

// The closure keeps the *minimum* distance over every IS-A path, and
// follows edge removals below and above a class.
TEST(ClassGraphTest, ClosureKeepsMinimumDistances) {
  ClassGraph graph;
  ASSERT_TRUE(graph.AddSubclass(A("B"), A("A"), 0).ok());
  ASSERT_TRUE(graph.AddSubclass(A("C"), A("B"), 0).ok());
  ASSERT_TRUE(graph.AddSubclass(A("D"), A("C"), 0).ok());
  auto distance_of = [&](const char* cls, const char* ancestor) -> int {
    for (const ClassGraph::Ancestor& a : graph.Closure(A(cls))) {
      if (a.cls == A(ancestor)) return static_cast<int>(a.distance);
    }
    return -1;
  };
  EXPECT_EQ(distance_of("D", "A"), 3);
  ASSERT_TRUE(graph.AddSubclass(A("D"), A("A"), 0).ok());  // a shortcut
  EXPECT_EQ(distance_of("D", "A"), 1);
  EXPECT_EQ(distance_of("D", "B"), 2);
  // An edge added above C reaches D's closure too.
  ASSERT_TRUE(graph.AddSubclass(A("B"), A("Z"), 0).ok());
  EXPECT_EQ(distance_of("D", "Z"), 3);
  EXPECT_EQ(distance_of("C", "Z"), 2);
  graph.RemoveSubclassEdge(A("D"), A("A"), 0);
  EXPECT_EQ(distance_of("D", "A"), 3);
  graph.RemoveClass(A("B"), 0);
  EXPECT_TRUE(graph.Closure(A("C")).empty());
  EXPECT_EQ(graph.Closure(A("D")).size(), 1u);  // C alone
  EXPECT_FALSE(graph.IsStrictSubclass(A("D"), A("A")));
  EXPECT_TRUE(graph.IsStrictSubclass(A("D"), A("C")));
  EXPECT_EQ(graph.Ancestors(A("D")), OidSet({A("C")}));
}

TEST(ClassGraphTest, RejectsCycles) {
  ClassGraph graph;
  ASSERT_TRUE(graph.AddSubclass(A("B"), A("A"), 0).ok());
  ASSERT_TRUE(graph.AddSubclass(A("C"), A("B"), 0).ok());
  EXPECT_FALSE(graph.AddSubclass(A("A"), A("C"), 0).ok());
  EXPECT_FALSE(graph.AddSubclass(A("A"), A("A"), 0).ok());
}

TEST(ClassGraphTest, CommonSubclassAndSubrange) {
  ClassGraph graph;
  ASSERT_TRUE(graph.AddSubclass(A("Employee"), A("Person"), 0).ok());
  ASSERT_TRUE(graph.AddSubclass(A("Company"), A("Org"), 0).ok());
  // {Person, Company}: no common subclass (the §6.2 emptiness example).
  EXPECT_FALSE(graph.HaveCommonSubclass({A("Person"), A("Company")}));
  EXPECT_TRUE(graph.HaveCommonSubclass({A("Person"), A("Employee")}));
  EXPECT_TRUE(graph.HaveCommonSubclass({A("Person")}));
  // Subrange: {Employee} is a subrange of Person.
  EXPECT_TRUE(graph.IsSubrange({A("Employee")}, A("Person")));
  EXPECT_FALSE(graph.IsSubrange({A("Person")}, A("Employee")));
  // Vacuous subrange when the range is empty.
  EXPECT_TRUE(graph.IsSubrange({A("Person"), A("Company")}, A("Employee")));
}

TEST(ObjectTest, ScalarAndSetAttributes) {
  Object obj(A("john"));
  obj.SetScalar(A("Age"), Oid::Int(30));
  ASSERT_NE(obj.Get(A("Age")), nullptr);
  EXPECT_EQ(obj.Get(A("Age"))->scalar(), Oid::Int(30));
  EXPECT_EQ(obj.Get(A("Missing")), nullptr);
  ASSERT_TRUE(obj.AddToSet(A("Kids"), A("kid1")).ok());
  ASSERT_TRUE(obj.AddToSet(A("Kids"), A("kid2")).ok());
  EXPECT_EQ(obj.Get(A("Kids"))->set().size(), 2u);
  // Adding to a scalar attribute is an error.
  EXPECT_FALSE(obj.AddToSet(A("Age"), Oid::Int(1)).ok());
  obj.Remove(A("Age"));
  EXPECT_EQ(obj.Get(A("Age")), nullptr);
}

TEST(ObjectTest, AttrValueAsSet) {
  AttrValue scalar = AttrValue::Scalar(Oid::Int(1));
  EXPECT_EQ(scalar.AsSet().size(), 1u);
  AttrValue set = AttrValue::Set(OidSet({Oid::Int(1), Oid::Int(2)}));
  EXPECT_EQ(set.AsSet().size(), 2u);
}

TEST(SignatureTest, StructuralInheritanceAccumulates) {
  ClassGraph graph;
  ASSERT_TRUE(graph.AddSubclass(A("Workstudy"), A("Student"), 0).ok());
  ASSERT_TRUE(graph.AddSubclass(A("Workstudy"), A("Employee"), 0).ok());
  SignatureStore sigs;
  // The paper's earns example: two incomparable signatures.
  Signature earns_student{A("earns"), {A("course")}, A("grade"), false};
  Signature earns_employee{A("earns"), {A("project")}, A("pay"), false};
  ASSERT_TRUE(sigs.Add(A("Student"), earns_student).ok());
  ASSERT_TRUE(sigs.Add(A("Employee"), earns_employee).ok());
  // Workstudy inherits both signatures (covariance, §6.1) — never
  // overridden, only accumulated.
  auto inherited = sigs.Inherited(graph, A("Workstudy"), A("earns"));
  EXPECT_EQ(inherited.size(), 2u);
  EXPECT_EQ(sigs.Declared(A("Workstudy"), A("earns")).size(), 0u);
  EXPECT_TRUE(
      sigs.VisibleMethods(graph, A("Workstudy")).Contains(A("earns")));
}

class CountBody : public MethodBody {
 public:
  explicit CountBody(std::string tag) : tag_(std::move(tag)) {}
  int arity() const override { return 0; }
  bool set_valued() const override { return false; }
  std::string kind() const override { return tag_; }

 private:
  std::string tag_;
};

TEST(MethodRegistryTest, OverridingPicksNearestDefinition) {
  ClassGraph graph;
  ASSERT_TRUE(graph.AddSubclass(A("Employee"), A("Person"), 0).ok());
  MethodRegistry registry;
  ASSERT_TRUE(
      registry.Define(A("Person"), A("greet"), 0,
                      std::make_shared<CountBody>("person")).ok());
  ASSERT_TRUE(
      registry.Define(A("Employee"), A("greet"), 0,
                      std::make_shared<CountBody>("employee")).ok());
  auto via_employee = registry.Resolve(graph, {A("Employee")}, A("greet"), 0);
  ASSERT_TRUE(via_employee.ok());
  EXPECT_EQ(via_employee->defining_class, A("Employee"));
  auto via_person = registry.Resolve(graph, {A("Person")}, A("greet"), 0);
  ASSERT_TRUE(via_person.ok());
  EXPECT_EQ(via_person->defining_class, A("Person"));
}

TEST(MethodRegistryTest, ConflictRequiresExplicitResolution) {
  ClassGraph graph;
  ASSERT_TRUE(graph.AddSubclass(A("Workstudy"), A("Student"), 0).ok());
  ASSERT_TRUE(graph.AddSubclass(A("Workstudy"), A("Employee"), 0).ok());
  MethodRegistry registry;
  ASSERT_TRUE(registry.Define(A("Student"), A("id"), 0,
                              std::make_shared<CountBody>("s")).ok());
  ASSERT_TRUE(registry.Define(A("Employee"), A("id"), 0,
                              std::make_shared<CountBody>("e")).ok());
  auto conflict = registry.Resolve(graph, {A("Workstudy")}, A("id"), 0);
  EXPECT_FALSE(conflict.ok());
  EXPECT_EQ(conflict.status().code(), StatusCode::kRuntimeError);
  // [MEY88]: the schema resolves the conflict explicitly.
  ASSERT_TRUE(
      registry.ResolveConflict(A("Workstudy"), A("id"), A("Student")).ok());
  auto resolved = registry.Resolve(graph, {A("Workstudy")}, A("id"), 0);
  ASSERT_TRUE(resolved.ok());
  EXPECT_EQ(resolved->defining_class, A("Student"));
}

TEST(MethodRegistryTest, NotFoundWhenUndefined) {
  ClassGraph graph;
  MethodRegistry registry;
  auto missing = registry.Resolve(graph, {A("Person")}, A("greet"), 0);
  EXPECT_FALSE(missing.ok());
  EXPECT_EQ(missing.status().code(), StatusCode::kNotFound);
}

TEST(DatabaseTest, BuiltinsInstalled) {
  Database db;
  EXPECT_TRUE(db.graph().IsClass(builtin::Object()));
  EXPECT_TRUE(db.graph().IsStrictSubclass(builtin::Numeral(),
                                          builtin::Object()));
  // Classes are objects: instances of the meta-class Class.
  EXPECT_TRUE(db.IsInstanceOf(builtin::Numeral(), builtin::MetaClass()));
}

TEST(DatabaseTest, InstancesAndExtents) {
  Database db;
  ASSERT_TRUE(db.AddSubclass(A("Employee"), A("Person")).ok());
  ASSERT_TRUE(db.NewObject(A("john"), {A("Employee")}).ok());
  ASSERT_TRUE(db.NewObject(A("mary"), {A("Person")}).ok());
  // Membership closes upward, not downward.
  EXPECT_TRUE(db.IsInstanceOf(A("john"), A("Person")));
  EXPECT_FALSE(db.IsInstanceOf(A("mary"), A("Employee")));
  EXPECT_EQ(db.graph().DirectExtent(A("Person")).size(), 1u);
  EXPECT_EQ(db.Extent(A("Person")).size(), 2u);
}

TEST(DatabaseTest, RemoveInstance) {
  Database db;
  ASSERT_TRUE(db.DeclareClass(A("C")).ok());
  ASSERT_TRUE(db.NewObject(A("x"), {A("C")}).ok());
  EXPECT_TRUE(db.IsInstanceOf(A("x"), A("C")));
  ASSERT_TRUE(db.RemoveInstanceOf(A("x"), A("C")).ok());
  EXPECT_FALSE(db.IsInstanceOf(A("x"), A("C")));
  EXPECT_TRUE(db.DirectClassesOf(A("x")).empty());
  EXPECT_TRUE(db.Extent(A("C")).empty());
}

TEST(DatabaseTest, LiteralsAreInstancesOfBuiltins) {
  Database db;
  EXPECT_TRUE(db.IsInstanceOf(Oid::Int(20), builtin::Numeral()));
  EXPECT_TRUE(db.IsInstanceOf(Oid::Int(20), builtin::Object()));
  EXPECT_TRUE(db.IsInstanceOf(Oid::String("x"), builtin::String()));
  EXPECT_TRUE(db.IsInstanceOf(Oid::Bool(true), builtin::Boolean()));
  EXPECT_TRUE(db.IsInstanceOf(Oid::Nil(), builtin::NilClass()));
  EXPECT_FALSE(db.IsInstanceOf(Oid::Int(20), builtin::String()));
}

TEST(DatabaseTest, AttributeNamesBecomeMethodObjects) {
  Database db;
  ASSERT_TRUE(db.DeclareClass(A("Person")).ok());
  ASSERT_TRUE(db.NewObject(A("john"), {A("Person")}).ok());
  ASSERT_TRUE(db.SetScalar(A("john"), A("Age"), Oid::Int(30)).ok());
  EXPECT_TRUE(db.IsInstanceOf(A("Age"), builtin::MetaMethod()));
}

TEST(DatabaseTest, DefaultAttributeInheritanceFromClassObjects) {
  Database db;
  ASSERT_TRUE(db.DeclareClass(A("Person")).ok());
  ASSERT_TRUE(db.DeclareClass(A("Employee"), {A("Person")}).ok());
  // Classes are objects: give Person a default LegCount.
  ASSERT_TRUE(db.SetScalar(A("Person"), A("LegCount"), Oid::Int(2)).ok());
  ASSERT_TRUE(db.NewObject(A("john"), {A("Employee")}).ok());
  const AttrValue* inherited = db.GetAttribute(A("john"), A("LegCount"));
  ASSERT_NE(inherited, nullptr);
  EXPECT_EQ(inherited->scalar(), Oid::Int(2));
  // A local value overrides the default.
  ASSERT_TRUE(db.SetScalar(A("john"), A("LegCount"), Oid::Int(1)).ok());
  EXPECT_EQ(db.GetAttribute(A("john"), A("LegCount"))->scalar(), Oid::Int(1));
  // The nearest class wins over a farther one.
  ASSERT_TRUE(db.SetScalar(A("Employee"), A("Badge"), Oid::Int(7)).ok());
  ASSERT_TRUE(db.SetScalar(A("Person"), A("Badge"), Oid::Int(9)).ok());
  EXPECT_EQ(db.GetAttribute(A("john"), A("Badge"))->scalar(), Oid::Int(7));
}

// Under multiple inheritance the nearest class-objects storing a
// default win; among incomparable nearest ones, the smallest class oid.
TEST(DatabaseTest, DefaultUnderMultipleInheritanceTieGoesToSmallestOid) {
  Database db;
  ASSERT_TRUE(db.DeclareClass(A("Person")).ok());
  ASSERT_TRUE(db.DeclareClass(A("Student"), {A("Person")}).ok());
  ASSERT_TRUE(db.DeclareClass(A("Employee"), {A("Person")}).ok());
  ASSERT_TRUE(
      db.DeclareClass(A("Workstudy"), {A("Student"), A("Employee")}).ok());
  ASSERT_TRUE(db.NewObject(A("ws"), {A("Workstudy")}).ok());
  ASSERT_TRUE(db.NewObject(A("both"), {A("Student"), A("Employee")}).ok());
  EXPECT_EQ(db.GetAttribute(A("ws"), A("Desk")), nullptr);
  ASSERT_TRUE(db.SetScalar(A("Person"), A("Desk"), Oid::Int(1)).ok());
  EXPECT_EQ(db.GetAttribute(A("ws"), A("Desk"))->scalar(), Oid::Int(1));
  ASSERT_TRUE(db.SetScalar(A("Student"), A("Desk"), Oid::Int(2)).ok());
  ASSERT_TRUE(db.SetScalar(A("Employee"), A("Desk"), Oid::Int(3)).ok());
  EXPECT_EQ(db.default_counts().at(A("Desk")), 3u);
  // Employee and Student are both at distance 1 (resp. 0 for `both`):
  // Employee < Student.
  EXPECT_EQ(db.GetAttribute(A("ws"), A("Desk"))->scalar(), Oid::Int(3));
  EXPECT_EQ(db.GetAttribute(A("both"), A("Desk"))->scalar(), Oid::Int(3));
  ASSERT_TRUE(db.ClearAttribute(A("Employee"), A("Desk")).ok());
  EXPECT_EQ(db.GetAttribute(A("ws"), A("Desk"))->scalar(), Oid::Int(2));
  ASSERT_TRUE(db.SetScalar(A("Workstudy"), A("Desk"), Oid::Int(4)).ok());
  EXPECT_EQ(db.GetAttribute(A("ws"), A("Desk"))->scalar(), Oid::Int(4));
  // `both` is no Workstudy: that default is not on its paths.
  EXPECT_EQ(db.GetAttribute(A("both"), A("Desk"))->scalar(), Oid::Int(2));
  EXPECT_EQ(db.default_counts().at(A("Desk")), 3u);
  EXPECT_TRUE(DispatchMatchesWalk(db));
  EXPECT_TRUE(DomainMatchesRecompute(db));
}

// A method defined on two incomparable nearest classes is a [MEY88]
// conflict until the schema resolves it; a nearer definition overrides
// both, and a farther one never takes part.
TEST(DatabaseTest, MethodConflictUnderMultipleInheritance) {
  Database db;
  ASSERT_TRUE(db.DeclareClass(A("Person")).ok());
  ASSERT_TRUE(db.DeclareClass(A("Student"), {A("Person")}).ok());
  ASSERT_TRUE(db.DeclareClass(A("Employee"), {A("Person")}).ok());
  ASSERT_TRUE(
      db.DeclareClass(A("Workstudy"), {A("Student"), A("Employee")}).ok());
  for (const char* cls : {"Person", "Student", "Employee"}) {
    ASSERT_TRUE(db.DefineMethod(A(cls), A("id"), 0,
                                std::make_shared<CountBody>(cls))
                    .ok());
  }
  EXPECT_EQ(db.methods().DefinitionsOf(A("id")).size(), 3u);
  EXPECT_TRUE(db.methods().DefinitionsOf(A("Age")).empty());
  auto resolve = [&](const char* cls) {
    return db.methods().Resolve(db.graph(), {A(cls)}, A("id"), 0);
  };
  auto conflict = resolve("Workstudy");
  ASSERT_FALSE(conflict.ok());
  EXPECT_EQ(conflict.status().code(), StatusCode::kRuntimeError);
  EXPECT_NE(conflict.status().message().find("{Employee, Student}"),
            std::string::npos)
      << conflict.status().ToString();
  EXPECT_EQ(resolve("Student")->defining_class, A("Student"));
  // Wrong arity: nothing visible.
  EXPECT_EQ(db.methods().Resolve(db.graph(), {A("Workstudy")}, A("id"), 1)
                .status()
                .code(),
            StatusCode::kNotFound);
  ASSERT_TRUE(
      db.ResolveMethodConflict(A("Workstudy"), A("id"), A("Employee")).ok());
  EXPECT_EQ(resolve("Workstudy")->defining_class, A("Employee"));
  ASSERT_TRUE(db.DefineMethod(A("Workstudy"), A("id"), 0,
                              std::make_shared<CountBody>("ws"))
                  .ok());
  EXPECT_EQ(resolve("Workstudy")->body->kind(), "ws");
  EXPECT_EQ(db.methods().DefinitionsOf(A("id")).size(), 4u);
  EXPECT_TRUE(DispatchMatchesWalk(db));
}

// A statement that declares a class and adds an IS-A edge after a fork
// rolls back to the pre-statement closures, default counts and
// definitions; the fork never sees any of it.
TEST(DatabaseTest, RollbackOfSubclassAndDeclareAfterForkRestoresDispatch) {
  Database db;
  ASSERT_TRUE(db.DeclareClass(A("Person")).ok());
  ASSERT_TRUE(db.DeclareClass(A("Employee"), {A("Person")}).ok());
  ASSERT_TRUE(db.SetScalar(A("Person"), A("Legs"), Oid::Int(2)).ok());
  ASSERT_TRUE(db.NewObject(A("john"), {A("Employee")}).ok());
  const OidSet employee_before = db.graph().Ancestors(A("Employee"));
  std::unique_ptr<Database> fork = db.Fork();
  db.BeginNewEpoch();

  UndoLog log;
  db.BeginUndo(&log);
  ASSERT_TRUE(db.DeclareClass(A("Manager"), {A("Employee")}).ok());
  ASSERT_TRUE(db.AddSubclass(A("Employee"), A("Taxpayer")).ok());
  ASSERT_TRUE(db.SetScalar(A("Taxpayer"), A("Legs"), Oid::Int(3)).ok());
  ASSERT_TRUE(db.SetScalar(A("Manager"), A("Badge"), Oid::Int(7)).ok());
  ASSERT_TRUE(db.DefineMethod(A("Taxpayer"), A("rate"), 0,
                              std::make_shared<CountBody>("t"))
                  .ok());
  db.EndUndo();
  EXPECT_TRUE(db.graph().IsStrictSubclass(A("Manager"), A("Taxpayer")));
  EXPECT_TRUE(db.graph().IsStrictSubclass(A("Employee"), A("Taxpayer")));
  // Person and Taxpayer are both direct superclasses of Employee: the
  // smaller oid, Person, wins.
  EXPECT_EQ(db.GetAttribute(A("john"), A("Legs"))->scalar(), Oid::Int(2));
  EXPECT_EQ(db.default_counts().at(A("Legs")), 2u);
  EXPECT_TRUE(DispatchMatchesWalk(db));
  EXPECT_FALSE(fork->graph().IsClass(A("Manager")));
  EXPECT_FALSE(fork->graph().IsStrictSubclass(A("Employee"), A("Taxpayer")));
  EXPECT_EQ(fork->default_counts().at(A("Legs")), 1u);
  EXPECT_TRUE(fork->methods().DefinitionsOf(A("rate")).empty());
  EXPECT_TRUE(DispatchMatchesWalk(*fork));

  db.Rollback(&log);
  EXPECT_FALSE(db.graph().IsClass(A("Manager")));
  EXPECT_FALSE(db.graph().IsClass(A("Taxpayer")));
  EXPECT_EQ(db.graph().Ancestors(A("Employee")), employee_before);
  EXPECT_EQ(db.default_counts().at(A("Legs")), 1u);
  EXPECT_FALSE(db.default_counts().contains(A("Badge")));
  EXPECT_TRUE(db.methods().DefinitionsOf(A("rate")).empty());
  EXPECT_EQ(db.GetAttribute(A("john"), A("Legs"))->scalar(), Oid::Int(2));
  EXPECT_TRUE(DispatchMatchesWalk(db));
  EXPECT_TRUE(DomainMatchesRecompute(db));
  EXPECT_TRUE(DispatchMatchesWalk(*fork));
}

TEST(DatabaseTest, ExtentOfLiteralClassesUsesActiveDomain) {
  Database db;
  ASSERT_TRUE(db.DeclareClass(A("Person")).ok());
  ASSERT_TRUE(db.NewObject(A("john"), {A("Person")}).ok());
  ASSERT_TRUE(db.SetScalar(A("john"), A("Age"), Oid::Int(30)).ok());
  ASSERT_TRUE(db.SetScalar(A("john"), A("Name"), Oid::String("john")).ok());
  OidSet numerals = db.Extent(builtin::Numeral());
  EXPECT_TRUE(numerals.Contains(Oid::Int(30)));
  OidSet strings = db.Extent(builtin::String());
  EXPECT_TRUE(strings.Contains(Oid::String("john")));
  // Object extent covers individuals, including literals in use.
  OidSet objects = db.Extent(builtin::Object());
  EXPECT_TRUE(objects.Contains(A("john")));
  EXPECT_TRUE(objects.Contains(Oid::Int(30)));
}

// CountedOidSet against a std::map of counts, across chunk splits and
// chunk removals, with copies taken mid-stream: a copy is a snapshot the
// original's later writes never reach, whether they clone a chunk for a
// new epoch or because the copy pins it.
TEST(CountedOidSetTest, MatchesReferenceCountsAndCopiesStayFrozen) {
  Rng rng(7);
  CountedOidSet set;
  std::map<Oid, int> reference;
  auto members = [](const std::map<Oid, int>& counts) {
    std::vector<Oid> out;
    for (const auto& [oid, n] : counts) out.push_back(oid);
    return OidSet(std::move(out));
  };
  std::vector<std::pair<CountedOidSet, OidSet>> copies;
  uint64_t epoch = 0;
  for (int step = 0; step < 6000; ++step) {
    const Oid oid = step % 3 == 0
                        ? Oid::Atom("a" + std::to_string(rng.Uniform(400)))
                        : Oid::Int(rng.Range(0, 700));
    if (rng.Percent(60)) {
      set.Add(oid, epoch);
      ++reference[oid];
    } else {
      set.Remove(oid, epoch);
      auto it = reference.find(oid);
      if (it != reference.end() && --it->second == 0) reference.erase(it);
    }
    if (step % 500 == 0) {
      copies.emplace_back(set, members(reference));
      if (rng.Percent(50)) ++epoch;  // as after a fork
    }
  }
  EXPECT_GT(set.size(), 2 * 128u);  // several chunks
  EXPECT_EQ(set.ToOidSet(), members(reference));
  EXPECT_EQ(set.size(), reference.size());
  for (const auto& [oid, n] : reference) EXPECT_TRUE(set.Contains(oid));
  EXPECT_FALSE(set.Contains(A("absent")));
  for (const auto& [copy, frozen] : copies) {
    EXPECT_EQ(copy.ToOidSet(), frozen);
    EXPECT_EQ(copy.size(), frozen.size());
  }
  // Draining every occurrence empties the set.
  for (const auto& [oid, n] : reference) {
    for (int i = 0; i < n; ++i) set.Remove(oid, epoch);
  }
  EXPECT_TRUE(set.empty());
  EXPECT_TRUE(set.ToOidSet().empty());
}

// A value stays in the domain while any occurrence remains.
TEST(DatabaseTest, DomainDropsAValueWithItsLastOccurrence) {
  Database db;
  ASSERT_TRUE(db.DeclareClass(A("Person")).ok());
  ASSERT_TRUE(db.NewObject(A("john"), {A("Person")}).ok());
  ASSERT_TRUE(db.NewObject(A("mary"), {A("Person")}).ok());
  ASSERT_TRUE(db.SetScalar(A("john"), A("Age"), Oid::Int(30)).ok());
  ASSERT_TRUE(db.SetSet(A("mary"), A("Ages"), OidSet({Oid::Int(30)})).ok());
  ASSERT_TRUE(db.SetScalar(A("john"), A("Age"), Oid::Int(31)).ok());
  EXPECT_TRUE(db.ActiveDomain().Contains(Oid::Int(30)));
  EXPECT_TRUE(db.ActiveDomain().Contains(Oid::Int(31)));
  ASSERT_TRUE(db.ClearAttribute(A("mary"), A("Ages")).ok());
  EXPECT_FALSE(db.ActiveDomain().Contains(Oid::Int(30)));
  EXPECT_FALSE(db.ActiveDomain().Contains(A("Ages")));
  EXPECT_TRUE(db.ActiveDomain().Contains(A("Age")));
  EXPECT_TRUE(db.ActiveDomain().Contains(A("Person")));
}

TEST(DatabaseTest, VersionBumpsOnMutation) {
  Database db;
  uint64_t v0 = db.version();
  ASSERT_TRUE(db.DeclareClass(A("Person")).ok());
  EXPECT_GT(db.version(), v0);
}

TEST(CatalogTest, SchemaBrowsingHelpers) {
  Database db;
  ASSERT_TRUE(db.DeclareClass(A("Person")).ok());
  ASSERT_TRUE(db.DeclareAttribute(A("Person"), A("Name"), builtin::String(),
                                  false).ok());
  ASSERT_TRUE(db.DeclareClass(A("Employee"), {A("Person")}).ok());
  ASSERT_TRUE(db.DeclareAttribute(A("Employee"), A("Salary"),
                                  builtin::Numeral(), false).ok());
  OidSet attrs = catalog::AttributesOf(db, A("Employee"));
  EXPECT_TRUE(attrs.Contains(A("Name")));  // structurally inherited
  EXPECT_TRUE(attrs.Contains(A("Salary")));
  auto classes = catalog::ClassesDeclaring(db, A("Name"));
  ASSERT_EQ(classes.size(), 1u);
  EXPECT_EQ(classes[0], A("Person"));
  EXPECT_TRUE(catalog::ClassUniverse(db).Contains(A("Employee")));
  EXPECT_TRUE(catalog::MethodNameUniverse(db).Contains(A("Salary")));
  EXPECT_FALSE(catalog::DumpSchema(db).empty());
}

}  // namespace
}  // namespace xsql
