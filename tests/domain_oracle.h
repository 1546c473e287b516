// Test oracles for the store's maintained redundancy:
//  * the active domain: recomputes it from scratch — every object id,
//    attribute name and attribute value, plus every declared class — and
//    compares it with Database::ActiveDomain();
//  * the instance-of relation, which the store keeps twice (each oid's
//    direct-class list and each class's direct extent): both sides must
//    hold the same (object, class) pairs;
//  * the facts method dispatch reads instead of walking: each class's
//    closure (strict ancestors with minimum IS-A distances), the count
//    of class-objects storing each attribute, and the definitions
//    indexed under each method name.
#ifndef XSQL_TESTS_DOMAIN_ORACLE_H_
#define XSQL_TESTS_DOMAIN_ORACLE_H_

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "store/database.h"

namespace xsql {
namespace testing_oracle {

inline OidSet RecomputeActiveDomain(const Database& db) {
  std::vector<Oid> all;
  db.ForEachObject([&](const Oid& oid, const Object& object) {
    all.push_back(oid);
    for (const auto& [attr, value] : object.attrs()) {
      all.push_back(attr);
      if (value.set_valued()) {
        for (const Oid& v : value.set()) all.push_back(v);
      } else {
        all.push_back(value.scalar());
      }
    }
  });
  for (const Oid& cls : db.graph().classes()) all.push_back(cls);
  return OidSet(std::move(all));
}

/// Use as EXPECT_TRUE(DomainMatchesRecompute(db)) << context.
inline ::testing::AssertionResult DomainMatchesRecompute(const Database& db) {
  const OidSet maintained = db.ActiveDomain().ToOidSet();
  const OidSet expected = RecomputeActiveDomain(db);
  if (maintained.size() == db.ActiveDomain().size() &&
      maintained == expected) {
    return ::testing::AssertionSuccess();
  }
  return ::testing::AssertionFailure()
         << "maintained domain drifted: missing "
         << OidSet::Difference(expected, maintained).ToString()
         << ", extra " << OidSet::Difference(maintained, expected).ToString();
}

/// Use as EXPECT_TRUE(InstancesMatchExtents(db)) << context. A pair on
/// one side only, or listed twice, is reported.
inline ::testing::AssertionResult InstancesMatchExtents(const Database& db) {
  std::vector<std::pair<Oid, Oid>> by_object = db.AllInstancePairs();
  std::vector<std::pair<Oid, Oid>> by_class;
  for (const Oid& cls : db.graph().classes()) {
    db.graph().DirectExtent(cls).ForEach(
        [&](const Oid& obj) { by_class.emplace_back(obj, cls); });
  }
  std::sort(by_object.begin(), by_object.end());
  std::sort(by_class.begin(), by_class.end());
  if (by_object == by_class) return ::testing::AssertionSuccess();
  auto render = [](const std::vector<std::pair<Oid, Oid>>& pairs) {
    std::string out;
    for (const auto& [obj, cls] : pairs) {
      out += " (" + obj.ToString() + ", " + cls.ToString() + ")";
    }
    return out;
  };
  std::vector<std::pair<Oid, Oid>> only_objects;
  std::vector<std::pair<Oid, Oid>> only_extents;
  std::set_difference(by_object.begin(), by_object.end(), by_class.begin(),
                      by_class.end(), std::back_inserter(only_objects));
  std::set_difference(by_class.begin(), by_class.end(), by_object.begin(),
                      by_object.end(), std::back_inserter(only_extents));
  return ::testing::AssertionFailure()
         << "instance-of sides disagree: class lists only:"
         << render(only_objects) << "; extents only:" << render(only_extents);
}

/// Each class's strict ancestors with their minimum IS-A distances, by
/// breadth-first search over the direct-superclass edges.
inline std::map<Oid, uint32_t> WalkAncestors(const ClassGraph& graph,
                                             const Oid& cls) {
  std::map<Oid, uint32_t> distance;
  std::vector<Oid> frontier = graph.DirectSuperclasses(cls);
  for (uint32_t level = 1; !frontier.empty(); ++level) {
    std::vector<Oid> next;
    for (const Oid& c : frontier) {
      if (distance.count(c) > 0) continue;
      distance[c] = level;
      for (const Oid& s : graph.DirectSuperclasses(c)) next.push_back(s);
    }
    frontier = std::move(next);
  }
  return distance;
}

/// Use as EXPECT_TRUE(DispatchMatchesWalk(db)) << context. Recomputes
/// every class's closure by BFS, the per-attribute count of class-objects
/// storing it, and the number of distinct (class, arity) definitions per
/// method name, and compares each with what the store maintains.
inline ::testing::AssertionResult DispatchMatchesWalk(const Database& db) {
  const ClassGraph& graph = db.graph();
  for (const Oid& cls : graph.classes()) {
    std::map<Oid, uint32_t> maintained;
    const auto& closure = graph.Closure(cls);
    for (size_t i = 0; i < closure.size(); ++i) {
      if (i > 0 && !(closure[i - 1].cls < closure[i].cls)) {
        return ::testing::AssertionFailure()
               << "closure of " << cls.ToString() << " is not sorted by oid";
      }
      maintained[closure[i].cls] = closure[i].distance;
    }
    const std::map<Oid, uint32_t> walked = WalkAncestors(graph, cls);
    if (maintained != walked) {
      auto render = [](const std::map<Oid, uint32_t>& m) {
        std::string out;
        for (const auto& [c, d] : m) {
          out += " " + c.ToString() + ":" + std::to_string(d);
        }
        return out;
      };
      return ::testing::AssertionFailure()
             << "closure of " << cls.ToString() << " drifted: maintained"
             << render(maintained) << "; walked" << render(walked);
    }
  }

  std::map<Oid, uint32_t> defaults;
  for (const Oid& cls : graph.classes()) {
    if (const Object* object = db.GetObject(cls)) {
      for (const auto& [attr, value] : object->attrs()) ++defaults[attr];
    }
  }
  const std::map<Oid, uint32_t> counted(db.default_counts().begin(),
                                        db.default_counts().end());
  if (counted != defaults) {
    auto render = [](const std::map<Oid, uint32_t>& m) {
      std::string out;
      for (const auto& [attr, n] : m) {
        out += " " + attr.ToString() + ":" + std::to_string(n);
      }
      return out;
    };
    return ::testing::AssertionFailure()
           << "default counts drifted: maintained" << render(counted)
           << "; recounted" << render(defaults);
  }

  std::map<Oid, std::set<std::pair<Oid, int>>> defined;
  db.methods().ForEachDefinition(
      [&](const Oid& method, const MethodRegistry::Def& def) {
        defined[method].emplace(def.cls, def.arity);
      });
  for (const auto& [method, keys] : defined) {
    const size_t indexed = db.methods().DefinitionsOf(method).size();
    if (indexed != keys.size()) {
      return ::testing::AssertionFailure()
             << "definitions of " << method.ToString() << ": " << indexed
             << " indexed, " << keys.size() << " distinct";
    }
  }
  return ::testing::AssertionSuccess();
}

}  // namespace testing_oracle
}  // namespace xsql

#endif  // XSQL_TESTS_DOMAIN_ORACLE_H_
