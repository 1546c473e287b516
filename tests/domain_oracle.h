// Test oracles for the store's maintained redundancy:
//  * the active domain: recomputes it from scratch — every object id,
//    attribute name and attribute value, plus every declared class — and
//    compares it with Database::ActiveDomain();
//  * the instance-of relation, which the store keeps twice (each oid's
//    direct-class list and each class's direct extent): both sides must
//    hold the same (object, class) pairs.
#ifndef XSQL_TESTS_DOMAIN_ORACLE_H_
#define XSQL_TESTS_DOMAIN_ORACLE_H_

#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
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

}  // namespace testing_oracle
}  // namespace xsql

#endif  // XSQL_TESTS_DOMAIN_ORACLE_H_
