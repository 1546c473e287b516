// Test oracle for the maintained active domain: recomputes it from
// scratch — every object id, attribute name and attribute value, plus
// every declared class — and compares it with Database::ActiveDomain().
#ifndef XSQL_TESTS_DOMAIN_ORACLE_H_
#define XSQL_TESTS_DOMAIN_ORACLE_H_

#include <gtest/gtest.h>

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

}  // namespace testing_oracle
}  // namespace xsql

#endif  // XSQL_TESTS_DOMAIN_ORACLE_H_
