#include "oid/oid.h"

#include <gtest/gtest.h>

#include <cmath>
#include <functional>
#include <limits>
#include <string>
#include <thread>
#include <type_traits>
#include <unordered_set>
#include <vector>

#include "obs/metrics.h"

namespace xsql {
namespace {

static_assert(sizeof(Oid) == 16 && std::is_trivially_copyable_v<Oid>,
              "Oid is a kind plus an 8-byte payload");

TEST(OidTest, KindsAndAccessors) {
  EXPECT_TRUE(Oid::Nil().is_nil());
  EXPECT_TRUE(Oid().is_nil());
  EXPECT_TRUE(Oid::Bool(true).bool_value());
  EXPECT_FALSE(Oid::Bool(false).bool_value());
  EXPECT_EQ(Oid::Int(42).int_value(), 42);
  EXPECT_DOUBLE_EQ(Oid::Real(2.5).real_value(), 2.5);
  EXPECT_EQ(Oid::String("ford").str(), "ford");
  EXPECT_EQ(Oid::Atom("mary123").str(), "mary123");
  Oid term = Oid::Term("secretary", {Oid::Atom("dept77")});
  EXPECT_EQ(term.term_fn(), "secretary");
  ASSERT_EQ(term.term_args().size(), 1u);
  EXPECT_EQ(term.term_args()[0], Oid::Atom("dept77"));
}

TEST(OidTest, NumericValueMixesIntAndReal) {
  EXPECT_TRUE(Oid::Int(3).is_numeric());
  EXPECT_TRUE(Oid::Real(3.5).is_numeric());
  EXPECT_FALSE(Oid::String("3").is_numeric());
  EXPECT_DOUBLE_EQ(Oid::Int(3).numeric_value(), 3.0);
}

TEST(OidTest, EqualityIsStructural) {
  EXPECT_EQ(Oid::Atom("a"), Oid::Atom("a"));
  EXPECT_NE(Oid::Atom("a"), Oid::String("a"));
  EXPECT_NE(Oid::Int(1), Oid::Real(1.0));  // distinct logical ids
  EXPECT_EQ(Oid::Term("f", {Oid::Int(1)}), Oid::Term("f", {Oid::Int(1)}));
  EXPECT_NE(Oid::Term("f", {Oid::Int(1)}), Oid::Term("f", {Oid::Int(2)}));
  EXPECT_NE(Oid::Term("f", {}), Oid::Term("g", {}));
}

TEST(OidTest, TotalOrderIsConsistent) {
  std::vector<Oid> oids = {Oid::Nil(),        Oid::Bool(false),
                           Oid::Int(5),       Oid::Real(1.5),
                           Oid::String("x"),  Oid::Atom("x"),
                           Oid::Term("f", {})};
  for (const Oid& a : oids) {
    EXPECT_EQ(a.Compare(a), 0);
    for (const Oid& b : oids) {
      EXPECT_EQ(a.Compare(b), -b.Compare(a));
    }
  }
}

TEST(OidTest, HashAgreesWithEquality) {
  EXPECT_EQ(Oid::Atom("x").Hash(), Oid::Atom("x").Hash());
  EXPECT_EQ(Oid::Term("f", {Oid::Int(1), Oid::Atom("a")}).Hash(),
            Oid::Term("f", {Oid::Int(1), Oid::Atom("a")}).Hash());
  std::unordered_set<Oid, OidHash> set;
  set.insert(Oid::Atom("x"));
  set.insert(Oid::Atom("x"));
  EXPECT_EQ(set.size(), 1u);
}

TEST(OidTest, ToStringMatchesPaperNotation) {
  EXPECT_EQ(Oid::Int(20).ToString(), "20");
  EXPECT_EQ(Oid::String("newyork").ToString(), "'newyork'");
  EXPECT_EQ(Oid::Atom("mary123").ToString(), "mary123");
  EXPECT_EQ(Oid::Term("secretary", {Oid::Atom("dept77")}).ToString(),
            "secretary(dept77)");
  EXPECT_EQ(Oid::Nil().ToString(), "nil");
}

TEST(OidSetTest, InsertSortsAndDedupes) {
  OidSet set;
  set.Insert(Oid::Int(2));
  set.Insert(Oid::Int(1));
  set.Insert(Oid::Int(2));
  EXPECT_EQ(set.size(), 2u);
  EXPECT_TRUE(set.Contains(Oid::Int(1)));
  EXPECT_FALSE(set.Contains(Oid::Int(3)));
}

TEST(OidSetTest, ConstructorNormalizes) {
  OidSet set({Oid::Int(3), Oid::Int(1), Oid::Int(3)});
  EXPECT_EQ(set.size(), 2u);
  EXPECT_EQ(set.elems()[0], Oid::Int(1));
  EXPECT_EQ(set.elems()[1], Oid::Int(3));
}

TEST(OidSetTest, Algebra) {
  OidSet a({Oid::Int(1), Oid::Int(2)});
  OidSet b({Oid::Int(2), Oid::Int(3)});
  EXPECT_EQ(OidSet::Union(a, b).size(), 3u);
  OidSet inter = OidSet::Intersect(a, b);
  EXPECT_EQ(inter.size(), 1u);
  EXPECT_TRUE(inter.Contains(Oid::Int(2)));
  OidSet diff = OidSet::Difference(a, b);
  EXPECT_EQ(diff.size(), 1u);
  EXPECT_TRUE(diff.Contains(Oid::Int(1)));
}

TEST(OidSetTest, SubsetOf) {
  OidSet a({Oid::Int(1)});
  OidSet b({Oid::Int(1), Oid::Int(2)});
  EXPECT_TRUE(a.SubsetOf(b));
  EXPECT_FALSE(b.SubsetOf(a));
  EXPECT_TRUE(OidSet().SubsetOf(a));
  EXPECT_TRUE(a.SubsetOf(a));
}

// The hash as it was computed before interning, from the values alone.
// Shard placement and every unordered container's iteration order
// depend on it, so interning must not move it.
size_t ReferenceHash(const Oid& oid) {
  size_t h = static_cast<size_t>(oid.kind()) * 0x9E3779B97F4A7C15ULL;
  auto mix = [&h](size_t v) {
    h ^= v + 0x9E3779B97F4A7C15ULL + (h << 6) + (h >> 2);
  };
  switch (oid.kind()) {
    case OidKind::kNil:
      break;
    case OidKind::kBool:
    case OidKind::kInt:
      mix(std::hash<int64_t>{}(oid.int_value()));
      break;
    case OidKind::kReal:
      if (std::isnan(oid.real_value())) {
        mix(0x7FF8000000000000ULL);
      } else if (oid.real_value() == 0.0) {
        mix(0);
      } else {
        mix(std::hash<double>{}(oid.real_value()));
      }
      break;
    case OidKind::kString:
    case OidKind::kAtom:
      mix(std::hash<std::string>{}(oid.str()));
      break;
    case OidKind::kTerm:
      mix(std::hash<std::string>{}(oid.term_fn()));
      for (const Oid& a : oid.term_args()) mix(ReferenceHash(a));
      break;
  }
  return h;
}

std::vector<Oid> EveryKindWithEdgeCases() {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const Oid inner = Oid::Term("g", {Oid::Atom("a"), Oid::Int(1)});
  return {
      Oid::Nil(),
      Oid::Bool(false),
      Oid::Bool(true),
      Oid::Int(0),
      Oid::Int(-7),
      Oid::Int(1),
      Oid::Real(0.0),
      Oid::Real(-0.0),
      Oid::Real(1.0),
      Oid::Real(-2.5),
      Oid::Real(nan),
      Oid::Real(-nan),
      Oid::Real(std::numeric_limits<double>::infinity()),
      Oid::String(""),
      Oid::String("x"),
      Oid::Atom("x"),
      Oid::Atom("y"),
      Oid::String("a longer text that does not fit a small-string buffer"),
      Oid::Term("f", {}),
      Oid::Term("f", {Oid::Atom("x")}),
      Oid::Term("f", {Oid::String("x")}),
      Oid::Term("f", {inner}),
      Oid::Term("f", {inner, inner}),
      Oid::Term("f", {Oid::Term("g", {Oid::Atom("a"), Oid::Int(2)})}),
      Oid::Term("f", {Oid::Real(0.0)}),
      Oid::Term("f", {Oid::Real(-0.0)}),
      Oid::Term("f", {Oid::Real(nan)}),
      Oid::Term("f", {Oid::Real(-nan)}),
      Oid::Term("h", {Oid::Term("f", {Oid::Real(-0.0)})}),
      Oid::Term("h", {Oid::Term("f", {Oid::Real(0.0)})}),
      Oid::Term("x", {}),
  };
}

TEST(OidTest, EqualityHashAndCompareAgreeForEveryKind) {
  const std::vector<Oid> oids = EveryKindWithEdgeCases();
  for (const Oid& a : oids) {
    EXPECT_EQ(a.Hash(), ReferenceHash(a)) << a.ToString();
    for (const Oid& b : oids) {
      const bool equal = a == b;
      EXPECT_EQ(equal, a.Compare(b) == 0)
          << a.ToString() << " vs " << b.ToString();
      EXPECT_EQ(a.Compare(b), -b.Compare(a))
          << a.ToString() << " vs " << b.ToString();
      if (equal) {
        EXPECT_EQ(a.Hash(), b.Hash()) << a.ToString() << " vs " << b.ToString();
      }
    }
  }
}

TEST(OidTest, RealRulesHoldInsideTerms) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  EXPECT_EQ(Oid::Real(-0.0), Oid::Real(0.0));
  EXPECT_EQ(Oid::Real(nan), Oid::Real(-nan));
  EXPECT_EQ(Oid::Term("f", {Oid::Real(-0.0)}), Oid::Term("f", {Oid::Real(0.0)}));
  EXPECT_EQ(Oid::Term("f", {Oid::Real(nan)}), Oid::Term("f", {Oid::Real(-nan)}));
  EXPECT_EQ(Oid::Term("h", {Oid::Term("f", {Oid::Real(-0.0)})}),
            Oid::Term("h", {Oid::Term("f", {Oid::Real(0.0)})}));
  EXPECT_NE(Oid::Term("f", {Oid::Real(0.0)}), Oid::Term("f", {Oid::Real(1.0)}));
  // Hash-consing is by bits, so an equal term never takes over how
  // another prints: -0.0 stays -0 even after f(0) was interned first.
  EXPECT_EQ(Oid::Term("f", {Oid::Real(0.0)}).ToString(), "f(0)");
  EXPECT_EQ(Oid::Term("f", {Oid::Real(-0.0)}).ToString(), "f(-0)");
  EXPECT_EQ(Oid::Real(-0.0).ToString(), "-0");
}

TEST(OidTest, AtomAndStringShareTextButStayDistinct) {
  const Oid atom = Oid::Atom("shared");
  const Oid str = Oid::String("shared");
  EXPECT_NE(atom, str);
  EXPECT_NE(atom.Hash(), str.Hash());
  EXPECT_EQ(&atom.str(), &str.str());  // one interned entry
  EXPECT_EQ(str.Compare(atom), -1);    // kind-major: strings first
}

TEST(OidTest, EqualValuesShareOneEntry) {
  EXPECT_EQ(&Oid::Atom("mary123").str(), &Oid::Atom(std::string("mary123")).str());
  const Oid a = Oid::Term("f", {Oid::Atom("x"), Oid::Int(3)});
  const Oid b = Oid::Term(std::string("f"), {Oid::Atom("x"), Oid::Int(3)});
  EXPECT_EQ(&a.term_args(), &b.term_args());
  EXPECT_EQ(&a.term_fn(), &Oid::Atom("f").str());
}

TEST(OidTest, ThreadsInterningOverlappingValuesGetIdenticalPayloads) {
  constexpr int kThreads = 4;
  constexpr int kValues = 500;
  // Each thread interns the same values in a different order; the
  // addresses of the entries it gets back are its view of the payloads.
  std::vector<std::vector<const void*>> seen(
      kThreads, std::vector<const void*>(2 * kValues));
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([t, &seen] {
      for (int n = 0; n < kValues; ++n) {
        const int i = (n * 7 + t * 131) % kValues;
        const std::string name = "intern_race_" + std::to_string(i % 100);
        const Oid atom = Oid::Atom(name);
        const Oid term =
            Oid::Term("intern_race_fn", {atom, Oid::Int(i), Oid::Term("k", {atom})});
        seen[t][2 * i] = &atom.str();
        seen[t][2 * i + 1] = &term.term_args();
        ASSERT_EQ(term.term_args()[0], atom);
      }
    });
  }
  for (std::thread& th : threads) th.join();
  for (int t = 1; t < kThreads; ++t) EXPECT_EQ(seen[t], seen[0]) << t;
}

TEST(OidTest, InternGaugesCountNewEntries) {
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
  // Interning a first value registers the gauges.
  Oid::Atom("gauge_probe_first");
  const int64_t entries = registry.GetGauge("xsql.oid.intern_entries").value();
  const int64_t bytes = registry.GetGauge("xsql.oid.intern_bytes").value();
  Oid::Atom("gauge_probe_first");  // already interned: no change
  EXPECT_EQ(registry.GetGauge("xsql.oid.intern_entries").value(), entries);
  Oid::Term("gauge_probe_fn", {Oid::Int(1)});  // a new symbol and a new term
  EXPECT_EQ(registry.GetGauge("xsql.oid.intern_entries").value(), entries + 2);
  EXPECT_GT(registry.GetGauge("xsql.oid.intern_bytes").value(), bytes);
}

}  // namespace
}  // namespace xsql
