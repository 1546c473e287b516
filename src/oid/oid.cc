#include "oid/oid.h"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <mutex>
#include <unordered_set>

#include "obs/metrics.h"

namespace xsql {

// ---- Interning -------------------------------------------------------
//
// Atom/string texts and id-terms live in two process-wide tables. Each is
// split into shards by hash, one mutex per shard; only interning takes a
// lock. Entries are allocated once and never freed (the tables are never
// destroyed either), so an `Oid` may hold a raw pointer and read it from
// any thread without synchronization. The tables grow with the number of
// distinct values the process has ever seen; a restart compacts them,
// because recovery re-interns only what the snapshot and WAL still hold.

namespace {

using oid_internal::InternedTerm;
using oid_internal::InternedText;

constexpr size_t kInternShards = 64;

size_t ShardOf(size_t hash) { return (hash >> 20) % kInternShards; }

std::atomic<size_t> g_entries{0};
std::atomic<size_t> g_bytes{0};

void CountEntry(size_t bytes) {
  const size_t entries = g_entries.fetch_add(1, std::memory_order_relaxed) + 1;
  const size_t total = g_bytes.fetch_add(bytes, std::memory_order_relaxed) + bytes;
  static obs::Gauge& entries_gauge =
      obs::MetricsRegistry::Global().GetGauge("xsql.oid.intern_entries");
  static obs::Gauge& bytes_gauge =
      obs::MetricsRegistry::Global().GetGauge("xsql.oid.intern_bytes");
  // Set, not Add: a gauge frozen while metrics are disabled catches up
  // with the next entry.
  entries_gauge.Set(static_cast<int64_t>(entries));
  bytes_gauge.Set(static_cast<int64_t>(total));
}

// Heap bytes a string owns beyond its own object (none when the text
// fits the small-string buffer).
size_t HeapBytes(const std::string& s) {
  return s.capacity() > std::string().capacity() ? s.capacity() + 1 : 0;
}

struct TextKey {
  std::string_view text;
  size_t hash;
};
struct TextHash {
  using is_transparent = void;
  size_t operator()(const InternedText* e) const { return e->hash; }
  size_t operator()(const TextKey& k) const { return k.hash; }
};
struct TextEq {
  using is_transparent = void;
  bool operator()(const InternedText* a, const InternedText* b) const {
    return a == b;
  }
  bool operator()(const TextKey& k, const InternedText* e) const {
    return k.text == e->text;
  }
  bool operator()(const InternedText* e, const TextKey& k) const {
    return k.text == e->text;
  }
};

struct TextShard {
  std::mutex mu;
  std::unordered_set<const InternedText*, TextHash, TextEq> entries;
};

const InternedText* InternText(std::string_view text) {
  static auto* shards = new TextShard[kInternShards];
  const TextKey key{text, std::hash<std::string_view>{}(text)};
  TextShard& shard = shards[ShardOf(key.hash)];
  const InternedText* entry;
  {
    std::lock_guard<std::mutex> lock(shard.mu);
    auto it = shard.entries.find(key);
    if (it != shard.entries.end()) return *it;
    entry = new InternedText{std::string(text), key.hash};
    shard.entries.insert(entry);
  }
  CountEntry(sizeof(InternedText) + HeapBytes(entry->text));
  return entry;
}

}  // namespace

// The term table compares arguments bit for bit, so it is a friend of
// `Oid`: hash-consing by `==` would fold `f(-0.0)` into `f(0.0)` and
// change what the term prints.
class OidInterner {
 public:
  static const InternedTerm* InternTerm(const InternedText* fn,
                                        std::vector<Oid> args) {
    static auto* shards = new TermShard[kInternShards];
    size_t hash = HashCombine(
        static_cast<size_t>(OidKind::kTerm) * 0x9E3779B97F4A7C15ULL, fn->hash);
    for (const Oid& a : args) hash = HashCombine(hash, a.Hash());
    const TermKey key{fn, &args, hash};
    TermShard& shard = shards[ShardOf(hash)];
    const InternedTerm* entry;
    {
      std::lock_guard<std::mutex> lock(shard.mu);
      auto it = shard.entries.find(key);
      if (it != shard.entries.end()) return *it;
      bool has_real = false;
      for (const Oid& a : args) {
        has_real = has_real || a.is_real() || (a.is_term() && a.term()->has_real);
      }
      entry = new InternedTerm{fn, std::move(args), hash, has_real};
      shard.entries.insert(entry);
    }
    CountEntry(sizeof(InternedTerm) + entry->args.capacity() * sizeof(Oid));
    return entry;
  }

 private:
  struct TermKey {
    const InternedText* fn;
    const std::vector<Oid>* args;
    size_t hash;
  };
  static bool SameArgs(const std::vector<Oid>& a, const std::vector<Oid>& b) {
    return std::equal(a.begin(), a.end(), b.begin(), b.end(),
                      [](const Oid& x, const Oid& y) {
                        return x.kind_ == y.kind_ && x.bits_ == y.bits_;
                      });
  }
  struct TermHash {
    using is_transparent = void;
    size_t operator()(const InternedTerm* e) const { return e->hash; }
    size_t operator()(const TermKey& k) const { return k.hash; }
  };
  struct TermEq {
    using is_transparent = void;
    bool operator()(const InternedTerm* a, const InternedTerm* b) const {
      return a == b;
    }
    bool operator()(const TermKey& k, const InternedTerm* e) const {
      return k.fn == e->fn && SameArgs(*k.args, e->args);
    }
    bool operator()(const InternedTerm* e, const TermKey& k) const {
      return (*this)(k, e);
    }
  };
  struct TermShard {
    std::mutex mu;
    std::unordered_set<const InternedTerm*, TermHash, TermEq> entries;
  };
};

static_assert(sizeof(uintptr_t) <= sizeof(uint64_t),
              "an entry pointer must fit the payload");

Oid Oid::String(std::string_view s) {
  return Oid(OidKind::kString, reinterpret_cast<uint64_t>(InternText(s)));
}

Oid Oid::Atom(std::string_view name) {
  return Oid(OidKind::kAtom, reinterpret_cast<uint64_t>(InternText(name)));
}

Oid Oid::Term(std::string_view fn, std::vector<Oid> args) {
  return Oid(OidKind::kTerm,
             reinterpret_cast<uint64_t>(
                 OidInterner::InternTerm(InternText(fn), std::move(args))));
}

bool Oid::TermsEqual(const InternedTerm* a, const InternedTerm* b) {
  // Distinct entries differ in some argument's bits; only a real can
  // make such arguments equal.
  return a->has_real && b->has_real && a->hash == b->hash &&
         CompareTerms(a, b) == 0;
}

int Oid::CompareTerms(const InternedTerm* a, const InternedTerm* b) {
  if (a->fn != b->fn) {
    int c = a->fn->text.compare(b->fn->text);
    if (c != 0) return c < 0 ? -1 : 1;
  }
  for (size_t i = 0; i < a->args.size() && i < b->args.size(); ++i) {
    int e = a->args[i].Compare(b->args[i]);
    if (e != 0) return e;
  }
  return a->args.size() < b->args.size()
             ? -1
             : (a->args.size() > b->args.size() ? 1 : 0);
}

int Oid::Compare(const Oid& other) const {
  if (kind_ != other.kind_) return kind_ < other.kind_ ? -1 : 1;
  switch (kind_) {
    case OidKind::kNil:
      return 0;
    case OidKind::kBool:
    case OidKind::kInt: {
      const int64_t a = int_value();
      const int64_t b = other.int_value();
      return a < b ? -1 : (a > b ? 1 : 0);
    }
    case OidKind::kReal: {
      // Compare is a TOTAL order (OidSet dedup and sorting depend on
      // it), so NaN cannot be "unordered" here the way CompareOids
      // reports it: a bare IEEE compare returns 0 for NaN vs anything,
      // which used to merge NaN with arbitrary reals on set insertion.
      // Order NaN after every ordered real instead.
      const double a = real_value();
      const double b = other.real_value();
      const bool a_nan = std::isnan(a);
      const bool b_nan = std::isnan(b);
      if (a_nan || b_nan) return a_nan == b_nan ? 0 : (a_nan ? 1 : -1);
      return a < b ? -1 : (a > b ? 1 : 0);
    }
    case OidKind::kString:
    case OidKind::kAtom: {
      if (bits_ == other.bits_) return 0;
      int c = str().compare(other.str());
      return c < 0 ? -1 : (c > 0 ? 1 : 0);
    }
    case OidKind::kTerm:
      return bits_ == other.bits_ ? 0 : CompareTerms(term(), other.term());
  }
  return 0;
}

std::string Oid::ToString() const {
  switch (kind_) {
    case OidKind::kNil:
      return "nil";
    case OidKind::kBool:
      return bits_ != 0 ? "true" : "false";
    case OidKind::kInt:
      return std::to_string(int_value());
    case OidKind::kReal: {
      char buf[32];
      std::snprintf(buf, sizeof(buf), "%g", real_value());
      return buf;
    }
    case OidKind::kString:
      return "'" + str() + "'";
    case OidKind::kAtom:
      return str();
    case OidKind::kTerm: {
      std::string out = term_fn();
      out += '(';
      const std::vector<Oid>& args = term_args();
      for (size_t i = 0; i < args.size(); ++i) {
        if (i > 0) out += ',';
        out += args[i].ToString();
      }
      out += ')';
      return out;
    }
  }
  return "?";
}

OidSet::OidSet(std::vector<Oid> elems) : elems_(std::move(elems)) {
  if (!std::is_sorted(elems_.begin(), elems_.end())) {
    std::sort(elems_.begin(), elems_.end());
  }
  const size_t before = elems_.size();
  elems_.erase(std::unique(elems_.begin(), elems_.end()), elems_.end());
  // A set built from a multiset should not keep the multiset's buffer.
  if (elems_.size() < before / 2) elems_.shrink_to_fit();
}

OidSet OidSet::FromSorted(std::vector<Oid> elems) {
  OidSet out;
  out.elems_ = std::move(elems);
  return out;
}

void OidSet::Insert(const Oid& oid) {
  auto it = std::lower_bound(elems_.begin(), elems_.end(), oid);
  if (it == elems_.end() || !(*it == oid)) elems_.insert(it, oid);
}

bool OidSet::Contains(const Oid& oid) const {
  return std::binary_search(elems_.begin(), elems_.end(), oid);
}

bool OidSet::SubsetOf(const OidSet& other) const {
  return std::includes(other.elems_.begin(), other.elems_.end(),
                       elems_.begin(), elems_.end());
}

OidSet OidSet::Union(const OidSet& a, const OidSet& b) {
  OidSet out;
  out.elems_.reserve(a.size() + b.size());
  std::set_union(a.elems_.begin(), a.elems_.end(), b.elems_.begin(),
                 b.elems_.end(), std::back_inserter(out.elems_));
  return out;
}

OidSet OidSet::Intersect(const OidSet& a, const OidSet& b) {
  OidSet out;
  std::set_intersection(a.elems_.begin(), a.elems_.end(), b.elems_.begin(),
                        b.elems_.end(), std::back_inserter(out.elems_));
  return out;
}

OidSet OidSet::Difference(const OidSet& a, const OidSet& b) {
  OidSet out;
  std::set_difference(a.elems_.begin(), a.elems_.end(), b.elems_.begin(),
                      b.elems_.end(), std::back_inserter(out.elems_));
  return out;
}

std::string OidSet::ToString() const {
  std::string out = "{";
  for (size_t i = 0; i < elems_.size(); ++i) {
    if (i > 0) out += ", ";
    out += elems_[i].ToString();
  }
  out += '}';
  return out;
}

}  // namespace xsql
