#ifndef XSQL_STORE_COUNTED_OID_SET_H_
#define XSQL_STORE_COUNTED_OID_SET_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "oid/oid.h"

namespace xsql {

/// A sorted set of oids with an occurrence count per member — the active
/// domain's representation (see Database::ActiveDomain). A member joins
/// at its first occurrence and leaves at its last.
///
/// Storage is a sequence of sorted chunks held by shared_ptr, so copying
/// the set shares every chunk. A write clones only the chunk it touches,
/// under the store's one COW rule (CowWritable in store/cow.h). A write
/// therefore costs O(log n + chunk size) at any database size, and a
/// copy is a snapshot that later writes to the original never change.
/// It also keeps each class's direct extent (see ClassGraph), where
/// every count is one.
class CountedOidSet {
 public:
  /// One more occurrence of `oid`, written in COW epoch `epoch`.
  void Add(const Oid& oid, uint64_t epoch);
  /// One occurrence fewer; no-op for a non-member.
  void Remove(const Oid& oid, uint64_t epoch);

  bool Contains(const Oid& oid) const;
  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  /// Visits the members in ascending order: `fn(const Oid&)`.
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    for (const auto& chunk : chunks_) {
      for (const Entry& entry : chunk->entries) fn(entry.oid);
    }
  }

  /// The members as one sorted set (O(n)).
  OidSet ToOidSet() const;

 private:
  /// A chunk splits in half when it outgrows this.
  static constexpr size_t kMaxChunk = 128;
  struct Entry {
    Oid oid;
    uint32_t count = 0;
  };
  struct Chunk {
    std::vector<Entry> entries;  // sorted by oid, never empty
    uint64_t epoch = 0;
    size_t ApproxBytes() const {
      return sizeof(Chunk) + entries.size() * sizeof(Entry);
    }
  };

  static bool EntryBefore(const Entry& entry, const Oid& oid) {
    return entry.oid < oid;
  }
  /// The chunk whose range holds `oid`: the first whose last member is
  /// not below it, else the last chunk.
  size_t ChunkIndexFor(const Oid& oid) const;

  std::vector<std::shared_ptr<Chunk>> chunks_;
  size_t size_ = 0;
};

}  // namespace xsql

#endif  // XSQL_STORE_COUNTED_OID_SET_H_
