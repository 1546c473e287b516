#ifndef XSQL_STORE_COW_H_
#define XSQL_STORE_COW_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <utility>

#include "obs/metrics.h"

namespace xsql {

/// COW accounting (xsql.mvcc.*) for the store's copy-on-write pieces:
/// how often a write had to clone a shared piece, and roughly how many
/// bytes the clones copied. The byte figure is an estimate (container
/// footprints, not deep oid payloads) — it is a *trend* metric for
/// snapshot churn, not an allocator audit.
inline void CountCowClone(size_t approx_bytes) {
  static obs::Counter& clones =
      obs::MetricsRegistry::Global().GetCounter("xsql.mvcc.cow_clones");
  static obs::Counter& bytes =
      obs::MetricsRegistry::Global().GetCounter("xsql.mvcc.cow_bytes");
  clones.Inc();
  bytes.Inc(static_cast<uint64_t>(approx_bytes));
}

/// The store's one copy-on-write rule. Every shared piece of the store
/// (an object shard, a class node, a chunk of a CountedOidSet) is held
/// by shared_ptr and carries the COW epoch it was written in; copying
/// the container that holds the pointers shares the pieces. Before a
/// write in epoch `epoch`, this returns the piece writable: cloned first
/// when it predates the epoch (a fork shares it) or another copy holds
/// it (a reader pinned it). A piece stamped with the writer's epoch is
/// the writer's own — a fork shares only pieces stamped before it — so
/// its use count is exact.
///
/// `Piece` needs a copy constructor, a `uint64_t epoch` member and a
/// `size_t ApproxBytes() const` for the clone accounting.
template <typename Piece>
Piece& CowWritable(std::shared_ptr<Piece>& slot, uint64_t epoch) {
  if (slot->epoch != epoch || slot.use_count() > 1) {
    auto clone = std::make_shared<Piece>(*slot);
    clone->epoch = epoch;
    CountCowClone(clone->ApproxBytes());
    slot = std::move(clone);
  }
  return *slot;
}

}  // namespace xsql

#endif  // XSQL_STORE_COW_H_
