#ifndef XSQL_STORE_COW_H_
#define XSQL_STORE_COW_H_

#include <cstddef>
#include <cstdint>

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

}  // namespace xsql

#endif  // XSQL_STORE_COW_H_
