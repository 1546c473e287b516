#include "eval/aggregate.h"

#include <cmath>

#include "eval/comparator.h"

namespace xsql {

Result<Oid> EvalAggregate(AggFn fn, const OidSet& values) {
  switch (fn) {
    case AggFn::kCount:
      return Oid::Int(static_cast<int64_t>(values.size()));
    case AggFn::kSum:
    case AggFn::kAvg: {
      double total = 0;
      // An all-Int SUM is exact in int64: a detour through double would
      // round above 2^53, and casting an out-of-range double back is
      // undefined.
      int64_t int_total = 0;
      bool int_overflow = false;
      bool all_int = true;
      for (const Oid& v : values) {
        if (!v.is_numeric()) {
          return Status::RuntimeError("sum/avg over non-numeric value " +
                                      v.ToString());
        }
        total += v.numeric_value();
        if (v.is_int()) {
          int_overflow |=
              __builtin_add_overflow(int_total, v.int_value(), &int_total);
        } else {
          all_int = false;
        }
      }
      if (fn == AggFn::kSum && all_int) {
        if (int_overflow) return Status::RuntimeError("integer overflow");
        return Oid::Int(int_total);
      }
      if (fn == AggFn::kAvg) {
        if (values.empty()) {
          return Status::RuntimeError("avg of empty set");
        }
        total /= static_cast<double>(values.size());
      }
      // A stored non-finite real could not be checkpointed (the snapshot
      // loader rejects it), and no XSQL literal denotes one.
      if (!std::isfinite(total)) {
        return Status::RuntimeError("arithmetic overflow");
      }
      return Oid::Real(total);
    }
    case AggFn::kMin:
    case AggFn::kMax: {
      if (values.empty()) {
        return Status::RuntimeError("min/max of empty set");
      }
      Oid best = *values.begin();
      for (const Oid& v : values) {
        std::optional<int> c = CompareOids(v, best);
        if (!c.has_value()) {
          return Status::RuntimeError("min/max over incomparable values");
        }
        if ((fn == AggFn::kMin && *c < 0) || (fn == AggFn::kMax && *c > 0)) {
          best = v;
        }
      }
      return best;
    }
  }
  return Status::RuntimeError("unknown aggregate");
}

}  // namespace xsql
