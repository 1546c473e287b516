#ifndef XSQL_EVAL_BATCH_H_
#define XSQL_EVAL_BATCH_H_

#include <vector>

#include "ast/ast.h"
#include "common/status.h"
#include "eval/binding.h"
#include "oid/oid.h"

namespace xsql {

class Evaluator;

/// The batch filter kernel: applies `cond` to every still-selected
/// candidate of `batch` (binding `var` to it for the test) and clears
/// the selection bit of every candidate that fails. Semantically this
/// is exactly one ground `Evaluator::TestCondition` per selected
/// candidate, plus one `Step()` charge each, hoisted out of the
/// conjunct driver so it pays the pick/ready bookkeeping once per
/// batch instead of once per candidate. `sel` must have `batch.size()`
/// entries. Exposed as a free function so the comparator tests can pin
/// kernel ≡ TestCondition equivalence (NaN totality included) against
/// the production kernel.
Status FilterBatch(Evaluator* ev, const Condition& cond, const Variable& var,
                   const std::vector<Oid>& batch, Binding* binding,
                   std::vector<char>* sel);

}  // namespace xsql

#endif  // XSQL_EVAL_BATCH_H_
