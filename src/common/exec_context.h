#ifndef XSQL_COMMON_EXEC_CONTEXT_H_
#define XSQL_COMMON_EXEC_CONTEXT_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>

#include "common/status.h"

namespace xsql {

/// Cooperative cancellation flag, shareable across threads. The thread
/// that owns the query hands the token to whoever may cancel it; the
/// evaluator polls it at every guard check.
class CancelToken {
 public:
  void RequestCancel() { cancelled_.store(true, std::memory_order_relaxed); }
  bool cancelled() const {
    return cancelled_.load(std::memory_order_relaxed);
  }
  void Reset() { cancelled_.store(false, std::memory_order_relaxed); }

 private:
  std::atomic<bool> cancelled_{false};
};

/// The single knob surface for execution limits. A value of 0 means
/// "unlimited" for the budget knobs; the two depth knobs always apply
/// (they are semantic policies, not failure budgets — see below).
struct ExecLimits {
  /// Wall-clock deadline per statement, in milliseconds (0 = none).
  uint64_t deadline_ms = 0;
  /// Maximum result rows / bindings a statement may emit (0 = none).
  uint64_t max_rows = 0;
  /// Maximum evaluation steps — path walks, extent-candidate probes,
  /// method invocations — per statement (0 = none).
  uint64_t max_steps = 0;
  /// The one recursion-depth policy: query-method recursion, view
  /// expansion, and F-logic support derivation all count against it.
  /// Exceeding it is an error (kResourceExhausted).
  uint64_t max_recursion_depth = 64;
  /// Maximum attribute-sequence length a path variable `*Y` matches.
  /// This bounds the *language semantics* of path variables, so hitting
  /// it truncates enumeration silently rather than failing.
  uint64_t max_path_var_len = 3;
};

/// Execution guardrails threaded through the whole evaluation stack
/// (Evaluator, PathEvaluator, FLogic model checker, view expansion,
/// introspection). One context is armed per statement; every guard that
/// trips reports *which* guard fired in its message, with the machine-
/// checkable marker `(guard: <name>)`, and a dedicated StatusCode
/// (kResourceExhausted / kCancelled) so callers can tell resource
/// failures from genuine query errors.
///
/// Cost model: `Step()` is the hot call — an increment, a budget
/// compare, and a relaxed atomic load for the cancel token; the clock
/// is read only every 16 steps. Code that has no caller-supplied
/// context uses `Unlimited()` (per-thread, no budgets, default depth
/// policy) so call sites never branch on null.
class ExecutionContext {
 public:
  /// No budgets, default depth policy.
  ExecutionContext() : ExecutionContext(ExecLimits{}, nullptr) {}

  /// Arms `limits`; the deadline countdown starts now.
  explicit ExecutionContext(const ExecLimits& limits,
                            std::shared_ptr<CancelToken> cancel = nullptr);

  ExecutionContext(const ExecutionContext&) = delete;
  ExecutionContext& operator=(const ExecutionContext&) = delete;

  /// Charges one evaluation step: enforces the step budget and polls
  /// cancellation every step and the deadline every 16 steps (the first
  /// step included, so an expired deadline fires immediately).
  Status Step();

  /// Charges one emitted row/binding against the row budget.
  Status ChargeRow();

  /// Enters one level of guarded recursion (`what` names the activity
  /// for the error message, e.g. "query method Loop"). Balance with
  /// LeaveRecursion, or use RecursionScope.
  Status EnterRecursion(const std::string& what);
  void LeaveRecursion();

  const ExecLimits& limits() const { return limits_; }
  uint64_t steps() const { return steps_; }
  uint64_t rows() const { return rows_; }
  uint64_t recursion_depth() const { return depth_; }

  /// The per-thread "no limits" context — the default for evaluators
  /// constructed without an explicit context (tests, internal referees).
  static ExecutionContext* Unlimited();

 private:
  Status CheckDeadlineAndCancel();

  ExecLimits limits_;
  std::shared_ptr<CancelToken> cancel_;
  std::chrono::steady_clock::time_point deadline_{};
  bool has_deadline_ = false;
  uint64_t steps_ = 0;
  uint64_t rows_ = 0;
  uint64_t depth_ = 0;
};

/// RAII recursion guard: checks the depth policy on construction and
/// releases the level on destruction iff entry succeeded.
class RecursionScope {
 public:
  RecursionScope(ExecutionContext* ctx, const std::string& what)
      : ctx_(ctx), status_(ctx->EnterRecursion(what)) {}
  ~RecursionScope() {
    if (status_.ok()) ctx_->LeaveRecursion();
  }
  RecursionScope(const RecursionScope&) = delete;
  RecursionScope& operator=(const RecursionScope&) = delete;

  const Status& status() const { return status_; }

 private:
  ExecutionContext* ctx_;
  Status status_;
};

}  // namespace xsql

#endif  // XSQL_COMMON_EXEC_CONTEXT_H_
