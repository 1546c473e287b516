#include "common/exec_context.h"

#include "common/fault.h"
#include "obs/metrics.h"

namespace xsql {

namespace {

/// Counts every tripped guard (budget, deadline, cancellation,
/// recursion): the fleet-level "how often do we hit the rails" signal.
void NoteGuardTrip() {
  static obs::Counter& trips =
      obs::MetricsRegistry::Global().GetCounter("xsql.guard.trips");
  trips.Inc();
}

}  // namespace

ExecutionContext::ExecutionContext(const ExecLimits& limits,
                                   std::shared_ptr<CancelToken> cancel)
    : limits_(limits), cancel_(std::move(cancel)) {
  if (limits_.deadline_ms > 0) {
    deadline_ = std::chrono::steady_clock::now() +
                std::chrono::milliseconds(limits_.deadline_ms);
    has_deadline_ = true;
  }
}

Status ExecutionContext::CheckDeadlineAndCancel() {
  if (cancel_ && cancel_->cancelled()) {
    NoteGuardTrip();
    return Status::Cancelled("execution cancelled (guard: cancellation)");
  }
  if (has_deadline_ && std::chrono::steady_clock::now() >= deadline_) {
    NoteGuardTrip();
    return Status::ResourceExhausted(
        "deadline of " + std::to_string(limits_.deadline_ms) +
        " ms exceeded (guard: deadline)");
  }
  return Status::OK();
}

Status ExecutionContext::Step() {
  FaultInjector& fi = FaultInjector::Global();
  if (fi.armed()) {
    XSQL_RETURN_IF_ERROR(fi.Check(FaultInjector::Domain::kGuard, "step"));
  }
  ++steps_;
  if (limits_.max_steps != 0 && steps_ > limits_.max_steps) {
    NoteGuardTrip();
    return Status::ResourceExhausted(
        "step budget of " + std::to_string(limits_.max_steps) +
        " exhausted (guard: step-budget)");
  }
  // Cancellation is a relaxed atomic load — poll it every step. The
  // clock read is costlier, so poll the deadline every 16 steps; the
  // offset makes the very first step poll it too, so an already-expired
  // deadline (deadline_ms tiny) trips deterministically.
  if (cancel_ && cancel_->cancelled()) {
    NoteGuardTrip();
    return Status::Cancelled("execution cancelled (guard: cancellation)");
  }
  if (has_deadline_ && (steps_ & 15) == 1) {
    if (std::chrono::steady_clock::now() >= deadline_) {
      NoteGuardTrip();
      return Status::ResourceExhausted(
          "deadline of " + std::to_string(limits_.deadline_ms) +
          " ms exceeded (guard: deadline)");
    }
  }
  return Status::OK();
}

Status ExecutionContext::ChargeRow() {
  FaultInjector& fi = FaultInjector::Global();
  if (fi.armed()) {
    XSQL_RETURN_IF_ERROR(fi.Check(FaultInjector::Domain::kGuard, "row"));
  }
  ++rows_;
  if (limits_.max_rows != 0 && rows_ > limits_.max_rows) {
    NoteGuardTrip();
    return Status::ResourceExhausted(
        "row budget of " + std::to_string(limits_.max_rows) +
        " exhausted (guard: row-budget)");
  }
  return CheckDeadlineAndCancel();
}

Status ExecutionContext::EnterRecursion(const std::string& what) {
  FaultInjector& fi = FaultInjector::Global();
  if (fi.armed()) {
    XSQL_RETURN_IF_ERROR(
        fi.Check(FaultInjector::Domain::kGuard, "recursion"));
  }
  if (depth_ >= limits_.max_recursion_depth) {
    NoteGuardTrip();
    return Status::ResourceExhausted(
        "recursion depth limit of " +
        std::to_string(limits_.max_recursion_depth) + " reached in " + what +
        " (guard: recursion-depth)");
  }
  ++depth_;
  return Status::OK();
}

void ExecutionContext::LeaveRecursion() {
  if (depth_ > 0) --depth_;
}

ExecutionContext* ExecutionContext::Unlimited() {
  // Per-thread so concurrent evaluators sharing the fallback never race
  // on the recursion-depth counter.
  thread_local ExecutionContext ctx;
  return &ctx;
}

}  // namespace xsql
