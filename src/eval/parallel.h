#ifndef XSQL_EVAL_PARALLEL_H_
#define XSQL_EVAL_PARALLEL_H_

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "ast/ast.h"
#include "common/status.h"
#include "eval/binding.h"
#include "oid/oid.h"

namespace xsql {

class Evaluator;

/// A fixed set of persistent worker threads for intra-query
/// parallelism. The pool is owned by the ConcurrencyManager (one per
/// server, sized once at startup) and injected into read-only sessions;
/// Sessions never own one, so the throwaway readers the shared-read
/// path constructs per statement cost no thread spawns.
///
/// `Run` executes `fn(0) .. fn(tasks-1)` with the *calling* thread
/// participating alongside the pool threads, so a pool constructed with
/// zero threads still completes every task (degenerates to a serial
/// loop). Tasks are claimed from a shared atomic counter — workers that
/// finish early steal the remainder. If another statement is already
/// fanned out on the pool, `Run` does not queue behind it: the caller
/// simply executes all of its own tasks inline. Work never blocks on
/// unrelated work, and the task->result mapping is by index, so results
/// are deterministic regardless of which thread ran which task.
class WorkerPool {
 public:
  /// Spawns `threads` persistent workers (0 is valid: callers run their
  /// own tasks).
  explicit WorkerPool(size_t threads);
  ~WorkerPool();

  WorkerPool(const WorkerPool&) = delete;
  WorkerPool& operator=(const WorkerPool&) = delete;

  /// Runs `fn(i)` for every i in [0, tasks), returning once all have
  /// completed. `fn` must be safe to call concurrently from multiple
  /// threads with distinct indices.
  void Run(size_t tasks, const std::function<void(size_t)>& fn);

  size_t threads() const { return threads_.size(); }

 private:
  struct Job {
    size_t tasks = 0;
    const std::function<void(size_t)>* fn = nullptr;
    /// Next unclaimed task index (claim = fetch_add).
    std::atomic<size_t> next{0};
    /// Completed-task count, guarded by the pool mutex.
    size_t completed = 0;
  };

  /// Claims and runs tasks from `job` until none remain.
  void Drain(Job* job);
  void Loop();

  /// Serializes fan-outs; held for the duration of a Run that uses the
  /// pool threads. try_lock only — a busy pool means "run inline".
  std::mutex run_mu_;

  std::mutex mu_;
  std::condition_variable work_cv_;
  std::condition_variable done_cv_;
  /// Monotone job sequence number; workers wake when it advances.
  uint64_t seq_ = 0;
  std::shared_ptr<Job> job_;
  bool stop_ = false;
  std::vector<std::thread> threads_;
};

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

#endif  // XSQL_EVAL_PARALLEL_H_
