// The process-wide concurrency substrate. Every parallel loop in the
// repo — fault-simulation campaigns, reliability/coverage accumulation,
// the read-only per-PO sweeps of the synthesis engine, and the per-circuit
// rows of the paper-table bench drivers — runs on this one pool, so the
// process never oversubscribes itself with nested ad-hoc std::thread
// spawning (the pre-pool FaultSimEngine behaviour).
//
// Scheduling model: a parallel loop is published as a chunk-counter job on
// a shared active-job list. Worker threads (and the submitting thread,
// which always participates) repeatedly steal the next chunk of any
// in-flight job — an idle worker therefore drains the fine-grained inner
// loops of whichever coarse task is still running, which is what makes
// imbalanced suites (one big circuit row, many small ones) scale. A
// participant that exhausts a nested job's chunks blocks only on the
// finite chunk bodies still executing, so nested submission from inside a
// worker can never deadlock.
//
// Determinism contract (the repo convention established by the fault
// engine's per-index seed derivation): the pool guarantees that every
// index of a loop is executed exactly once. Callers guarantee that the
// body writes only to state owned by its index (or its slot) and that
// they fold per-index or per-slot results in index order afterwards.
// Under those rules every result is bit-identical for any worker count,
// including 1 (`APX_THREADS=1` runs loops inline on the caller).
#pragma once

#include <cstdint>
#include <functional>

namespace apx {

/// The library's one worker limit: the set_thread_count override, else a
/// positive `APX_THREADS`, else std::thread::hardware_concurrency().
int thread_count();

/// Overrides thread_count() (clamped to TaskPool::kMaxWorkers); n <= 0
/// clears it. Never while a pool loop runs: callers size per-slot scratch
/// from their own thread_count() read, apart from the fault engine's.
void set_thread_count(int n);

/// set_thread_count(n) for a scope; restores the previous override on
/// exit. Same rule as set_thread_count.
class ScopedThreadCount {
 public:
  explicit ScopedThreadCount(int n);
  ~ScopedThreadCount();
  ScopedThreadCount(const ScopedThreadCount&) = delete;
  ScopedThreadCount& operator=(const ScopedThreadCount&) = delete;

 private:
  int previous_;
};

/// Parses an APX_THREADS-style value: positive integer => that count,
/// anything else (null, junk, <= 0) => 0 ("unset"). Exposed for tests.
int parse_thread_env(const char* text);

class TaskPool {
 public:
  /// The process-wide pool. Worker threads are spawned lazily, up to the
  /// largest parallelism any call has asked for (capped at kMaxWorkers).
  static TaskPool& instance();

  TaskPool(const TaskPool&) = delete;
  TaskPool& operator=(const TaskPool&) = delete;

  /// Runs body(slot, i) for every i in [begin, end). `slot` is dense in
  /// [0, max_slots) and unique among threads concurrently executing this
  /// loop — the hook for per-slot scratch arenas and exact per-slot
  /// accumulators. max_slots <= 0 defers to thread_count(); max_slots == 1
  /// (or a single-iteration range capped to it) executes inline on the
  /// calling thread with slot 0. `grain` consecutive indices are executed
  /// per steal. The first exception thrown by any chunk drains the loop
  /// and is rethrown on the calling thread.
  void parallel_for_slotted(int64_t begin, int64_t end, int max_slots,
                            int64_t grain,
                            const std::function<void(int, int64_t)>& body);

  /// Slot-oblivious form.
  void parallel_for(int64_t begin, int64_t end,
                    const std::function<void(int64_t)>& body,
                    int max_slots = 0, int64_t grain = 1);

  /// Hard cap on spawned workers (requests beyond it are clamped).
  static constexpr int kMaxWorkers = 64;

 private:
  TaskPool();
  ~TaskPool();

  struct Job;
  struct Impl;
  Impl* impl_;

  void ensure_workers(int n);
  static void worker_loop(Impl* impl);
};

}  // namespace apx
