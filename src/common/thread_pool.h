// Copyright 2026 The dpcube Authors.
//
// Fixed-size shared thread pool with structured fork/join parallel loops.
// One process-wide pool (ThreadPool::Shared) is threaded through every hot
// path of the release pipeline — contingency-table construction, per-cuboid
// measurement, the WHT/tensor-Haar butterflies, consistency sweeps — and
// the query-serving BatchExecutor, so the CLI's --threads flag governs all
// of them at once.
//
// Determinism contract: ParallelFor partitions work into chunks and runs
// them on the calling thread plus the pool's workers. Scheduling is NOT
// deterministic, so loop bodies must write only to per-index (or per-chunk)
// disjoint state; reductions are done by the caller merging per-index
// partial results in index order. Under that discipline a loop's output is
// bit-identical for every pool size, which is what the parallel
// determinism suite (tests/engine/parallel_determinism_test.cc) locks
// down. Participants claim chunks from one shared counter in FIFO order.
//
// A ParallelFor issued from inside a pool task (nested parallelism) is
// safe: the nested caller can always finish its own chunks without help,
// so there is no circular wait even when every worker is busy.

#ifndef DPCUBE_COMMON_THREAD_POOL_H_
#define DPCUBE_COMMON_THREAD_POOL_H_

#include <atomic>
#include <cstddef>
#include <deque>
#include <functional>
#include <thread>
#include <vector>

#include "common/status.h"
#include "common/sync.h"

namespace dpcube {

class ThreadPool {
 public:
  /// A pool of total `parallelism` compute threads: `parallelism - 1`
  /// workers are spawned, and the thread calling ParallelFor contributes
  /// the remaining one. `parallelism` is clamped to >= 1; a 1-thread pool
  /// spawns no workers and runs every loop inline, sequentially.
  explicit ThreadPool(int parallelism);

  /// Drains queued tasks and joins the workers.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Total compute threads a ParallelFor can engage (workers + caller).
  int parallelism() const { return static_cast<int>(workers_.size()) + 1; }

  /// Enqueues a fire-and-forget task. Thread-safe.
  void Submit(std::function<void()> task);

  /// Tasks queued but not yet claimed by a worker. Thread-safe; a point
  /// sample for gauges, already stale by the time the caller reads it.
  std::size_t queue_depth() const;

  /// Workers currently inside a task body (excludes caller threads
  /// participating in a ParallelFor). Thread-safe point sample.
  int busy_workers() const;

  /// Runs body(lo, hi) over a partition of [begin, end) into contiguous
  /// chunks. `grain` is a lower bound on chunk size (the smallest range
  /// worth forking for); the pool may enlarge chunks to bound scheduling
  /// overhead on huge ranges, so bodies must size any per-chunk scratch
  /// from (hi - lo), not from `grain`. Blocks until every chunk has
  /// finished (structured join). The calling thread participates, so the
  /// loop makes progress even when all workers are busy. Thread-safe and
  /// reentrant. If a body throws, the loop still joins every chunk and
  /// rethrows the first exception on the calling thread. The chunk
  /// partition depends only on (begin, end, grain, parallelism()).
  void ParallelForBlocks(std::size_t begin, std::size_t end,
                         std::size_t grain,
                         const std::function<void(std::size_t, std::size_t)>&
                             body);

  /// Element-wise convenience wrapper: body(i) for i in [begin, end).
  void ParallelFor(std::size_t begin, std::size_t end, std::size_t grain,
                   const std::function<void(std::size_t)>& body);

  /// Deterministic parallel sum. `body(lo, hi)` returns the partial sum
  /// of a block; blocks are the fixed ranges [begin + k*block, begin +
  /// (k+1)*block) — a pure function of (begin, end, block), never of the
  /// pool size — and the partials are merged in ascending
  /// block order on the calling thread. The result is therefore
  /// bit-identical for every pool configuration, though NOT to a plain
  /// left-to-right sum (the association differs): callers that must
  /// preserve historical bytes keep their sequential path below a size
  /// cutoff and switch to this above it.
  double ParallelSumBlocks(std::size_t begin, std::size_t end,
                           std::size_t block,
                           const std::function<double(std::size_t,
                                                      std::size_t)>& body);

  /// The process-wide pool shared by the release pipeline and the query
  /// service. First use creates it with hardware_concurrency threads.
  static ThreadPool& Shared();

  /// Sizes the shared pool (the CLI's --threads flag). The size is
  /// sticky: the first sizing — whether by this call or by a plain
  /// Shared() defaulting to hardware concurrency — wins for the life of
  /// the process, because long-lived components (BatchExecutor, the
  /// network server) hold references into the pool and a silent rebuild
  /// would dangle them. A second call with the same size is a no-op; a
  /// second call with a DIFFERENT size fails loudly with
  /// FailedPrecondition and leaves the existing pool untouched.
  static Status SetSharedParallelism(int parallelism);

  /// Unconditionally rebuilds the shared pool at `parallelism`,
  /// bypassing the sticky-size check. STRICTLY for tests and benchmarks
  /// that sweep thread counts: the caller must guarantee no other thread
  /// is running on — and no live object holds a reference to — the
  /// current shared pool.
  static void ResetSharedPoolForTests(int parallelism);

 private:
  void WorkerLoop();

  mutable sync::Mutex mu_;
  sync::CondVar work_available_;
  std::deque<std::function<void()>> tasks_ GUARDED_BY(mu_);
  bool shutting_down_ GUARDED_BY(mu_) = false;
  std::atomic<int> busy_workers_{0};
  std::vector<std::thread> workers_;
};

}  // namespace dpcube

#endif  // DPCUBE_COMMON_THREAD_POOL_H_
