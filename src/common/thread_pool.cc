// Copyright 2026 The dpcube Authors.

#include "common/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <exception>
#include <memory>
#include <utility>

namespace dpcube {

ThreadPool::ThreadPool(int parallelism) {
  const int workers = std::max(1, parallelism) - 1;
  workers_.reserve(static_cast<std::size_t>(workers));
  for (int i = 0; i < workers; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    sync::MutexLock lock(&mu_);
    shutting_down_ = true;
  }
  work_available_.SignalAll();
  for (std::thread& worker : workers_) worker.join();
}

void ThreadPool::WorkerLoop() {
  for (;;) {
    std::function<void()> task;
    {
      sync::MutexLock lock(&mu_);
      work_available_.Wait(mu_, [this]() REQUIRES(mu_) {
        return shutting_down_ || !tasks_.empty();
      });
      if (tasks_.empty()) return;  // Shutting down and drained.
      task = std::move(tasks_.front());
      tasks_.pop_front();
    }
    busy_workers_.fetch_add(1, std::memory_order_relaxed);
    task();
    busy_workers_.fetch_sub(1, std::memory_order_relaxed);
  }
}

std::size_t ThreadPool::queue_depth() const {
  sync::MutexLock lock(&mu_);
  return tasks_.size();
}

int ThreadPool::busy_workers() const {
  return busy_workers_.load(std::memory_order_relaxed);
}

void ThreadPool::Submit(std::function<void()> task) {
  if (workers_.empty()) {
    // No workers to hand off to; run inline rather than queue forever.
    task();
    return;
  }
  {
    sync::MutexLock lock(&mu_);
    tasks_.push_back(std::move(task));
  }
  work_available_.Signal();
}

namespace {

// Join state shared between the caller and its helper tasks. Helpers may
// outlive the ParallelForBlocks call (a queued helper can run after every
// chunk is done), so the state is reference-counted; `body` is only
// dereferenced while a chunk is held, which the join guarantees cannot
// outlast the caller.
struct LoopState {
  std::atomic<std::size_t> next_chunk{0};
  std::atomic<std::size_t> chunks_done{0};
  std::size_t num_chunks = 0;
  std::size_t begin = 0;
  std::size_t end = 0;
  std::size_t grain = 0;
  const std::function<void(std::size_t, std::size_t)>* body = nullptr;
  sync::Mutex mu;
  sync::CondVar all_done;
  std::exception_ptr first_exception GUARDED_BY(mu);
};

// Claims and runs chunks until none remain. Returns after contributing.
// A throwing body must not unwind a worker (std::terminate) or let the
// caller skip the join while helpers still hold `body` (use-after-free):
// the first exception is captured here and rethrown by the caller after
// the join; every claimed chunk counts as done either way.
void RunChunks(const std::shared_ptr<LoopState>& state) {
  for (;;) {
    const std::size_t chunk = state->next_chunk.fetch_add(1);
    if (chunk >= state->num_chunks) return;
    const std::size_t lo = state->begin + chunk * state->grain;
    const std::size_t hi = std::min(state->end, lo + state->grain);
    try {
      (*state->body)(lo, hi);
    } catch (...) {
      sync::MutexLock lock(&state->mu);
      if (!state->first_exception) {
        state->first_exception = std::current_exception();
      }
    }
    if (state->chunks_done.fetch_add(1) + 1 == state->num_chunks) {
      sync::MutexLock lock(&state->mu);
      state->all_done.SignalAll();
    }
  }
}

}  // namespace

void ThreadPool::ParallelForBlocks(
    std::size_t begin, std::size_t end, std::size_t grain,
    const std::function<void(std::size_t, std::size_t)>& body) {
  if (begin >= end) return;
  grain = std::max<std::size_t>(1, grain);
  // Cap the chunk count at ~8 per thread: `grain` is the caller's lower
  // bound (below which forking is wasteful), but for huge ranges a fixed
  // grain would mean thousands of queue handoffs per loop. Chunking does
  // not affect results (bodies write disjoint state), only sync cost.
  const std::size_t max_chunks = 8 * static_cast<std::size_t>(parallelism());
  grain = std::max(grain, (end - begin + max_chunks - 1) / max_chunks);
  const std::size_t num_chunks = (end - begin + grain - 1) / grain;
  if (num_chunks == 1 || workers_.empty()) {
    body(begin, end);  // Inline: an exception propagates directly.
    return;
  }
  auto state = std::make_shared<LoopState>();
  state->num_chunks = num_chunks;
  state->begin = begin;
  state->end = end;
  state->grain = grain;
  state->body = &body;

  const std::size_t helpers =
      std::min(num_chunks - 1, workers_.size());
  for (std::size_t h = 0; h < helpers; ++h) {
    Submit([state] { RunChunks(state); });
  }
  RunChunks(state);  // The caller is one of the compute threads.

  sync::MutexLock lock(&state->mu);
  state->all_done.Wait(state->mu, [&] {
    return state->chunks_done.load() == state->num_chunks;
  });
  if (state->first_exception) std::rethrow_exception(state->first_exception);
}

void ThreadPool::ParallelFor(std::size_t begin, std::size_t end,
                             std::size_t grain,
                             const std::function<void(std::size_t)>& body) {
  ParallelForBlocks(begin, end, grain,
                    [&body](std::size_t lo, std::size_t hi) {
                      for (std::size_t i = lo; i < hi; ++i) body(i);
                    });
}

double ThreadPool::ParallelSumBlocks(
    std::size_t begin, std::size_t end, std::size_t block,
    const std::function<double(std::size_t, std::size_t)>& body) {
  if (begin >= end) return 0.0;
  block = std::max<std::size_t>(1, block);
  const std::size_t num_blocks = (end - begin + block - 1) / block;
  std::vector<double> partial(num_blocks, 0.0);
  // Grain 1 in block space: each work unit is one fixed block, writing
  // its own slot.
  ParallelFor(0, num_blocks, 1, [&](std::size_t k) {
    const std::size_t lo = begin + k * block;
    partial[k] = body(lo, std::min(end, lo + block));
  });
  double sum = 0.0;
  for (const double p : partial) sum += p;
  return sum;
}

namespace {

sync::Mutex shared_pool_mu;
std::unique_ptr<ThreadPool>& SharedPoolSlot() {
  static std::unique_ptr<ThreadPool> pool;
  return pool;
}

}  // namespace

ThreadPool& ThreadPool::Shared() {
  sync::MutexLock lock(&shared_pool_mu);
  auto& pool = SharedPoolSlot();
  if (!pool) {
    const unsigned hw = std::thread::hardware_concurrency();
    pool = std::make_unique<ThreadPool>(hw == 0 ? 1 : static_cast<int>(hw));
  }
  return *pool;
}

Status ThreadPool::SetSharedParallelism(int parallelism) {
  const int wanted = std::max(1, parallelism);
  sync::MutexLock lock(&shared_pool_mu);
  auto& pool = SharedPoolSlot();
  if (!pool) {
    pool = std::make_unique<ThreadPool>(wanted);
    return Status::OK();
  }
  if (pool->parallelism() == wanted) return Status::OK();
  return Status::FailedPrecondition(
      "shared thread pool already sized to " +
      std::to_string(pool->parallelism()) + " threads; cannot resize to " +
      std::to_string(wanted) +
      " (the size is sticky once the pool exists — set --threads before "
      "any parallel work runs)");
}

void ThreadPool::ResetSharedPoolForTests(int parallelism) {
  sync::MutexLock lock(&shared_pool_mu);
  auto& pool = SharedPoolSlot();
  if (pool && pool->parallelism() == std::max(1, parallelism)) return;
  pool.reset();  // Join the old workers before replacing them.
  pool = std::make_unique<ThreadPool>(parallelism);
}

}  // namespace dpcube
