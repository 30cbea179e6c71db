// Copyright 2026 The dpcube Authors.

#include "common/thread_pool.h"

#include <atomic>
#include <chrono>
#include <cstring>
#include <future>
#include <stdexcept>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"

namespace dpcube {
namespace {

TEST(ThreadPoolTest, ParallelismClampedToAtLeastOne) {
  ThreadPool zero(0);
  EXPECT_EQ(zero.parallelism(), 1);
  ThreadPool negative(-3);
  EXPECT_EQ(negative.parallelism(), 1);
  ThreadPool four(4);
  EXPECT_EQ(four.parallelism(), 4);
}

TEST(ThreadPoolTest, ParallelForVisitsEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  constexpr std::size_t kN = 10000;
  std::vector<std::atomic<int>> visits(kN);
  pool.ParallelFor(0, kN, 7, [&](std::size_t i) { visits[i]++; });
  for (std::size_t i = 0; i < kN; ++i) {
    ASSERT_EQ(visits[i].load(), 1) << "index " << i;
  }
}

TEST(ThreadPoolTest, ParallelForBlocksPartitionsTheRange) {
  ThreadPool pool(3);
  std::vector<std::atomic<int>> visits(1000);
  std::atomic<int> undersized_chunks{0};
  pool.ParallelForBlocks(100, 1000, 64,
                         [&](std::size_t lo, std::size_t hi) {
                           ASSERT_LT(lo, hi);
                           // `grain` is a lower bound on chunk size; only
                           // the tail chunk may come up short.
                           if (hi - lo < 64u) undersized_chunks++;
                           for (std::size_t i = lo; i < hi; ++i) visits[i]++;
                         });
  EXPECT_LE(undersized_chunks.load(), 1);
  for (std::size_t i = 0; i < 1000; ++i) {
    ASSERT_EQ(visits[i].load(), i >= 100 ? 1 : 0) << "index " << i;
  }
}

TEST(ThreadPoolTest, EmptyRangeIsANoOp) {
  ThreadPool pool(2);
  int calls = 0;
  pool.ParallelFor(5, 5, 1, [&](std::size_t) { ++calls; });
  pool.ParallelFor(7, 3, 1, [&](std::size_t) { ++calls; });
  EXPECT_EQ(calls, 0);
}

TEST(ThreadPoolTest, SingleThreadPoolRunsInline) {
  ThreadPool pool(1);
  const std::thread::id caller = std::this_thread::get_id();
  pool.ParallelFor(0, 100, 10, [&](std::size_t) {
    EXPECT_EQ(std::this_thread::get_id(), caller);
  });
}

TEST(ThreadPoolTest, NestedParallelForDoesNotDeadlock) {
  ThreadPool pool(2);  // Fewer threads than outstanding loops.
  std::atomic<int> total{0};
  pool.ParallelFor(0, 8, 1, [&](std::size_t) {
    pool.ParallelFor(0, 8, 1, [&](std::size_t) { total++; });
  });
  EXPECT_EQ(total.load(), 64);
}

TEST(ThreadPoolTest, ParallelForFromSubmittedTaskJoins) {
  ThreadPool pool(3);
  std::atomic<int> total{0};
  std::atomic<bool> done{false};
  pool.Submit([&] {
    pool.ParallelFor(0, 100, 3, [&](std::size_t) { total++; });
    done = true;
  });
  while (!done) std::this_thread::yield();
  EXPECT_EQ(total.load(), 100);
}

TEST(ThreadPoolTest, ConcurrentLoopsFromManyCallersInterleave) {
  ThreadPool pool(4);
  std::atomic<long> total{0};
  std::vector<std::thread> callers;
  for (int t = 0; t < 4; ++t) {
    callers.emplace_back([&] {
      for (int rep = 0; rep < 20; ++rep) {
        pool.ParallelFor(0, 500, 17, [&](std::size_t) { total++; });
      }
    });
  }
  for (auto& c : callers) c.join();
  EXPECT_EQ(total.load(), 4L * 20 * 500);
}

TEST(ThreadPoolTest, ExceptionPropagatesAfterFullJoin) {
  ThreadPool pool(4);
  constexpr std::size_t kN = 500;
  std::vector<std::atomic<int>> visits(kN);
  try {
    pool.ParallelForBlocks(0, kN, 1, [&](std::size_t lo, std::size_t hi) {
      for (std::size_t i = lo; i < hi; ++i) visits[i]++;
      if (lo <= 137 && 137 < hi) {
        throw std::runtime_error("chunk with index 137 failed");
      }
    });
    FAIL() << "expected the body's exception to propagate";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "chunk with index 137 failed");
  }
  // The join is structured: one chunk throwing does not cancel the
  // others, so every index was still visited exactly once.
  for (std::size_t i = 0; i < kN; ++i) {
    ASSERT_EQ(visits[i].load(), 1) << "index " << i;
  }
}

// The determinism contract under imbalance: per-index outputs derived
// from Rng::Stream must be bit-identical across pool sizes even when one
// task costs ~100x the others.
TEST(ThreadPoolTest, ImbalancedCostOutputsAreBitIdentical) {
  constexpr std::size_t kN = 400;
  constexpr std::uint64_t kBase = 0xfeedfacecafebeefULL;
  auto run = [&](int parallelism) {
    ThreadPool pool(parallelism);
    std::vector<double> out(kN, 0.0);
    pool.ParallelFor(0, kN, 1, [&](std::size_t i) {
      Rng rng = Rng::Stream(kBase, i);
      const int draws = (i == 0) ? 10000 : 100;  // 100x imbalance.
      double acc = 0.0;
      for (int s = 0; s < draws; ++s) acc += rng.NextGaussian();
      out[i] = acc;
    });
    return out;
  };
  const std::vector<double> base = run(1);
  for (const int parallelism : {2, 8}) {
    const std::vector<double> got = run(parallelism);
    ASSERT_EQ(base.size(), got.size());
    for (std::size_t i = 0; i < kN; ++i) {
      ASSERT_EQ(std::memcmp(&base[i], &got[i], sizeof(double)), 0)
          << "index " << i << " at parallelism " << parallelism;
    }
  }
}

TEST(ThreadPoolTest, SharedPoolSizeIsStickyAndResizeFailsLoudly) {
  // First sizing wins (this test binary has not touched the shared pool
  // before this point).
  ASSERT_TRUE(ThreadPool::SetSharedParallelism(3).ok());
  EXPECT_EQ(ThreadPool::Shared().parallelism(), 3);
  // Same size again: no-op, still OK.
  EXPECT_TRUE(ThreadPool::SetSharedParallelism(3).ok());
  // A DIFFERENT size must fail loudly and leave the pool untouched —
  // silently rebuilding would dangle every BatchExecutor/server holding
  // a reference into the old pool.
  const Status resize = ThreadPool::SetSharedParallelism(1);
  EXPECT_FALSE(resize.ok());
  EXPECT_EQ(resize.code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(ThreadPool::Shared().parallelism(), 3);
  // The test-only escape hatch still sweeps sizes.
  ThreadPool::ResetSharedPoolForTests(2);
  EXPECT_EQ(ThreadPool::Shared().parallelism(), 2);
}

TEST(ThreadPoolTest, QueueDepthAndBusyWorkersObservableUnderBlockedPool) {
  ThreadPool pool(3);  // 2 workers + the caller slot.
  EXPECT_EQ(pool.queue_depth(), 0u);
  EXPECT_EQ(pool.busy_workers(), 0);

  // Park both workers on a gate, then pile tasks behind them: the
  // parked tasks show up as busy workers, the waiting ones as depth.
  std::promise<void> release;
  std::shared_future<void> gate = release.get_future().share();
  std::atomic<int> parked{0};
  for (int w = 0; w < 2; ++w) {
    pool.Submit([gate, &parked] {
      parked.fetch_add(1);
      gate.wait();
    });
  }
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (parked.load() < 2 && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_EQ(parked.load(), 2);
  EXPECT_EQ(pool.busy_workers(), 2);

  constexpr int kQueued = 5;
  std::atomic<int> done{0};
  for (int i = 0; i < kQueued; ++i) {
    pool.Submit([&done] { done.fetch_add(1); });
  }
  // Every worker is parked, so nothing can claim the queued tasks yet.
  EXPECT_EQ(pool.queue_depth(), static_cast<std::size_t>(kQueued));
  EXPECT_EQ(done.load(), 0);

  release.set_value();
  while (done.load() < kQueued &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(done.load(), kQueued);
  EXPECT_EQ(pool.queue_depth(), 0u);
  // Workers are idle again once the drain settles.
  while (pool.busy_workers() != 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(pool.busy_workers(), 0);
}

}  // namespace
}  // namespace dpcube
