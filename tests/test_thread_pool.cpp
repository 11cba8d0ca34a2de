#include "common/thread_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <numeric>
#include <stdexcept>
#include <string>
#include <vector>

namespace volcast::common {
namespace {

TEST(ThreadPool, CoversEveryIndexExactlyOnce) {
  for (std::size_t threads : {std::size_t{1}, std::size_t{2}, std::size_t{8}}) {
    ThreadPool pool(threads);
    for (std::size_t n : {std::size_t{0}, std::size_t{1}, std::size_t{3},
                          std::size_t{17}, std::size_t{1000}}) {
      std::vector<std::atomic<int>> hits(n);
      pool.parallel_for(n, [&](std::size_t i) { ++hits[i]; });
      for (std::size_t i = 0; i < n; ++i)
        EXPECT_EQ(hits[i].load(), 1) << "threads=" << threads << " n=" << n
                                     << " i=" << i;
    }
  }
}

TEST(ThreadPool, ZeroIterationsIsANoOp) {
  ThreadPool pool(4);
  bool called = false;
  pool.parallel_for(0, [&](std::size_t) { called = true; });
  EXPECT_FALSE(called);
}

TEST(ThreadPool, SlotWritesMatchSerialLoop) {
  const std::size_t n = 257;
  std::vector<double> serial(n);
  for (std::size_t i = 0; i < n; ++i)
    serial[i] = static_cast<double>(i) * 0.1 + 1.0 / (1.0 + static_cast<double>(i));

  ThreadPool pool(8);
  std::vector<double> parallel(n);
  pool.parallel_for(n, [&](std::size_t i) {
    parallel[i] = static_cast<double>(i) * 0.1 + 1.0 / (1.0 + static_cast<double>(i));
  });
  EXPECT_EQ(serial, parallel);
}

TEST(ThreadPool, ThreadCountReportsLanes) {
  EXPECT_EQ(ThreadPool(1).thread_count(), 1u);
  EXPECT_EQ(ThreadPool(3).thread_count(), 3u);
  EXPECT_GE(ThreadPool(0).thread_count(), 1u);  // hardware concurrency
}

TEST(ThreadPool, PropagatesExceptionFromLowestChunk) {
  ThreadPool pool(4);
  const std::size_t n = 64;
  // Several chunks throw; the caller must see the one from the lowest
  // chunk index (the one a serial loop would have hit first).
  try {
    pool.parallel_for(n, [&](std::size_t i) {
      if (i % 16 == 5) throw std::runtime_error("boom@" + std::to_string(i));
    });
    FAIL() << "expected parallel_for to rethrow";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "boom@5");
  }

  // The pool stays usable after an exceptional batch.
  std::vector<int> out(8, 0);
  pool.parallel_for(out.size(), [&](std::size_t i) { out[i] = 1; });
  EXPECT_EQ(std::accumulate(out.begin(), out.end(), 0), 8);
}

TEST(ThreadPool, NestedParallelForRunsSeriallyWithoutDeadlock) {
  ThreadPool pool(4);
  const std::size_t outer = 8;
  const std::size_t inner = 8;
  std::vector<std::atomic<int>> hits(outer * inner);
  pool.parallel_for(outer, [&](std::size_t o) {
    // Inner loop from a pool worker must degrade to serial inline execution
    // rather than waiting on the (already busy) pool.
    pool.parallel_for(inner, [&](std::size_t i) { ++hits[o * inner + i]; });
  });
  for (std::size_t k = 0; k < hits.size(); ++k)
    EXPECT_EQ(hits[k].load(), 1) << "k=" << k;
}

TEST(ThreadPool, SequentialBatchesReuseWorkers) {
  ThreadPool pool(4);
  std::vector<std::size_t> sums;
  for (int round = 0; round < 50; ++round) {
    const std::size_t n = 100;
    std::vector<std::size_t> slot(n);
    pool.parallel_for(n, [&](std::size_t i) { slot[i] = i; });
    sums.push_back(std::accumulate(slot.begin(), slot.end(), std::size_t{0}));
  }
  for (std::size_t s : sums) EXPECT_EQ(s, 4950u);
}

TEST(ThreadPool, ParallelTasksCoversEveryIndexExactlyOnce) {
  for (std::size_t threads : {std::size_t{1}, std::size_t{2}, std::size_t{8}}) {
    ThreadPool pool(threads);
    for (std::size_t n : {std::size_t{0}, std::size_t{1}, std::size_t{3},
                          std::size_t{64}, std::size_t{500}}) {
      std::vector<std::atomic<int>> hits(n);
      pool.parallel_tasks(n, [&](std::size_t i) { ++hits[i]; });
      for (std::size_t i = 0; i < n; ++i)
        EXPECT_EQ(hits[i].load(), 1) << "threads=" << threads << " n=" << n
                                     << " i=" << i;
    }
  }
}

TEST(ThreadPool, ParallelTasksRethrowsLowestFailedTask) {
  ThreadPool pool(4);
  try {
    pool.parallel_tasks(32, [&](std::size_t i) {
      if (i == 9 || i == 3) throw std::runtime_error("t@" + std::to_string(i));
    });
    FAIL() << "expected parallel_tasks to rethrow";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "t@3");
  }
}

TEST(ThreadPool, RepeatedThrowingBatchesHandBackTheException) {
  // The rethrown exception must stay the caller's alone once the batch
  // returns: no worker may still hold the batch that owned it. Reading
  // what() on every round is what a sanitizer build checks.
  ThreadPool pool(4);
  for (int round = 0; round < 100; ++round) {
    try {
      pool.parallel_for(64, [&](std::size_t i) {
        if (i % 8 == 3) throw std::runtime_error("for@" + std::to_string(i));
      });
      FAIL() << "expected parallel_for to rethrow";
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "for@3");
    }
    try {
      pool.parallel_tasks(16, [&](std::size_t i) {
        if (i >= 5) throw std::runtime_error("task@" + std::to_string(i));
      });
      FAIL() << "expected parallel_tasks to rethrow";
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "task@5");
    }
  }
}

TEST(ThreadPool, FailFastCancelsUnclaimedTasks) {
  // Task 0 (claimed in the very first wave) throws immediately; the other
  // tasks each burn a visible spin so the failure is recorded long before
  // the queue could drain. At least one (in practice, almost all) of the
  // remaining tasks must be cancelled instead of run.
  ThreadPool pool(4);
  const std::size_t n = 1000;
  std::atomic<std::size_t> executed{0};
  try {
    pool.parallel_tasks(n, [&](std::size_t i) {
      if (i == 0) throw std::runtime_error("die-first");
      for (volatile int spin = 0; spin < 20'000;) spin = spin + 1;
      executed.fetch_add(1, std::memory_order_relaxed);
    });
    FAIL() << "expected parallel_tasks to rethrow";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "die-first");
  }
  EXPECT_LT(executed.load(), n - 1) << "no task was cancelled after failure";

  // The pool stays usable and a clean batch runs every index again.
  std::vector<int> out(16, 0);
  pool.parallel_tasks(out.size(), [&](std::size_t i) { out[i] = 1; });
  EXPECT_EQ(std::accumulate(out.begin(), out.end(), 0), 16);
}

TEST(ThreadPool, SerialParallelTasksCancelImmediatelyOnThrow) {
  // One lane = inline loop: everything after the throwing index must be
  // skipped, exactly like a serial for loop.
  ThreadPool pool(1);
  std::size_t ran = 0;
  EXPECT_THROW(pool.parallel_tasks(100,
                                   [&](std::size_t i) {
                                     if (i == 7)
                                       throw std::runtime_error("stop");
                                     ++ran;
                                   }),
               std::runtime_error);
  EXPECT_EQ(ran, 7u);
}

TEST(ThreadPool, StaticRunFallsBackToSerialWithoutPool) {
  std::vector<int> hits(16, 0);
  ThreadPool::run(nullptr, hits.size(), [&](std::size_t i) { ++hits[i]; });
  for (int h : hits) EXPECT_EQ(h, 1);

  ThreadPool pool(2);
  std::vector<int> hits2(16, 0);
  ThreadPool::run(&pool, hits2.size(), [&](std::size_t i) { ++hits2[i]; });
  for (int h : hits2) EXPECT_EQ(h, 1);
}

}  // namespace
}  // namespace volcast::common
