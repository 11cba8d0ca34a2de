// Fixed-size worker pool with a deterministic parallel_for primitive.
//
// The video-store build and the fleet runner must produce bit-identical
// results for any thread count, so parallel_for makes only one guarantee
// interesting to callers: fn(i) is invoked exactly once for every i in
// [0, n), with results expected to land in pre-sized per-index slots.
// The index range is partitioned into min(thread_count, n) contiguous
// chunks; which OS thread executes which chunk is unspecified and must
// not matter. Order-dependent accumulation (counters, running sums)
// belongs in per-index slots reduced serially after the parallel region —
// never in shared floats or atomics.
//
// Usage notes:
//   * thread_count() == 1 (or n <= 1) runs inline on the caller — the serial
//     path, with zero synchronization.
//   * The calling thread participates in the work, so a pool of N provides N
//     lanes with N-1 spawned workers.
//   * Nested parallel_for (from inside a task) runs the inner loop serially
//     on the worker — safe, still deterministic, never deadlocks.
//   * Exceptions thrown by fn are captured and the one from the lowest chunk
//     index is rethrown on the caller after the whole batch finishes.
//   * Fail-fast: once any chunk has failed, chunks *behind* it that were not
//     yet claimed are cancelled instead of run. Only indexes above a failure
//     are ever skipped, so the lowest-failure rethrow stays deterministic.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace volcast::common {

class ThreadPool {
 public:
  /// Spawns `threads - 1` workers (the caller is the remaining lane).
  /// `threads == 0` means std::thread::hardware_concurrency().
  explicit ThreadPool(std::size_t threads = 0);
  ~ThreadPool();
  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Total parallel lanes (spawned workers + the calling thread).
  [[nodiscard]] std::size_t thread_count() const noexcept {
    return thread_count_;
  }

  /// Calls fn(i) exactly once for each i in [0, n); blocks until all
  /// invocations finished. Deterministic for slot-indexed writes.
  template <typename Fn>
  void parallel_for(std::size_t n, Fn&& fn) {
    if (n == 0) return;
    const std::size_t chunks = std::min(thread_count_, n);
    if (chunks <= 1 || workers_.empty()) {
      for (std::size_t i = 0; i < n; ++i) fn(i);
      return;
    }
    run_chunks(chunks, [&fn, n, chunks](std::size_t chunk) {
      const std::size_t lo = n * chunk / chunks;
      const std::size_t hi = n * (chunk + 1) / chunks;
      for (std::size_t i = lo; i < hi; ++i) fn(i);
    });
  }

  /// Like parallel_for, but every index is its own claimable task (tasks
  /// may outnumber lanes), so heavyweight, unevenly-sized jobs
  /// load-balance dynamically and fail-fast cancellation has real unstarted
  /// work to cancel. fn(i) runs at most once per i: after any task throws,
  /// tasks with a higher index that were not yet claimed are skipped, and
  /// the exception from the lowest-indexed failed task is rethrown. Use for
  /// coarse jobs (whole sessions); parallel_for's contiguous chunks remain
  /// the right shape for fine-grained per-element loops.
  template <typename Fn>
  void parallel_tasks(std::size_t n, Fn&& fn) {
    if (n == 0) return;
    if (thread_count_ <= 1 || workers_.empty() || n == 1) {
      // Serial path: a throw propagates immediately, cancelling the rest —
      // the same fail-fast contract with zero synchronization.
      for (std::size_t i = 0; i < n; ++i) fn(i);
      return;
    }
    run_chunks(n, [&fn](std::size_t i) { fn(i); });
  }

  /// Convenience for optional pools: runs on `pool` when non-null, else
  /// serially inline. Lets subsystems accept a `ThreadPool*` that defaults
  /// to nullptr without branching at every call site.
  template <typename Fn>
  static void run(ThreadPool* pool, std::size_t n, Fn&& fn) {
    if (pool != nullptr) {
      pool->parallel_for(n, std::forward<Fn>(fn));
      return;
    }
    for (std::size_t i = 0; i < n; ++i) fn(i);
  }

 private:
  struct Batch;

  /// Runs chunk_fn(c) for each c in [0, chunks) across the pool.
  void run_chunks(std::size_t chunks,
                  const std::function<void(std::size_t)>& chunk_fn);
  void execute(Batch& batch);
  void worker_loop();

  std::size_t thread_count_ = 1;
  std::vector<std::thread> workers_;

  std::mutex mu_;
  std::condition_variable work_cv_;   // workers wait for a batch
  std::condition_variable done_cv_;   // caller waits for completion
  Batch* batch_ = nullptr;            // caller-owned active batch (mu_)
  bool stop_ = false;                 // guarded by mu_
};

}  // namespace volcast::common
