#include "common/thread_pool.h"

#include <atomic>
#include <exception>
#include <limits>

namespace volcast::common {

namespace {
/// Set inside worker threads so nested parallel_for degrades to serial
/// instead of deadlocking on the pool it is already running on.
thread_local bool tls_in_pool_worker = false;
}  // namespace

struct ThreadPool::Batch {
  const std::function<void(std::size_t)>* chunk_fn = nullptr;
  std::size_t chunks = 0;
  std::atomic<std::size_t> next{0};          // chunk claim ticket
  std::size_t done = 0;                      // guarded by pool mu_
  /// Workers currently inside execute() on this batch (guarded by pool
  /// mu_). The caller owns the batch and keeps it alive until this drops
  /// to zero, so no worker ever touches it, or the exceptions it holds,
  /// after the caller returns.
  std::size_t attached = 0;
  std::vector<std::exception_ptr> errors;    // one slot per chunk
  /// Lowest chunk index that has failed so far; chunks claimed behind it
  /// are cancelled (fail-fast) instead of run.
  std::atomic<std::size_t> first_error{std::numeric_limits<std::size_t>::max()};
};

ThreadPool::ThreadPool(std::size_t threads) {
  if (threads == 0) {
    threads = std::thread::hardware_concurrency();
    if (threads == 0) threads = 1;
  }
  thread_count_ = threads;
  workers_.reserve(threads > 0 ? threads - 1 : 0);
  for (std::size_t i = 0; i + 1 < threads; ++i)
    workers_.emplace_back([this] { worker_loop(); });
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& worker : workers_) worker.join();
}

void ThreadPool::execute(Batch& batch) {
  for (;;) {
    const std::size_t chunk =
        batch.next.fetch_add(1, std::memory_order_relaxed);
    if (chunk >= batch.chunks) return;
    // Fail-fast: skip a claimed chunk only when a *strictly lower* chunk
    // already failed — the lowest recorded failure then provably ran, so
    // the lowest-failure rethrow contract survives cancellation.
    if (batch.first_error.load(std::memory_order_acquire) < chunk) {
      std::lock_guard<std::mutex> lock(mu_);
      if (++batch.done == batch.chunks) done_cv_.notify_all();
      continue;
    }
    try {
      (*batch.chunk_fn)(chunk);
    } catch (...) {
      batch.errors[chunk] = std::current_exception();
      std::size_t prev = batch.first_error.load(std::memory_order_relaxed);
      while (chunk < prev &&
             !batch.first_error.compare_exchange_weak(
                 prev, chunk, std::memory_order_release,
                 std::memory_order_relaxed)) {
      }
    }
    std::lock_guard<std::mutex> lock(mu_);
    if (++batch.done == batch.chunks) done_cv_.notify_all();
  }
}

void ThreadPool::run_chunks(
    std::size_t chunks, const std::function<void(std::size_t)>& chunk_fn) {
  auto serial = [&] {
    for (std::size_t c = 0; c < chunks; ++c) chunk_fn(c);
  };
  if (tls_in_pool_worker) {  // nested use: run inline, same results
    serial();
    return;
  }
  Batch batch;
  batch.chunk_fn = &chunk_fn;
  batch.chunks = chunks;
  batch.errors.resize(chunks);
  {
    std::unique_lock<std::mutex> lock(mu_);
    if (batch_ != nullptr) {
      // Another thread is mid-batch on this pool (unsupported concurrent
      // use): degrade to serial rather than interleave two batches.
      lock.unlock();
      serial();
      return;
    }
    batch_ = &batch;
  }
  work_cv_.notify_all();
  execute(batch);  // the caller is one of the lanes
  {
    std::unique_lock<std::mutex> lock(mu_);
    done_cv_.wait(lock, [&] {
      return batch.done == batch.chunks && batch.attached == 0;
    });
    batch_ = nullptr;
  }
  // Deterministic error propagation: lowest chunk index wins.
  for (std::exception_ptr& error : batch.errors)
    if (error) std::rethrow_exception(error);
}

void ThreadPool::worker_loop() {
  tls_in_pool_worker = true;
  for (;;) {
    Batch* current = nullptr;
    {
      std::unique_lock<std::mutex> lock(mu_);
      work_cv_.wait(lock, [&] {
        return stop_ ||
               (batch_ != nullptr &&
                batch_->next.load(std::memory_order_relaxed) <
                    batch_->chunks);
      });
      if (stop_) return;
      current = batch_;
      ++current->attached;
    }
    execute(*current);
    std::lock_guard<std::mutex> lock(mu_);
    if (--current->attached == 0) done_cv_.notify_all();
  }
}

}  // namespace volcast::common
