#pragma once

/// \file thread_pool.hpp
/// \brief Fixed-size worker pool for the experiment harness.
///
/// Experiment campaigns run thousands of independent (schedule, realization)
/// simulations; ThreadPool spreads them over hardware threads.  Results stay
/// deterministic because every simulation derives its RNG stream from its
/// own (scenario, repetition) tag, never from execution order.

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <future>
#include <mutex>
#include <thread>
#include <vector>

namespace cloudwf {

/// Simple FIFO thread pool; tasks are std::function<void()>.
class ThreadPool {
 public:
  /// Spawns exactly \p workers threads.  A pool of 0 workers spawns none: it
  /// runs submitted tasks and parallel_for bodies inline on the caller.
  explicit ThreadPool(std::size_t workers);

  /// Drains the queue and joins all workers.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueues \p task; returns a future for its completion/exception.
  std::future<void> submit(std::function<void()> task);

  /// Runs \p body(i) for i in [0, count) on the workers and the caller,
  /// so at most thread_count() + 1 bodies run at once, and waits; the first
  /// exception (if any) is rethrown on the caller.
  void parallel_for(std::size_t count, const std::function<void(std::size_t)>& body);

  [[nodiscard]] std::size_t thread_count() const { return workers_.size(); }

 private:
  void worker_loop();

  std::vector<std::thread> workers_;
  std::deque<std::packaged_task<void()>> queue_;
  std::mutex mutex_;
  std::condition_variable cv_;
  bool stopping_ = false;
};

}  // namespace cloudwf
