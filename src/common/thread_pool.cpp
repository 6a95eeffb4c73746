#include "common/thread_pool.hpp"

#include <algorithm>
#include <atomic>
#include <exception>

#include "common/error.hpp"

namespace cloudwf {

ThreadPool::ThreadPool(std::size_t workers) {
  workers_.reserve(workers);
  for (std::size_t i = 0; i < workers; ++i) workers_.emplace_back([this] { worker_loop(); });
}

ThreadPool::~ThreadPool() {
  {
    const std::lock_guard lock(mutex_);
    stopping_ = true;
  }
  cv_.notify_all();
  for (auto& worker : workers_) worker.join();
}

std::future<void> ThreadPool::submit(std::function<void()> task) {
  require(static_cast<bool>(task), "ThreadPool::submit: empty task");
  std::packaged_task<void()> packaged(std::move(task));
  auto future = packaged.get_future();
  if (workers_.empty()) {
    packaged();
    return future;
  }
  {
    const std::lock_guard lock(mutex_);
    require(!stopping_, "ThreadPool::submit: pool is shutting down");
    queue_.push_back(std::move(packaged));
  }
  cv_.notify_one();
  return future;
}

void ThreadPool::parallel_for(std::size_t count, const std::function<void(std::size_t)>& body) {
  if (count == 0) return;
  // Dynamic scheduling over a shared index: simulation times vary by orders
  // of magnitude across scenarios (HEFTBUDG vs HEFTBUDG+), so static
  // chunking would leave workers idle.
  std::atomic<std::size_t> next{0};
  std::exception_ptr first_error;
  std::mutex error_mutex;
  const auto drain = [&] {
    for (;;) {
      const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= count) return;
      try {
        body(i);
      } catch (...) {
        const std::lock_guard lock(error_mutex);
        if (!first_error) first_error = std::current_exception();
      }
    }
  };

  std::vector<std::future<void>> futures;
  const std::size_t helpers = std::min(workers_.size(), count - 1);
  futures.reserve(helpers);
  for (std::size_t i = 0; i < helpers; ++i) futures.push_back(submit(drain));
  drain();  // the caller participates too
  for (auto& f : futures) f.wait();
  if (first_error) std::rethrow_exception(first_error);
}

void ThreadPool::worker_loop() {
  for (;;) {
    std::packaged_task<void()> task;
    {
      std::unique_lock lock(mutex_);
      cv_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stopping_ and drained
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    task();  // packaged_task captures exceptions into the future
  }
}

}  // namespace cloudwf
