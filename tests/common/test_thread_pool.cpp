/// \file test_thread_pool.cpp
/// \brief Unit tests for the worker pool (common/thread_pool).

#include "common/thread_pool.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <vector>

#include "common/error.hpp"

namespace cloudwf {
namespace {

TEST(ThreadPool, RunsSubmittedTasks) {
  ThreadPool pool(2);
  std::atomic<int> counter{0};
  std::vector<std::future<void>> futures;
  for (int i = 0; i < 20; ++i)
    futures.push_back(pool.submit([&] { counter.fetch_add(1); }));
  for (auto& f : futures) f.wait();
  EXPECT_EQ(counter.load(), 20);
}

TEST(ThreadPool, SubmitPropagatesException) {
  ThreadPool pool(1);
  auto future = pool.submit([] { throw std::runtime_error("boom"); });
  EXPECT_THROW(future.get(), std::runtime_error);
}

TEST(ThreadPool, ParallelForCoversEveryIndexOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(1000);
  pool.parallel_for(hits.size(), [&](std::size_t i) { hits[i].fetch_add(1); });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, ParallelForZeroCountIsNoop) {
  ThreadPool pool(2);
  bool called = false;
  pool.parallel_for(0, [&](std::size_t) { called = true; });
  EXPECT_FALSE(called);
}

TEST(ThreadPool, ParallelForRethrowsFirstError) {
  ThreadPool pool(2);
  EXPECT_THROW(pool.parallel_for(100,
                                 [&](std::size_t i) {
                                   if (i == 42) throw std::runtime_error("at 42");
                                 }),
               std::runtime_error);
}

TEST(ThreadPool, ParallelForContinuesAfterError) {
  // All indexes are still visited even when one throws.
  ThreadPool pool(2);
  std::atomic<int> visited{0};
  try {
    pool.parallel_for(50, [&](std::size_t i) {
      visited.fetch_add(1);
      if (i == 0) throw std::runtime_error("early");
    });
  } catch (const std::runtime_error&) {
  }
  EXPECT_EQ(visited.load(), 50);
}

TEST(ThreadPool, EmptyTaskRejected) {
  ThreadPool pool(1);
  EXPECT_THROW((void)pool.submit({}), InvalidArgument);
}

TEST(ThreadPool, ZeroWorkersRunEveryBodyOnTheCaller) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.thread_count(), 0u);
  const std::thread::id caller = std::this_thread::get_id();
  std::vector<std::thread::id> ran(20);
  pool.parallel_for(ran.size(), [&](std::size_t i) { ran[i] = std::this_thread::get_id(); });
  for (const std::thread::id id : ran) EXPECT_EQ(id, caller);
  std::thread::id submitted;
  pool.submit([&] { submitted = std::this_thread::get_id(); }).get();
  EXPECT_EQ(submitted, caller);
}

TEST(ThreadPool, NeverRunsMoreThanWorkersPlusCaller) {
  for (const std::size_t workers : {0u, 1u, 2u, 4u}) {
    ThreadPool pool(workers);
    std::atomic<std::size_t> running{0};
    std::atomic<std::size_t> peak{0};
    pool.parallel_for(64, [&](std::size_t) {
      const std::size_t now = running.fetch_add(1) + 1;
      std::size_t seen = peak.load();
      while (now > seen && !peak.compare_exchange_weak(seen, now)) {
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
      running.fetch_sub(1);
    });
    EXPECT_GE(peak.load(), 1u) << workers;
    EXPECT_LE(peak.load(), workers + 1) << workers;
  }
}

TEST(ThreadPool, SingleThreadStillWorksFromWorkerContext) {
  // parallel_for from the caller thread with one worker: caller participates.
  ThreadPool pool(1);
  std::atomic<int> counter{0};
  pool.parallel_for(10, [&](std::size_t) { counter.fetch_add(1); });
  EXPECT_EQ(counter.load(), 10);
}

}  // namespace
}  // namespace cloudwf
