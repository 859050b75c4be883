#include "common/thread_pool.hpp"

#include <atomic>
#include <gtest/gtest.h>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <vector>

namespace perftrack {
namespace {

/// Exception carrying the index that threw, for propagation-order tests.
struct IndexedError : std::runtime_error {
  explicit IndexedError(std::size_t i)
      : std::runtime_error("task " + std::to_string(i)), index(i) {}
  std::size_t index;
};

TEST(ThreadPoolTest, SubmitReturnsValueThroughFuture) {
  ThreadPool pool(4);
  auto future = pool.submit([] { return 42; });
  EXPECT_EQ(future.get(), 42);
}

TEST(ThreadPoolTest, AllSubmittedTasksComplete) {
  ThreadPool pool(4);
  std::atomic<int> done{0};
  std::vector<std::future<void>> futures;
  for (int i = 0; i < 100; ++i)
    futures.push_back(pool.submit([&done] { ++done; }));
  for (auto& f : futures) f.get();
  EXPECT_EQ(done.load(), 100);
}

TEST(ThreadPoolTest, DestructorDrainsPendingTasks) {
  std::atomic<int> done{0};
  {
    ThreadPool pool(2);
    for (int i = 0; i < 50; ++i)
      pool.submit([&done] {
        std::this_thread::sleep_for(std::chrono::microseconds(100));
        ++done;
      });
  }  // destructor joins after the queue is empty
  EXPECT_EQ(done.load(), 50);
}

TEST(ThreadPoolTest, ParallelForCoversEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(1000);
  pool.parallel_for(0, hits.size(), [&](std::size_t i) { ++hits[i]; });
  for (std::size_t i = 0; i < hits.size(); ++i)
    EXPECT_EQ(hits[i].load(), 1) << "index " << i;
}

TEST(ThreadPoolTest, ParallelForEmptyAndReversedRangesAreNoOps) {
  ThreadPool pool(2);
  int calls = 0;
  pool.parallel_for(3, 3, [&](std::size_t) { ++calls; });
  pool.parallel_for(5, 2, [&](std::size_t) { ++calls; });
  EXPECT_EQ(calls, 0);
}

TEST(ThreadPoolTest, SubmitExceptionLandsInFuture) {
  ThreadPool pool(2);
  auto future = pool.submit([]() -> int { throw std::runtime_error("boom"); });
  EXPECT_THROW(future.get(), std::runtime_error);
}

TEST(ThreadPoolTest, ParallelForPropagatesLowestIndexException) {
  for (std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    ThreadPool pool(threads);
    try {
      pool.parallel_for(0, 64, [](std::size_t i) {
        if (i >= 17) throw IndexedError(i);
      });
      FAIL() << "expected an exception (threads=" << threads << ")";
    } catch (const IndexedError& error) {
      // Regardless of which task finished first, the earliest failing
      // index is the one reported.
      EXPECT_EQ(error.index, 17u) << "threads=" << threads;
    }
  }
}

TEST(ThreadPoolTest, ParallelForFinishesAllIndicesBeforeThrowing) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(128);
  EXPECT_THROW(pool.parallel_for(0, hits.size(),
                                 [&](std::size_t i) {
                                   ++hits[i];
                                   if (i % 3 == 0) throw IndexedError(i);
                                 }),
               IndexedError);
  // No task was abandoned: state the caller owns is fully settled.
  int total = 0;
  for (auto& h : hits) total += h.load();
  EXPECT_EQ(total, 128);
}

TEST(ThreadPoolTest, InlinePoolRunsOnCallerThreadInOrder) {
  ThreadPool pool(1);
  EXPECT_EQ(pool.thread_count(), 1u);
  std::vector<int> order;
  const auto caller = std::this_thread::get_id();
  for (int i = 0; i < 5; ++i)
    pool.submit([&, i] {
      EXPECT_EQ(std::this_thread::get_id(), caller);
      order.push_back(i);  // no synchronisation needed: inline == serial
    });
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(ThreadPoolTest, ReentrantSubmitRunsInlineWithoutDeadlock) {
  // Every worker blocks on a task it submitted itself; without the
  // reentrancy guard the inner tasks would sit behind the outer ones in
  // the queue forever.
  ThreadPool pool(2);
  std::vector<std::future<int>> outer;
  for (int i = 0; i < 8; ++i)
    outer.push_back(pool.submit([&pool, i] {
      auto inner = pool.submit([i] { return i * 10; });
      return inner.get() + 1;
    }));
  for (int i = 0; i < 8; ++i) EXPECT_EQ(outer[i].get(), i * 10 + 1);
}

TEST(ThreadPoolTest, NestedParallelForCompletes) {
  ThreadPool pool(2);
  std::vector<std::atomic<int>> hits(64);
  pool.parallel_for(0, 8, [&](std::size_t i) {
    pool.parallel_for(0, 8, [&](std::size_t j) { ++hits[i * 8 + j]; });
  });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPoolTest, ThreadCountAndResolve) {
  EXPECT_EQ(ThreadPool(0).thread_count(), 1u);
  EXPECT_EQ(ThreadPool(1).thread_count(), 1u);
  EXPECT_EQ(ThreadPool(3).thread_count(), 3u);
  EXPECT_GE(ThreadPool::default_thread_count(), 1u);
  EXPECT_EQ(ThreadPool::resolve(0), ThreadPool::default_thread_count());
  EXPECT_EQ(ThreadPool::resolve(7), 7u);
}

TEST(ThreadPoolTest, SharedReturnsOnePoolPerCount) {
  ThreadPool& two = ThreadPool::shared(2);
  EXPECT_EQ(&ThreadPool::shared(2), &two);
  EXPECT_EQ(two.thread_count(), 2u);
  EXPECT_NE(&ThreadPool::shared(3), &two);
  // Zero and one both resolve to the inline pool.
  EXPECT_EQ(&ThreadPool::shared(0), &ThreadPool::shared(1));
  EXPECT_EQ(ThreadPool::shared(1).thread_count(), 1u);
}

TEST(ThreadPoolTest, SharedPoolServesConcurrentCallersWithNesting) {
  // Outside threads (perftrackd connections retracking different studies)
  // feed one pool at once, each with nested parallel_for bodies that run
  // inline on the workers: every index runs exactly once, and nobody
  // waits forever.
  ThreadPool& pool = ThreadPool::shared(4);
  constexpr std::size_t kCallers = 6;
  constexpr std::size_t kOuter = 16;
  constexpr std::size_t kInner = 8;
  constexpr int kRounds = 20;
  std::vector<std::atomic<int>> hits(kCallers * kOuter * kInner);
  std::vector<std::thread> callers;
  for (std::size_t c = 0; c < kCallers; ++c)
    callers.emplace_back([&, c] {
      for (int round = 0; round < kRounds; ++round)
        pool.parallel_for(0, kOuter, [&](std::size_t i) {
          pool.parallel_for(0, kInner, [&](std::size_t j) {
            ++hits[(c * kOuter + i) * kInner + j];
          });
        });
    });
  for (std::thread& caller : callers) caller.join();
  for (auto& h : hits) EXPECT_EQ(h.load(), kRounds);
}

}  // namespace
}  // namespace perftrack
