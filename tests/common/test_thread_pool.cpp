#include "common/thread_pool.hpp"

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <functional>
#include <gtest/gtest.h>
#include <memory>
#include <mutex>
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

/// How long a test waits for another thread before it fails.
constexpr auto kTimeout = std::chrono::seconds(10);

/// std::latch with a deadline on wait(), so a regression that stops a
/// thread from arriving fails the test instead of hanging it.
class Latch {
public:
  explicit Latch(int count) : count_(count) {}

  void count_down() {
    std::lock_guard<std::mutex> lock(mutex_);
    if (--count_ == 0) reached_.notify_all();
  }

  /// True once the count reached zero; false when kTimeout passed first.
  bool wait() {
    std::unique_lock<std::mutex> lock(mutex_);
    return reached_.wait_for(lock, kTimeout, [this] { return count_ <= 0; });
  }

  bool arrive_and_wait() {
    count_down();
    return wait();
  }

private:
  std::mutex mutex_;
  std::condition_variable reached_;
  int count_;
};

/// Run `scenario` on a thread of its own and wait at most kTimeout for it,
/// so a deadlock fails the test instead of hanging the suite. The scenario
/// must own what it touches: on a timeout its thread is detached and left
/// blocked until the process exits.
bool finishes_in_time(std::function<void()> scenario) {
  auto done = std::make_shared<Latch>(1);
  std::thread runner([done, scenario = std::move(scenario)]() mutable {
    scenario();
    scenario = nullptr;  // release the scenario's state before reporting
    done->count_down();
  });
  const bool finished = done->wait();
  if (finished)
    runner.join();
  else
    runner.detach();
  return finished;
}

TEST(ThreadPoolTest, DestructorDrainsPendingTasks) {
  // Each loop's caller can finish it before the helper tasks it queued
  // start; the destructor runs those helpers (they find nothing left to
  // claim) before it joins.
  std::atomic<int> done{0};
  {
    ThreadPool pool(2);
    for (int i = 0; i < 50; ++i)
      pool.parallel_for(0, 2, [&done](std::size_t) { ++done; });
  }
  EXPECT_EQ(done.load(), 100);
}

TEST(ThreadPoolTest, PoolDestroyedWithHelpersStillQueuedJoinsCleanly) {
  // The caller finishes an inner loop alone while both workers are held
  // in the outer one, so the inner loop's helpers are still queued when
  // it returns, and the pool is destroyed right after the outer loop.
  auto hits = std::make_shared<std::atomic<int>>(0);
  EXPECT_TRUE(finishes_in_time([hits] {
    for (int round = 0; round < 20; ++round) {
      ThreadPool pool(2);
      Latch held(3);
      Latch release(1);
      const auto caller = std::this_thread::get_id();
      pool.parallel_for(0, 3, [&](std::size_t) {
        EXPECT_TRUE(held.arrive_and_wait());
        if (std::this_thread::get_id() != caller) {
          EXPECT_TRUE(release.wait());
          return;
        }
        pool.parallel_for(0, 4, [&](std::size_t) { ++*hits; });
        release.count_down();
      });
    }
  }));
  EXPECT_EQ(hits->load(), 20 * 4);
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

TEST(ThreadPoolTest, LowestIndexWinsWhenTheCallersIndexThrows) {
  // Three indices on three threads (each waits for the other two), all
  // throwing: index 0 is reported whether the caller or a worker ran it.
  ThreadPool pool(2);
  const auto caller = std::this_thread::get_id();
  for (int round = 0; round < 20 && !HasFailure(); ++round) {
    Latch all(3);
    bool caller_threw = false;
    try {
      pool.parallel_for(0, 3, [&](std::size_t i) {
        EXPECT_TRUE(all.arrive_and_wait());
        if (std::this_thread::get_id() == caller) caller_threw = true;
        throw IndexedError(i);
      });
      ADD_FAILURE() << "expected an exception";
    } catch (const IndexedError& error) {
      EXPECT_EQ(error.index, 0u) << "round " << round;
    }
    EXPECT_TRUE(caller_threw) << "round " << round;
  }
}

TEST(ThreadPoolTest, LowestIndexWinsAcrossNestedLoops) {
  auto pool = std::make_shared<ThreadPool>(4);
  auto reported = std::make_shared<std::atomic<std::size_t>>(0);
  EXPECT_TRUE(finishes_in_time([pool, reported] {
    try {
      pool->parallel_for(0, 8, [&](std::size_t i) {
        pool->parallel_for(0, 8, [&](std::size_t j) {
          if (i >= 2 && j >= 3) throw IndexedError(i * 8 + j);
        });
      });
    } catch (const IndexedError& error) {
      *reported = error.index;
    }
  }));
  EXPECT_EQ(reported->load(), 19u);  // outer index 2, inner index 3
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
  std::vector<std::size_t> order;
  const auto caller = std::this_thread::get_id();
  pool.parallel_for(0, 5, [&](std::size_t i) {
    EXPECT_EQ(std::this_thread::get_id(), caller);
    order.push_back(i);  // no synchronisation needed: inline == serial
  });
  EXPECT_EQ(order, (std::vector<std::size_t>{0, 1, 2, 3, 4}));
}

TEST(ThreadPoolTest, CallerFinishesItsLoopWhileEveryWorkerIsBusy) {
  // Another caller's loop holds both workers. This caller's loop still
  // finishes: it claims every index itself instead of waiting for helper
  // tasks that cannot start.
  ThreadPool pool(2);
  Latch busy(3);
  Latch release(1);
  std::thread other([&] {
    pool.parallel_for(0, 3, [&](std::size_t) {
      busy.count_down();
      EXPECT_TRUE(release.wait()) << "the blocked caller held the workers";
    });
  });
  EXPECT_TRUE(busy.wait()) << "the other loop never held both workers";
  std::vector<std::atomic<int>> hits(64);
  pool.parallel_for(0, hits.size(), [&](std::size_t i) { ++hits[i]; });
  release.count_down();
  other.join();
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPoolTest, NestedLoopOnAWorkerRunsItsIndicesAtOnce) {
  // A loop issued from a worker's index fans out: its two indices meet at
  // a latch, which an inline inner loop could never do.
  ThreadPool pool(4);
  const auto caller = std::this_thread::get_id();
  Latch worker_started(1);
  Latch inner(2);
  std::atomic<bool> issued{false};
  pool.parallel_for(0, 2, [&](std::size_t) {
    if (std::this_thread::get_id() == caller) {
      // Hold the caller here, so a worker takes the other index.
      EXPECT_TRUE(worker_started.wait());
      return;
    }
    if (issued.exchange(true)) return;
    worker_started.count_down();
    pool.parallel_for(0, 2, [&](std::size_t) {
      EXPECT_TRUE(inner.arrive_and_wait()) << "the inner loop ran serially";
    });
  });
  EXPECT_TRUE(issued.load());
}

TEST(ThreadPoolTest, NestedLoopsOnEveryWorkerFinishWithoutDeadlock) {
  // Every worker waits on a loop issued from its own index while the inner
  // loops' helpers queue behind the outer ones; each inner loop's issuer
  // claims its indices itself, so no wait depends on a queued task.
  struct State {
    ThreadPool pool{2};
    std::vector<std::atomic<int>> sums = std::vector<std::atomic<int>>(8);
  };
  auto state = std::make_shared<State>();
  EXPECT_TRUE(finishes_in_time([state] {
    state->pool.parallel_for(0, 8, [&](std::size_t i) {
      state->pool.parallel_for(0, 4, [&](std::size_t j) {
        state->sums[i] += static_cast<int>(i * 10 + j);
      });
    });
  }));
  for (std::size_t i = 0; i < 8; ++i)
    EXPECT_EQ(state->sums[i].load(), static_cast<int>(i * 40 + 6));
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
  // Outside threads (perftrackd connection threads retracking different
  // studies) feed one pool at once, each with nested loops that fan out
  // on the same workers: every index runs exactly once, and nobody waits
  // forever.
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
