#include "common/thread_pool.hpp"

#include <algorithm>
#include <atomic>
#include <exception>
#include <map>
#include <memory>
#include <new>
#include <utility>

namespace perftrack {

namespace {

/// One parallel_for in flight, shared by its caller and its helper tasks.
/// A helper that starts after the caller returned finds the counter
/// drained, so it never touches `body`, whose frame is gone by then.
struct Loop {
  Loop(std::size_t begin, std::size_t end,
       const std::function<void(std::size_t)>& body)
      : end(end), body(body), next(begin), unsettled(end - begin) {}

  /// Run claimed indices until none is left to claim.
  void drain() {
    for (std::size_t i; (i = next.fetch_add(1)) < end;) {
      try {
        body(i);
      } catch (...) {
        std::lock_guard<std::mutex> lock(mutex);
        if (!error || i < failed) {
          failed = i;
          error = std::current_exception();
        }
      }
      if (unsettled.fetch_sub(1) == 1) {
        std::lock_guard<std::mutex> lock(mutex);
        settled.notify_all();
      }
    }
  }

  const std::size_t end;
  const std::function<void(std::size_t)>& body;
  std::atomic<std::size_t> next;
  std::atomic<std::size_t> unsettled;
  std::mutex mutex;
  std::condition_variable settled;
  std::size_t failed = 0;  ///< lowest index that threw, if `error`
  std::exception_ptr error;
};

}  // namespace

ThreadPool::ThreadPool(std::size_t threads) {
  if (threads <= 1) return;
  workers_.reserve(threads);
  for (std::size_t i = 0; i < threads; ++i)
    workers_.emplace_back([this] { worker_loop(); });
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stopping_ = true;
  }
  wake_.notify_all();
  for (std::thread& worker : workers_) worker.join();
}

void ThreadPool::worker_loop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      wake_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
      // Drain before stopping so the destructor never abandons a task.
      if (queue_.empty()) return;
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    task();  // Loop::drain: body exceptions land in the loop state
  }
}

void ThreadPool::parallel_for(std::size_t begin, std::size_t end,
                              const std::function<void(std::size_t)>& body) {
  if (begin >= end) return;
  if (workers_.empty() || end - begin == 1) {
    for (std::size_t i = begin; i < end; ++i) body(i);
    return;
  }
  const auto loop = std::make_shared<Loop>(begin, end, body);
  const std::size_t helpers = std::min(workers_.size(), end - begin - 1);
  try {
    std::lock_guard<std::mutex> lock(mutex_);
    for (std::size_t h = 0; h < helpers; ++h)
      queue_.emplace_back([loop] { loop->drain(); });
  } catch (const std::bad_alloc&) {
    // Helpers only add hands: the caller claims whatever they leave.
  }
  for (std::size_t h = 0; h < helpers; ++h) wake_.notify_one();
  loop->drain();
  // Every index is claimed now. Wait for those still running elsewhere, so
  // nothing touches `body` or the caller's slots once this returns, and take
  // the exception out, so this thread frees it and not a late helper.
  std::unique_lock<std::mutex> lock(loop->mutex);
  loop->settled.wait(lock, [&] { return loop->unsettled.load() == 0; });
  if (loop->error) std::rethrow_exception(std::exchange(loop->error, {}));
}

ThreadPool& ThreadPool::shared(std::size_t threads) {
  if (threads < 1) threads = 1;
  // Heap-allocated and never freed, so no static destructor joins workers
  // while another thread may still be queueing.
  struct Pools {
    std::mutex mutex;
    std::map<std::size_t, std::unique_ptr<ThreadPool>> by_count;
  };
  static Pools* const pools = new Pools;
  std::lock_guard<std::mutex> lock(pools->mutex);
  std::unique_ptr<ThreadPool>& pool = pools->by_count[threads];
  if (pool == nullptr) pool = std::make_unique<ThreadPool>(threads);
  return *pool;
}

std::size_t ThreadPool::default_thread_count() {
  // hardware_concurrency() asks the kernel on every call, and every read
  // of a trace on the default pool asks for this count.
  static const std::size_t count = [] {
    const unsigned n = std::thread::hardware_concurrency();
    return n == 0 ? std::size_t{1} : static_cast<std::size_t>(n);
  }();
  return count;
}

}  // namespace perftrack
