#include "common/thread_pool.hpp"

#include <exception>
#include <map>
#include <memory>

namespace perftrack {

namespace {

/// Pool the current thread works for, if any (the reentrancy guard).
thread_local const ThreadPool* t_worker_of = nullptr;

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

bool ThreadPool::run_inline() const {
  return workers_.empty() || t_worker_of == this;
}

void ThreadPool::worker_loop() {
  t_worker_of = this;
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      wake_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
      // Drain before stopping so the destructor never abandons a task
      // (submitted work always completes).
      if (queue_.empty()) return;
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    task();  // packaged_task: exceptions land in the future
  }
}

void ThreadPool::parallel_for(std::size_t begin, std::size_t end,
                              const std::function<void(std::size_t)>& body) {
  if (begin >= end) return;
  // A single iteration gains nothing from a worker handoff — and running
  // it on the caller keeps the caller OFF the worker set, so any nested
  // parallel_for inside the body can still fan out instead of tripping
  // the reentrancy guard. (A one-pair retrack parallelises its inner
  // classification sweep this way.)
  if (end - begin == 1) {
    body(begin);
    return;
  }
  if (run_inline()) {
    for (std::size_t i = begin; i < end; ++i) body(i);
    return;
  }
  std::vector<std::future<void>> pending;
  pending.reserve(end - begin);
  // If submission itself fails mid-loop (allocation), hold the exception
  // until every already-queued task has settled: the pool outlives this
  // call, so a task left in the queue would run against `body` and the
  // caller's locals after their frames unwound. `pending` is pre-reserved,
  // so a task is queued iff its future landed in `pending`.
  std::exception_ptr submit_error;
  try {
    for (std::size_t i = begin; i < end; ++i)
      pending.push_back(submit([&body, i] { body(i); }));
  } catch (...) {
    submit_error = std::current_exception();
  }
  // Wait for everything first, then rethrow the lowest-index failure, so
  // no task can still be touching caller state when we unwind.
  for (std::future<void>& f : pending) f.wait();
  if (submit_error) std::rethrow_exception(submit_error);
  for (std::future<void>& f : pending) f.get();
}

ThreadPool& ThreadPool::shared(std::size_t threads) {
  if (threads < 1) threads = 1;
  // Heap-allocated and never freed, so no static destructor joins workers
  // while another thread may still be submitting.
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
