#pragma once
// Fixed-size thread pool with a futures / parallel_for API.
//
// The tracking workflow is a frame pipeline: every experiment clusters
// independently and every adjacent frame pair tracks independently, so both
// stages are embarrassingly parallel. The pool keeps that parallelism
// deterministic-by-construction: callers submit tasks whose outputs land in
// pre-sized slots, so the result of a run never depends on scheduling
// order, only on the task bodies themselves.
//
//   ThreadPool& pool = ThreadPool::shared(ThreadPool::resolve(params.threads));
//   pool.parallel_for(0, frames.size(),
//                     [&](std::size_t i) { out[i] = work(i); });
//
// Library code never builds a pool per call: shared() hands out one
// long-lived pool per thread count per process, so a retrack starts no
// threads, and concurrent callers (perftrackd connection threads tracking
// different studies) share its workers.
//
// A pool of one thread spawns no workers at all: every task runs inline on
// the calling thread, in submission order — bit-for-bit the serial
// behaviour, which is what makes `--threads 1` a faithful baseline.
//
// Reentrancy guard: a task submitted from one of the pool's own workers
// runs inline on that worker instead of queueing. A worker blocking on the
// future of a task stuck behind it in the queue would deadlock the pool;
// inline execution makes nested submission safe (if serial).

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <future>
#include <mutex>
#include <thread>
#include <type_traits>
#include <vector>

namespace perftrack {

class ThreadPool {
public:
  /// Create `threads` workers. 0 and 1 both mean "no workers": submit()
  /// and parallel_for() execute inline on the calling thread.
  explicit ThreadPool(std::size_t threads);

  /// Joins after draining the queue: every submitted task completes.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Workers available to run tasks (>= 1; 1 means inline execution).
  std::size_t thread_count() const {
    return workers_.empty() ? 1 : workers_.size();
  }

  /// Schedule `task`; the future carries its result or exception. Runs
  /// inline when the pool has no workers or the caller is one of them.
  template <typename F>
  auto submit(F&& task) -> std::future<std::invoke_result_t<F>> {
    using Result = std::invoke_result_t<F>;
    auto packaged = std::make_shared<std::packaged_task<Result()>>(
        std::forward<F>(task));
    std::future<Result> future = packaged->get_future();
    if (run_inline()) {
      (*packaged)();
      return future;
    }
    {
      std::lock_guard<std::mutex> lock(mutex_);
      queue_.emplace_back([packaged] { (*packaged)(); });
    }
    wake_.notify_one();
    return future;
  }

  /// Run body(i) for every i in [begin, end) and wait for all of them.
  /// Exceptions propagate after every index has settled; when several
  /// tasks throw, the lowest index wins (deterministic regardless of
  /// scheduling). The inline path is a plain serial loop.
  void parallel_for(std::size_t begin, std::size_t end,
                    const std::function<void(std::size_t)>& body);

  /// std::thread::hardware_concurrency(), or 1 when unknown; read once
  /// per process.
  static std::size_t default_thread_count();

  /// Resolve a user-facing thread setting: 0 = auto (hardware concurrency).
  static std::size_t resolve(std::size_t requested) {
    return requested == 0 ? default_thread_count() : requested;
  }

  /// Largest thread count a user may request (perftrack --threads,
  /// TrackingParams::threads); SessionConfig::validate() enforces it.
  static constexpr std::size_t kMaxThreads = 256;

  /// The process-wide pool of `threads` workers (an already resolved
  /// count; <= 1 gives the inline pool). Built on first use, then reused
  /// by every caller for the life of the process. Never destroyed: its
  /// idle workers end with the process, so exit never waits on a thread
  /// that a still-running caller might be feeding.
  static ThreadPool& shared(std::size_t threads);

private:
  bool run_inline() const;
  void worker_loop();

  std::mutex mutex_;
  std::condition_variable wake_;
  std::deque<std::function<void()>> queue_;
  bool stopping_ = false;
  std::vector<std::thread> workers_;
};

}  // namespace perftrack
