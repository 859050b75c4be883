#pragma once
// Fixed-size thread pool with one entry point, parallel_for.
//
// The tracking workflow is a frame pipeline: every experiment clusters
// independently and every adjacent frame pair tracks independently, so both
// stages are embarrassingly parallel. The pool keeps that parallelism
// deterministic-by-construction: loop bodies write to pre-sized slots, so
// the result of a run never depends on scheduling order, only on the
// bodies themselves.
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
// A pool of one thread spawns no workers at all: every loop runs inline on
// the calling thread, in index order — bit-for-bit the serial behaviour,
// which is what makes `--threads 1` a faithful baseline.
//
// Claim rule: the caller and up to min(workers, n - 1) queued helper tasks
// take a loop's indices from one counter, so the caller computes too and a
// loop issued from inside a body fans out like any other. A thread only
// waits for indices another thread is running, and a thread blocked in a
// body never takes a helper task, so nested loops cannot deadlock.

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace perftrack {

class ThreadPool {
public:
  /// Create `threads` workers. 0 and 1 both mean "no workers":
  /// parallel_for() executes inline on the calling thread.
  explicit ThreadPool(std::size_t threads);

  /// Joins after draining the queue: every queued helper task runs.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Workers available to run helper tasks (>= 1; 1 means inline
  /// execution).
  std::size_t thread_count() const {
    return workers_.empty() ? 1 : workers_.size();
  }

  /// Run body(i) for every i in [begin, end) and wait for all of them,
  /// claiming indices on the calling thread as well as on the workers.
  /// Exceptions propagate after every index has settled; when several
  /// indices throw, the lowest index wins (deterministic regardless of
  /// scheduling). Without workers, or for one index, it is a plain serial
  /// loop on the caller.
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
  void worker_loop();

  std::mutex mutex_;
  std::condition_variable wake_;
  std::deque<std::function<void()>> queue_;
  bool stopping_ = false;
  std::vector<std::thread> workers_;
};

}  // namespace perftrack
