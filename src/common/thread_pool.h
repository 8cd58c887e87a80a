#ifndef SERENA_COMMON_THREAD_POOL_H_
#define SERENA_COMMON_THREAD_POOL_H_

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace serena {

namespace obs {
class Counter;
class Gauge;
}  // namespace obs

/// A bounded, joinable worker pool — the substrate of every concurrent
/// code path in the engine (batched service invocation, parallel query
/// steps).
///
/// Design rules that keep the engine deterministic and deadlock-free:
///  - A pool with 0 workers is *serial*: every task runs inline on the
///    calling thread, in submission order. This is the `SERENA_THREADS=0`
///    fallback that reproduces pre-parallel behavior exactly.
///  - `ParallelFor` makes the calling thread participate in the work, so
///    it may be called from inside a pool task (nested parallelism, e.g.
///    a parallel executor tick whose query steps run parallel invokes)
///    without ever deadlocking on pool capacity.
///  - The task queue is bounded (`kMaxQueuedTasks`); beyond the bound the
///    submitting thread runs the task inline — backpressure that cannot
///    deadlock.
///  - Workers start on demand: a task queued while no worker is idle
///    starts one, up to `num_threads()`. A pool sized for bursts of
///    blocking calls (the service registry's invokers) therefore costs
///    only the threads its widest burst used.
class ThreadPool {
 public:
  /// Queue bound beyond which `Execute` degrades to inline execution.
  static constexpr std::size_t kMaxQueuedTasks = 4096;

  /// A pool of up to `num_threads` workers, started on demand; 0 = serial
  /// mode (see above).
  explicit ThreadPool(std::size_t num_threads);

  /// Joins all workers after draining the queue.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// The most workers this pool runs.
  std::size_t num_threads() const { return max_threads_; }

  /// Workers started so far (at most `num_threads()`).
  std::size_t started_threads();

  /// True when the pool has no workers and runs everything inline.
  bool serial() const { return max_threads_ == 0; }

  /// Enqueues `task` for execution on a worker. Runs it inline when the
  /// pool is serial, shutting down, or the queue is at its bound.
  void Execute(std::function<void()> task);

  /// Futures flavor of `Execute`: returns a future for the task's result;
  /// exceptions propagate through the future.
  template <typename F>
  auto Submit(F f) -> std::future<decltype(f())> {
    using R = decltype(f());
    auto task = std::make_shared<std::packaged_task<R()>>(std::move(f));
    std::future<R> future = task->get_future();
    Execute([task] { (*task)(); });
    return future;
  }

  /// Runs `body(0) .. body(n-1)`, returning once all iterations finished.
  /// Iterations may run on any thread and in any order — callers write
  /// into pre-sized, index-addressed slots for deterministic results. The
  /// calling thread participates, so nested ParallelFor cannot deadlock.
  ///
  /// If iterations throw, the exception of the smallest throwing index is
  /// rethrown after all iterations completed (serial mode instead stops
  /// at the first throwing iteration, like a plain loop).
  void ParallelFor(std::size_t n,
                   const std::function<void(std::size_t)>& body);

  /// The thread count requested via the `SERENA_THREADS` environment
  /// variable: 0 = serial, any other integer = that many workers; unset
  /// or unparseable = the hardware concurrency.
  static std::size_t ConfiguredThreadCount();

  /// The process-wide pool, sized by `ConfiguredThreadCount()` on first
  /// use. All engine-internal parallelism defaults to this pool.
  static ThreadPool& Shared();

 private:
  void WorkerLoop();

  const std::size_t max_threads_;

  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<std::function<void()>> queue_;
  /// Workers waiting for a task; a push beyond them starts a worker.
  std::size_t idle_ = 0;
  bool stop_ = false;
  std::vector<std::thread> workers_;

  // serena.pool.* instruments, resolved once at construction.
  obs::Counter* tasks_counter_;
  obs::Gauge* queue_depth_gauge_;
};

}  // namespace serena

#endif  // SERENA_COMMON_THREAD_POOL_H_
