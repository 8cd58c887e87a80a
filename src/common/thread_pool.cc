#include "common/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <limits>
#include <system_error>

#include "obs/metrics.h"
#include "obs/trace.h"

namespace serena {

ThreadPool::ThreadPool(std::size_t num_threads)
    : max_threads_(num_threads) {
  obs::MetricsRegistry& metrics = obs::MetricsRegistry::Global();
  tasks_counter_ = &metrics.GetCounter("serena.pool.tasks");
  queue_depth_gauge_ = &metrics.GetGauge("serena.pool.queue_depth");
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  // No worker starts once `stop_` is set, so `workers_` is final here.
  for (std::thread& worker : workers_) worker.join();
}

std::size_t ThreadPool::started_threads() {
  std::lock_guard<std::mutex> lock(mu_);
  return workers_.size();
}

void ThreadPool::WorkerLoop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      ++idle_;
      cv_.wait(lock, [this] { return stop_ || !queue_.empty(); });
      --idle_;
      // Drain the queue even when stopping, so joining never abandons an
      // accepted task.
      if (queue_.empty()) return;
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    if (obs::MetricsRegistry::Global().enabled()) {
      queue_depth_gauge_->Add(-1);
    }
    task();
  }
}

void ThreadPool::Execute(std::function<void()> task) {
  if (obs::MetricsRegistry::Global().enabled()) {
    tasks_counter_->Increment();
  }
  // Capture the submitter's span context so work that lands on a worker
  // thread still parents under the span that caused it (the causal-trace
  // propagation point for every concurrent code path, ParallelFor
  // helpers included). Only pay the wrapper while tracing is on.
  if (obs::TraceBuffer::Global().enabled()) {
    if (const obs::SpanContext context = obs::CurrentSpanContext();
        context.valid()) {
      task = [context, inner = std::move(task)] {
        obs::ScopedSpanContext scope(context);
        inner();
      };
    }
  }
  if (!serial()) {
    std::unique_lock<std::mutex> lock(mu_);
    if (!stop_ && queue_.size() < kMaxQueuedTasks) {
      queue_.push_back(std::move(task));
      // Every idle worker will take one queued task; start another for
      // the rest. A pool that cannot start a thread keeps the task queued
      // for the workers it has, or runs it here when it has none.
      if (queue_.size() > idle_ && workers_.size() < max_threads_) {
        try {
          workers_.emplace_back([this] { WorkerLoop(); });
        } catch (const std::system_error&) {
          if (workers_.empty()) {
            task = std::move(queue_.back());
            queue_.pop_back();
            lock.unlock();
            task();
            return;
          }
        }
      }
      lock.unlock();
      if (obs::MetricsRegistry::Global().enabled()) {
        queue_depth_gauge_->Add(1);
      }
      cv_.notify_one();
      return;
    }
  }
  // Serial mode, saturated queue, or shutting down: run on the caller.
  task();
}

void ThreadPool::ParallelFor(std::size_t n,
                             const std::function<void(std::size_t)>& body) {
  if (n == 0) return;
  if (serial() || n == 1) {
    for (std::size_t i = 0; i < n; ++i) body(i);
    return;
  }

  // Helpers and the caller all pull indices from one atomic cursor. The
  // state is shared-owned so a helper that wakes up after the loop is
  // finished (it will see next >= n) still has valid memory to read.
  struct SharedState {
    SharedState(std::size_t n, const std::function<void(std::size_t)>& body)
        : n(n), body(body) {}
    const std::size_t n;
    // Safe to hold by reference: every dereference happens before the
    // blocking wait below returns (done == n).
    const std::function<void(std::size_t)>& body;
    std::atomic<std::size_t> next{0};
    std::atomic<std::size_t> done{0};
    std::mutex mu;
    std::condition_variable cv;
    std::exception_ptr error;
    std::size_t error_index = std::numeric_limits<std::size_t>::max();
  };
  auto state = std::make_shared<SharedState>(n, body);

  auto drain = [state] {
    for (;;) {
      const std::size_t i =
          state->next.fetch_add(1, std::memory_order_relaxed);
      if (i >= state->n) return;
      try {
        state->body(i);
      } catch (...) {
        std::lock_guard<std::mutex> lock(state->mu);
        if (i < state->error_index) {
          state->error_index = i;
          state->error = std::current_exception();
        }
      }
      if (state->done.fetch_add(1, std::memory_order_acq_rel) + 1 ==
          state->n) {
        std::lock_guard<std::mutex> lock(state->mu);
        state->cv.notify_all();
      }
    }
  };

  const std::size_t helpers = std::min(num_threads(), n - 1);
  for (std::size_t h = 0; h < helpers; ++h) Execute(drain);
  drain();

  std::unique_lock<std::mutex> lock(state->mu);
  state->cv.wait(lock, [&] {
    return state->done.load(std::memory_order_acquire) == state->n;
  });
  if (state->error) std::rethrow_exception(state->error);
}

std::size_t ThreadPool::ConfiguredThreadCount() {
  if (const char* env = std::getenv("SERENA_THREADS");
      env != nullptr && *env != '\0') {
    char* end = nullptr;
    const unsigned long value = std::strtoul(env, &end, 10);
    if (end != env && *end == '\0') {
      return static_cast<std::size_t>(std::min<unsigned long>(value, 256));
    }
  }
  const unsigned hardware = std::thread::hardware_concurrency();
  return hardware == 0 ? 4 : hardware;
}

ThreadPool& ThreadPool::Shared() {
  // Function-local static: constructed after (and therefore destroyed
  // before) the metrics registry its constructor resolves instruments
  // from, so workers never outlive the instruments they record into.
  static ThreadPool pool(ConfiguredThreadCount());
  return pool;
}

}  // namespace serena
