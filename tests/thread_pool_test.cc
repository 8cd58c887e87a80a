#include "common/thread_pool.h"

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <numeric>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

namespace serena {
namespace {

TEST(ThreadPoolTest, SerialPoolRunsTasksInlineInSubmissionOrder) {
  ThreadPool pool(0);
  EXPECT_TRUE(pool.serial());
  EXPECT_EQ(pool.num_threads(), 0u);
  std::vector<int> order;
  pool.Execute([&] { order.push_back(1); });
  pool.Execute([&] { order.push_back(2); });
  pool.Execute([&] { order.push_back(3); });
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(ThreadPoolTest, ParallelForCoversEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  constexpr std::size_t kN = 1000;
  std::vector<std::atomic<int>> hits(kN);
  pool.ParallelFor(kN, [&](std::size_t i) {
    hits[i].fetch_add(1, std::memory_order_relaxed);
  });
  for (std::size_t i = 0; i < kN; ++i) {
    EXPECT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(ThreadPoolTest, ParallelForWritesIndexedSlotsDeterministically) {
  ThreadPool pool(4);
  constexpr std::size_t kN = 257;
  std::vector<std::size_t> out(kN, 0);
  pool.ParallelFor(kN, [&](std::size_t i) { out[i] = i * i; });
  for (std::size_t i = 0; i < kN; ++i) EXPECT_EQ(out[i], i * i);
}

TEST(ThreadPoolTest, SerialParallelForRunsInIndexOrder) {
  ThreadPool pool(0);
  std::vector<std::size_t> order;
  pool.ParallelFor(5, [&](std::size_t i) { order.push_back(i); });
  EXPECT_EQ(order, (std::vector<std::size_t>{0, 1, 2, 3, 4}));
}

TEST(ThreadPoolTest, ParallelForPropagatesSmallestIndexException) {
  ThreadPool pool(4);
  std::atomic<int> completed{0};
  try {
    pool.ParallelFor(100, [&](std::size_t i) {
      if (i == 17 || i == 63) {
        throw std::runtime_error("boom " + std::to_string(i));
      }
      completed.fetch_add(1, std::memory_order_relaxed);
    });
    FAIL() << "expected an exception";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "boom 17");
  }
  // All non-throwing iterations still ran (the loop never abandons work).
  EXPECT_EQ(completed.load(), 98);
}

TEST(ThreadPoolTest, SubmitReturnsFutureWithResult) {
  ThreadPool pool(2);
  auto f1 = pool.Submit([] { return 40 + 2; });
  auto f2 = pool.Submit([]() -> std::string { return "ok"; });
  EXPECT_EQ(f1.get(), 42);
  EXPECT_EQ(f2.get(), "ok");
}

TEST(ThreadPoolTest, SubmitPropagatesExceptionThroughFuture) {
  ThreadPool pool(2);
  auto f = pool.Submit([]() -> int { throw std::runtime_error("bad"); });
  EXPECT_THROW(f.get(), std::runtime_error);
}

TEST(ThreadPoolTest, NestedParallelForDoesNotDeadlock) {
  // Caller participation: an outer iteration issuing an inner ParallelFor
  // must complete even when every worker is busy with outer iterations.
  ThreadPool pool(2);
  std::atomic<int> total{0};
  pool.ParallelFor(8, [&](std::size_t) {
    pool.ParallelFor(8, [&](std::size_t) {
      total.fetch_add(1, std::memory_order_relaxed);
    });
  });
  EXPECT_EQ(total.load(), 64);
}

TEST(ThreadPoolTest, TasksRunOnWorkerThreads) {
  ThreadPool pool(2);
  std::set<std::thread::id> ids;
  std::mutex mu;
  pool.ParallelFor(64, [&](std::size_t) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    std::lock_guard<std::mutex> lock(mu);
    ids.insert(std::this_thread::get_id());
  });
  // Caller + at least one worker participated.
  EXPECT_GE(ids.size(), 2u);
}

TEST(ThreadPoolTest, ZeroIterationsIsANoop) {
  ThreadPool pool(2);
  bool ran = false;
  pool.ParallelFor(0, [&](std::size_t) { ran = true; });
  EXPECT_FALSE(ran);
}

TEST(ThreadPoolTest, StartsWorkersOnlyOnDemand) {
  ThreadPool pool(64);
  EXPECT_EQ(pool.num_threads(), 64u);
  EXPECT_EQ(pool.started_threads(), 0u);
  std::atomic<int> total{0};
  pool.ParallelFor(3, [&](std::size_t) { total.fetch_add(1); });
  EXPECT_EQ(total.load(), 3);
  // Two helpers were queued beside the participating caller.
  EXPECT_LE(pool.started_threads(), 2u);
}

TEST(ThreadPoolTest, OnDemandPoolDrainsAndJoinsOnDestruction) {
  std::atomic<int> ran{0};
  {
    ThreadPool pool(64);
    for (int i = 0; i < 100; ++i) {
      pool.Execute([&] {
        std::this_thread::sleep_for(std::chrono::microseconds(100));
        ran.fetch_add(1);
      });
    }
    EXPECT_GE(pool.started_threads(), 1u);
    EXPECT_LE(pool.started_threads(), 64u);
  }
  EXPECT_EQ(ran.load(), 100);
}

TEST(ThreadPoolTest, ConfiguredThreadCountParsesEnvironment) {
  // Note: test-local environment mutation; tests in this binary run in
  // one process, so restore the variable.
  const char* saved = std::getenv("SERENA_THREADS");
  const std::string saved_value = saved != nullptr ? saved : "";

  ::setenv("SERENA_THREADS", "0", 1);
  EXPECT_EQ(ThreadPool::ConfiguredThreadCount(), 0u);
  ::setenv("SERENA_THREADS", "7", 1);
  EXPECT_EQ(ThreadPool::ConfiguredThreadCount(), 7u);
  ::setenv("SERENA_THREADS", "not-a-number", 1);
  EXPECT_GT(ThreadPool::ConfiguredThreadCount(), 0u);  // Hardware fallback.

  if (saved != nullptr) {
    ::setenv("SERENA_THREADS", saved_value.c_str(), 1);
  } else {
    ::unsetenv("SERENA_THREADS");
  }
}

}  // namespace
}  // namespace serena
