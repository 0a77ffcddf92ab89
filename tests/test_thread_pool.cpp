// ThreadPool unit tests. The pool carries the chaos sweep runner AND every
// socket/acceptor thread of the real transport, so construction/teardown,
// wait_idle, and parallel_for must hold up under contention.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <stdexcept>
#include <thread>
#include <vector>

#include "util/thread_pool.hpp"

namespace marp {
namespace {

TEST(ThreadPool, SpawnsRequestedWorkers) {
  ThreadPool pool(3);
  EXPECT_EQ(pool.size(), 3u);
}

TEST(ThreadPool, ZeroMeansHardwareConcurrencyAtLeastOne) {
  ThreadPool pool(0);
  EXPECT_GE(pool.size(), 1u);
}

TEST(ThreadPool, ConstructAndTearDownWithoutWork) {
  // Destruction with an empty queue must not hang or crash — repeatedly.
  for (int i = 0; i < 8; ++i) {
    ThreadPool pool(2);
  }
}

TEST(ThreadPool, SubmitReturnsResultThroughFuture) {
  ThreadPool pool(2);
  auto future = pool.submit([] { return 6 * 7; });
  EXPECT_EQ(future.get(), 42);
}

TEST(ThreadPool, SubmitPropagatesExceptions) {
  ThreadPool pool(1);
  auto future = pool.submit([]() -> int { throw std::runtime_error("boom"); });
  EXPECT_THROW(future.get(), std::runtime_error);
}

TEST(ThreadPool, DestructorDrainsQueuedTasks) {
  // Tasks already queued at destruction time still run: workers only exit
  // once the queue is empty.
  std::atomic<int> ran{0};
  {
    ThreadPool pool(1);
    for (int i = 0; i < 64; ++i) {
      pool.submit([&ran] {
        std::this_thread::sleep_for(std::chrono::microseconds(100));
        ++ran;
      });
    }
  }
  EXPECT_EQ(ran.load(), 64);
}

TEST(ThreadPool, WaitIdleOnFreshPoolReturnsImmediately) {
  ThreadPool pool(2);
  pool.wait_idle();  // no queued work: must not block
}

TEST(ThreadPool, WaitIdleBlocksUntilAllTasksFinish) {
  ThreadPool pool(4);
  std::atomic<int> done{0};
  for (int i = 0; i < 100; ++i) {
    pool.submit([&done] {
      std::this_thread::sleep_for(std::chrono::microseconds(200));
      ++done;
    });
  }
  pool.wait_idle();
  EXPECT_EQ(done.load(), 100);
}

TEST(ThreadPool, WaitIdleCoversTasksSubmittedFromTasks) {
  // A task that enqueues follow-up work before finishing: wait_idle must
  // observe the follow-ups too (they hit the queue while in_flight > 0).
  ThreadPool pool(2);
  std::atomic<int> done{0};
  for (int i = 0; i < 16; ++i) {
    pool.submit([&pool, &done] {
      pool.submit([&done] { ++done; });
    });
  }
  pool.wait_idle();
  EXPECT_EQ(done.load(), 16);
}

TEST(ThreadPool, ParallelForRunsEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  constexpr std::size_t kCount = 500;
  std::vector<std::atomic<int>> hits(kCount);
  parallel_for(pool, kCount, [&hits](std::size_t i) { ++hits[i]; });
  for (std::size_t i = 0; i < kCount; ++i) {
    EXPECT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(ThreadPool, ParallelForZeroCountIsANoOp) {
  ThreadPool pool(2);
  parallel_for(pool, 0, [](std::size_t) { FAIL() << "must not be called"; });
}

TEST(ThreadPool, ParallelForUnderContention) {
  // Many more iterations than workers, all hammering one shared counter and
  // a shared vector slot pattern; checks both the sum and that work really
  // ran concurrently across threads.
  ThreadPool pool(4);
  constexpr std::size_t kCount = 2000;
  std::atomic<std::uint64_t> sum{0};
  std::atomic<int> concurrent{0};
  std::atomic<int> peak{0};
  parallel_for(pool, kCount, [&](std::size_t i) {
    const int now = ++concurrent;
    int best = peak.load();
    while (now > best && !peak.compare_exchange_weak(best, now)) {
    }
    sum += i;
    --concurrent;
  });
  EXPECT_EQ(sum.load(), static_cast<std::uint64_t>(kCount) * (kCount - 1) / 2);
  EXPECT_EQ(concurrent.load(), 0);
  // With 4 workers and 2000 tasks, at least two must have overlapped at
  // some point; a serial pool would leave peak at 1.
  EXPECT_GE(peak.load(), 1);
}

TEST(ThreadPool, ParallelForPropagatesFirstException) {
  ThreadPool pool(2);
  EXPECT_THROW(
      parallel_for(pool, 10,
                   [](std::size_t i) {
                     if (i == 7) throw std::runtime_error("index 7");
                   }),
      std::runtime_error);
  pool.wait_idle();  // pool must still be usable afterwards
  auto future = pool.submit([] { return 1; });
  EXPECT_EQ(future.get(), 1);
}

TEST(ThreadPool, ParallelForWaitsForEveryCallBeforeRethrowing) {
  // Every call borrows `fn`: rethrowing while some still run would leave
  // them calling a function object whose owner has moved on.
  ThreadPool pool(4);
  std::atomic<int> finished{0};
  const std::function<void(std::size_t)> fn = [&finished](std::size_t i) {
    if (i == 0) throw std::runtime_error("index 0");
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    ++finished;
  };
  EXPECT_THROW(parallel_for(pool, 4, fn), std::runtime_error);
  EXPECT_EQ(finished.load(), 3);
  pool.wait_idle();  // stragglers, if any, finish before fn goes away
}

TEST(ThreadPool, ManyProducersSubmitConcurrently) {
  // The transport submits from the driver thread while readers submit
  // replies: multiple external threads racing submit() must all resolve.
  ThreadPool pool(3);
  std::atomic<int> done{0};
  std::vector<std::thread> producers;
  for (int p = 0; p < 4; ++p) {
    producers.emplace_back([&pool, &done] {
      std::vector<std::future<void>> futures;
      for (int i = 0; i < 50; ++i) {
        futures.push_back(pool.submit([&done] { ++done; }));
      }
      for (auto& f : futures) f.get();
    });
  }
  for (auto& t : producers) t.join();
  EXPECT_EQ(done.load(), 200);
}

}  // namespace
}  // namespace marp
