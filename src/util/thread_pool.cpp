#include "util/thread_pool.hpp"

#include <algorithm>
#include <exception>

namespace marp {

ThreadPool::ThreadPool(std::size_t threads) {
  if (threads == 0) threads = std::max(1u, std::thread::hardware_concurrency());
  workers_.reserve(threads);
  for (std::size_t i = 0; i < threads; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stopping_ = true;
  }
  cv_.notify_all();
  for (auto& worker : workers_) worker.join();
}

void ThreadPool::worker_loop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      cv_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
      if (stopping_ && queue_.empty()) return;
      task = std::move(queue_.front());
      queue_.pop_front();
      ++in_flight_;
    }
    task();
    {
      std::lock_guard<std::mutex> lock(mutex_);
      --in_flight_;
      if (queue_.empty() && in_flight_ == 0) idle_cv_.notify_all();
    }
  }
}

void ThreadPool::wait_idle() {
  std::unique_lock<std::mutex> lock(mutex_);
  idle_cv_.wait(lock, [this] { return queue_.empty() && in_flight_ == 0; });
}

void parallel_for(ThreadPool& pool, std::size_t count,
                  const std::function<void(std::size_t)>& fn) {
  std::vector<std::future<void>> futures;
  futures.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    futures.push_back(pool.submit([&fn, i] { fn(i); }));
  }
  // Every task borrows `fn`, so all of them must finish before this frame
  // returns: rethrow the first exception only once the rest are done.
  std::exception_ptr first;
  for (auto& f : futures) {
    try {
      f.get();
    } catch (...) {
      if (!first) first = std::current_exception();
    }
  }
  if (first) std::rethrow_exception(first);
}

}  // namespace marp
