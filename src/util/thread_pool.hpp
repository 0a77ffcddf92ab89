// Fixed-size thread pool used by the sweep runner to execute independent
// simulation runs in parallel (parallelism is across runs, never inside one —
// each run stays deterministic).
#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <future>
#include <mutex>
#include <thread>
#include <vector>

namespace marp {

class ThreadPool {
 public:
  /// Spawns `threads` workers; 0 means hardware_concurrency (at least 1).
  explicit ThreadPool(std::size_t threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t size() const noexcept { return workers_.size(); }

  /// Enqueue a task; the future resolves with its result (or exception).
  template <typename F>
  auto submit(F&& task) -> std::future<std::invoke_result_t<F>> {
    using R = std::invoke_result_t<F>;
    auto packaged =
        std::make_shared<std::packaged_task<R()>>(std::forward<F>(task));
    std::future<R> result = packaged->get_future();
    {
      std::lock_guard<std::mutex> lock(mutex_);
      queue_.emplace_back([packaged] { (*packaged)(); });
    }
    cv_.notify_one();
    return result;
  }

  /// Block until every queued task has finished.
  void wait_idle();

 private:
  void worker_loop();

  std::vector<std::thread> workers_;
  std::deque<std::function<void()>> queue_;
  std::mutex mutex_;
  std::condition_variable cv_;
  std::condition_variable idle_cv_;
  std::size_t in_flight_ = 0;
  bool stopping_ = false;
};

/// Run `fn(i)` for i in [0, count) across the pool and wait for completion;
/// the first exception a call threw is rethrown once every call is done.
void parallel_for(ThreadPool& pool, std::size_t count,
                  const std::function<void(std::size_t)>& fn);

}  // namespace marp
