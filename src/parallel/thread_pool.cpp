#include "parallel/thread_pool.hpp"

#include <algorithm>
#include <cstdlib>
#include <string>

namespace smac::parallel {

std::size_t ThreadPool::default_jobs() {
  if (const char* env = std::getenv("SMAC_JOBS")) {
    char* end = nullptr;
    const long parsed = std::strtol(env, &end, 10);
    if (end != env && *end == '\0' && parsed > 0) {
      return std::min(static_cast<std::size_t>(parsed), kMaxThreads);
    }
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : std::min(static_cast<std::size_t>(hw), kMaxThreads);
}

ThreadPool::ThreadPool(std::size_t threads)
    : size_(std::clamp<std::size_t>(threads == 0 ? default_jobs() : threads,
                                     1, kMaxThreads)) {
  if (size_ == 1) return;  // for_each_index runs on the caller
  workers_.reserve(size_);
  for (std::size_t i = 0; i < size_; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
  }
  cv_.notify_all();
  for (std::thread& worker : workers_) worker.join();
}

std::future<void> ThreadPool::submit(std::function<void()> lane) {
  auto task = std::make_shared<std::packaged_task<void()>>(std::move(lane));
  std::future<void> future = task->get_future();
  {
    std::lock_guard<std::mutex> lock(mutex_);
    queue_.emplace_back([task] { (*task)(); });
  }
  cv_.notify_one();
  return future;
}

void ThreadPool::worker_loop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      cv_.wait(lock, [this] { return stop_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stop_ set and drained
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    task();
  }
}

}  // namespace smac::parallel
