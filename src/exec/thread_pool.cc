#include "exec/thread_pool.h"

#include <cstdlib>
#include <cstring>

#include "common/check.h"

namespace gtpl::exec {

ThreadPool::ThreadPool(int num_threads) {
  if (num_threads < 1) num_threads = 1;
  workers_.reserve(static_cast<size_t>(num_threads));
  for (int i = 0; i < num_threads; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    shutting_down_ = true;
  }
  work_available_.notify_all();
  for (std::thread& worker : workers_) worker.join();
  // Workers only exit with an empty queue; late enqueues from running tasks
  // were drained before the last join returned.
  GTPL_CHECK(queue_.empty());
}

int64_t ThreadPool::tasks_executed() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return executed_;
}

ThreadPool::CountOnExit::~CountOnExit() {
  std::lock_guard<std::mutex> lock(pool_->mutex_);
  ++pool_->executed_;
}

void ThreadPool::Post(std::function<void()> task) {
  GTPL_CHECK(task != nullptr);
  Enqueue([this, task = std::move(task)] {
    const CountOnExit count(this);
    task();
  });
}

void ThreadPool::Enqueue(std::function<void()> task) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    queue_.push_back(std::move(task));
  }
  work_available_.notify_one();
}

void ThreadPool::WorkerLoop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      work_available_.wait(
          lock, [this] { return shutting_down_ || !queue_.empty(); });
      if (queue_.empty()) return;  // shutting down and fully drained
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    task();  // counts itself (CountOnExit)
  }
}

int ResolveJobs(int jobs) {
  if (jobs >= 1) return jobs;
  if (const char* env = std::getenv("GTPL_JOBS");
      env != nullptr && *env != '\0') {
    char* end = nullptr;
    const long value = std::strtol(env, &end, 10);
    if (end != env && *end == '\0' && value >= 1 && value <= 4096) {
      return static_cast<int>(value);
    }
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw >= 1 ? static_cast<int>(hw) : 1;
}

}  // namespace gtpl::exec
