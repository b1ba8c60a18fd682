#include "exec/thread_pool.h"

#include <cstdlib>

#include "common/check.h"

namespace gtpl::exec {

ThreadPool::ThreadPool(int num_threads) {
  for (int i = 1; i < num_threads; ++i) {
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
}

void ThreadPool::Run(int64_t n,
                     const std::function<void(int64_t)>& fn) noexcept {
  GTPL_CHECK_GE(n, 0);
  std::unique_lock<std::mutex> lock(mutex_);
  fn_ = &fn;
  n_ = n;
  next_ = 0;
  returned_ = 0;
  work_available_.notify_all();
  RunClaimed(lock);  // the caller claims indices too; alone, it claims all
  all_returned_.wait(lock, [this] { return returned_ == n_; });
  fn_ = nullptr;
}

void ThreadPool::RunClaimed(std::unique_lock<std::mutex>& lock) {
  while (next_ < n_) {
    const int64_t i = next_++;
    const std::function<void(int64_t)>& fn = *fn_;
    lock.unlock();
    fn(i);
    lock.lock();
    if (++returned_ == n_) all_returned_.notify_one();
  }
}

void ThreadPool::WorkerLoop() {
  std::unique_lock<std::mutex> lock(mutex_);
  for (;;) {
    work_available_.wait(lock,
                         [this] { return shutting_down_ || next_ < n_; });
    if (shutting_down_) return;
    RunClaimed(lock);
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
