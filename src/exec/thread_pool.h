#ifndef GTPL_EXEC_THREAD_POOL_H_
#define GTPL_EXEC_THREAD_POOL_H_

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace gtpl::exec {

/// Fork-join worker pool: Run(n, fn) calls fn(i) once for every index and
/// returns when all calls have. The sweep grid, the Figure 1 bench and the
/// parallel kernel's windows all run on it.
///
/// Guarantees:
///  * The calling thread counts as one of `num_threads`; the workers persist
///    across Run calls.
///  * One mutex/condvar hand-off orders everything the caller did before
///    Run ahead of every fn(i), and every fn(i) ahead of Run's return, so
///    writes made by one Run's calls are visible to the caller and to the
///    next Run's calls on any thread.
///  * With no workers (num_threads <= 1) Run calls fn inline, in index order.
///  * A throw inside fn terminates the process, like an uncaught throw
///    anywhere else in this project.
///
/// Run is not reentrant: fn must not call Run on the same pool, and only one
/// thread may call Run at a time.
class ThreadPool {
 public:
  /// Spawns `num_threads - 1` workers (none when `num_threads <= 1`).
  explicit ThreadPool(int num_threads);

  /// Joins the workers.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Threads that run indices, the caller included.
  int num_threads() const { return static_cast<int>(workers_.size()) + 1; }

  /// Calls fn(i) exactly once for each i in [0, n); the workers and the
  /// caller claim indices one at a time. Returns when every call returned.
  void Run(int64_t n, const std::function<void(int64_t)>& fn) noexcept;

 private:
  /// Claims and runs indices until none is left unclaimed. `lock` holds
  /// mutex_ on entry and on return, and is released around each fn call.
  void RunClaimed(std::unique_lock<std::mutex>& lock);
  void WorkerLoop();

  std::mutex mutex_;
  std::condition_variable work_available_;
  std::condition_variable all_returned_;
  // The current Run, guarded by mutex_: indices below next_ are claimed,
  // and returned_ of them have returned.
  const std::function<void(int64_t)>* fn_ = nullptr;
  int64_t n_ = 0;
  int64_t next_ = 0;
  int64_t returned_ = 0;
  bool shutting_down_ = false;
  std::vector<std::thread> workers_;
};

/// Resolves a job-count request: `jobs >= 1` is taken as-is; `jobs <= 0`
/// falls back to the GTPL_JOBS environment variable and then to
/// std::thread::hardware_concurrency() (at least 1).
int ResolveJobs(int jobs);

}  // namespace gtpl::exec

#endif  // GTPL_EXEC_THREAD_POOL_H_
