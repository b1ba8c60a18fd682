#ifndef GTPL_EXEC_THREAD_POOL_H_
#define GTPL_EXEC_THREAD_POOL_H_

#include <condition_variable>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <thread>
#include <type_traits>
#include <vector>

namespace gtpl::exec {

/// Fixed-size worker pool with a FIFO task queue.
///
/// Guarantees:
///  * Run-to-completion shutdown — the destructor executes every task that
///    was ever enqueued (including tasks that running tasks enqueue during
///    the drain) before joining the workers.
///  * Exceptions thrown by a task submitted via Submit() are captured in the
///    returned future and rethrown by future::get().
///  * A task may enqueue further tasks from inside the pool without risk of
///    deadlock: workers only retire once the queue is empty, and a task that
///    enqueues runs on a worker that re-checks the queue afterwards.
///
/// Do not call Submit()/Post() from a thread outside the pool once the
/// destructor may have started; tasks already running may enqueue freely.
class ThreadPool {
 public:
  /// Spawns `num_threads` workers (clamped to >= 1).
  explicit ThreadPool(int num_threads);

  /// Drains the queue to completion, then joins all workers.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  int num_threads() const { return static_cast<int>(workers_.size()); }

  /// Tasks fully executed so far (diagnostic). A task is counted before its
  /// Submit() future becomes ready: once every future a caller holds is
  /// ready, the count includes all of those tasks.
  int64_t tasks_executed() const;

  /// Enqueues a fire-and-forget task.
  void Post(std::function<void()> task);

  /// Enqueues `fn` and returns a future for its result (or its exception).
  template <typename F>
  auto Submit(F&& fn) -> std::future<std::invoke_result_t<std::decay_t<F>>> {
    using R = std::invoke_result_t<std::decay_t<F>>;
    // `count` is destroyed as `fn` returns or throws, before packaged_task
    // stores the outcome and makes the future ready.
    auto task = std::make_shared<std::packaged_task<R()>>(
        [this, fn = std::forward<F>(fn)]() mutable -> R {
          const CountOnExit count(this);
          return fn();
        });
    std::future<R> future = task->get_future();
    Enqueue([task] { (*task)(); });
    return future;
  }

 private:
  /// Counts one executed task when it leaves scope, also on a throw.
  class CountOnExit {
   public:
    explicit CountOnExit(ThreadPool* pool) : pool_(pool) {}
    ~CountOnExit();
    CountOnExit(const CountOnExit&) = delete;
    CountOnExit& operator=(const CountOnExit&) = delete;

   private:
    ThreadPool* pool_;
  };

  void Enqueue(std::function<void()> task);
  void WorkerLoop();

  mutable std::mutex mutex_;
  std::condition_variable work_available_;
  std::deque<std::function<void()>> queue_;
  std::vector<std::thread> workers_;
  int64_t executed_ = 0;
  bool shutting_down_ = false;
};

/// Resolves a job-count request: `jobs >= 1` is taken as-is; `jobs <= 0`
/// falls back to the GTPL_JOBS environment variable and then to
/// std::thread::hardware_concurrency() (at least 1).
int ResolveJobs(int jobs);

}  // namespace gtpl::exec

#endif  // GTPL_EXEC_THREAD_POOL_H_
