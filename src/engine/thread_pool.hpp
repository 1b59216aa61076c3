#pragma once
// A minimal fixed-size worker pool — the first concurrency layer in the
// codebase. Deliberately small: a FIFO queue, submit(), and wait(); no
// futures, no work stealing. Jobs are coarse (one whole integration loop
// each, typically milliseconds to seconds), so queue contention is noise.
//
// Every worker has a stable name ("worker-0" .. "worker-N-1") registered
// as its obs trace track and readable from inside a task via
// currentWorkerName(), so batch reports and crash-isolation messages can
// say which worker ran a job instead of a raw thread id.

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

namespace mui::engine {

/// Fixed worker pool. submit() never blocks; wait() blocks until every
/// submitted task has finished. Tasks must not throw — the batch runner
/// catches everything per job (runner.cpp) and a worker additionally
/// swallows stray exceptions as a last line of defense, because an
/// exception escaping a std::thread terminates the process.
class ThreadPool {
 public:
  /// threads == 0 picks std::thread::hardware_concurrency() (at least 1).
  explicit ThreadPool(std::size_t threads);
  ~ThreadPool();  // waits for pending work, then joins

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  void submit(std::function<void()> task);
  void wait();

  [[nodiscard]] std::size_t threadCount() const { return workers_.size(); }

  /// The name of the pool worker executing the calling thread's current
  /// task, or "" when called off-pool (e.g. from main).
  static const std::string& currentWorkerName();

 private:
  void workerLoop(std::size_t index);

  std::vector<std::string> workerNames_;  // fixed before workers start
  std::vector<std::thread> workers_;
  std::deque<std::function<void()>> queue_;
  std::mutex mu_;
  std::condition_variable workCv_;  // work available or stopping
  std::condition_variable idleCv_;  // a task finished
  std::size_t active_ = 0;          // tasks currently executing
  bool stop_ = false;
};

}  // namespace mui::engine
