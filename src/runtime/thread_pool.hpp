// Persistent worker pool for the real-thread substrate.
//
// Workers are created once and reused for every parallel loop (CP.41:
// minimize thread creation), parked on a condition variable between jobs
// (CP.42: never wait without a condition). The pool intentionally allows
// more workers than hardware threads: the library must stay correct when
// reproducing a 64-processor algorithm on a small host, where workers are
// simply time-sliced.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace afs {

class ThreadPool {
 public:
  /// Spawns `workers` >= 1 threads, parked until run_on_all().
  explicit ThreadPool(int workers);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  int size() const { return static_cast<int>(threads_.size()); }

  /// Runs job(worker_id) once on every worker, concurrently; blocks the
  /// caller until all workers have finished. Exceptions thrown by the job
  /// are rethrown on the caller thread (first one wins).
  void run_on_all(const std::function<void(int)>& job);

  /// Enqueues `task` to run on whichever worker frees up first. Tasks run
  /// concurrently with each other (but a run_on_all job has priority once
  /// started). A task that throws never crashes a worker or wedges the
  /// pool: the first exception is held and rethrown by the next drain().
  /// Tasks still queued at destruction are executed, not dropped.
  void submit(std::function<void()> task);

  /// Blocks until every submitted task has finished, then rethrows the
  /// first task exception, if any (clearing it).
  void drain();

 private:
  void worker_main(int id);

  mutable std::mutex mutex_;
  std::condition_variable cv_start_;
  std::condition_variable cv_done_;
  const std::function<void(int)>* job_ = nullptr;
  std::uint64_t generation_ = 0;
  int running_ = 0;
  bool stop_ = false;
  std::exception_ptr first_error_;       // from the current run_on_all job
  std::deque<std::function<void()>> tasks_;
  int tasks_running_ = 0;
  std::exception_ptr first_task_error_;  // from submitted tasks, for drain()
  std::vector<std::jthread> threads_;
};

}  // namespace afs
