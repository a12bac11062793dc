#include "runtime/thread_pool.hpp"

#include <utility>

#include "util/check.hpp"

namespace afs {

ThreadPool::ThreadPool(int workers) {
  AFS_CHECK(workers >= 1);
  threads_.reserve(static_cast<std::size_t>(workers));
  try {
    for (int i = 0; i < workers; ++i)
      threads_.emplace_back([this, i] { worker_main(i); });
  } catch (...) {
    // Partial construction: the jthread members already started will join
    // in their destructors, and they park on cv_start_ with no stop
    // condition — without this they would wait forever.
    {
      std::scoped_lock lock(mutex_);
      stop_ = true;
    }
    cv_start_.notify_all();
    throw;
  }
}

ThreadPool::~ThreadPool() {
  {
    std::scoped_lock lock(mutex_);
    stop_ = true;
  }
  cv_start_.notify_all();
  // jthread joins in its destructor; workers drain any queued tasks first.
}

void ThreadPool::worker_main(int id) {
  std::uint64_t seen_generation = 0;
  for (;;) {
    const std::function<void(int)>* job = nullptr;
    std::function<void()> task;
    {
      std::unique_lock lock(mutex_);
      cv_start_.wait(lock, [&] {
        return stop_ || generation_ != seen_generation || !tasks_.empty();
      });
      if (generation_ != seen_generation) {
        seen_generation = generation_;
        job = job_;
      } else if (!tasks_.empty()) {
        // Tasks are drained even when stop_ is set: shutdown must not
        // drop work that was accepted by submit().
        task = std::move(tasks_.front());
        tasks_.pop_front();
        ++tasks_running_;
      } else {
        return;  // stop_ set and nothing left to run
      }
    }
    if (job) {
      try {
        (*job)(id);
      } catch (...) {
        std::scoped_lock lock(mutex_);
        if (!first_error_) first_error_ = std::current_exception();
      }
      std::scoped_lock lock(mutex_);
      if (--running_ == 0) cv_done_.notify_all();
    } else {
      try {
        task();
      } catch (...) {
        std::scoped_lock lock(mutex_);
        if (!first_task_error_) first_task_error_ = std::current_exception();
      }
      std::scoped_lock lock(mutex_);
      if (--tasks_running_ == 0 && tasks_.empty()) cv_done_.notify_all();
    }
  }
}

void ThreadPool::run_on_all(const std::function<void(int)>& job) {
  std::unique_lock lock(mutex_);
  AFS_CHECK_MSG(running_ == 0, "run_on_all is not reentrant");
  job_ = &job;
  running_ = size();
  first_error_ = nullptr;
  ++generation_;
  cv_start_.notify_all();
  cv_done_.wait(lock, [&] { return running_ == 0; });
  job_ = nullptr;
  if (first_error_) std::rethrow_exception(first_error_);
}

void ThreadPool::submit(std::function<void()> task) {
  AFS_CHECK(task != nullptr);
  {
    std::scoped_lock lock(mutex_);
    AFS_CHECK_MSG(!stop_, "submit on a stopped ThreadPool");
    tasks_.push_back(std::move(task));
  }
  cv_start_.notify_one();
}

void ThreadPool::drain() {
  std::unique_lock lock(mutex_);
  cv_done_.wait(lock,
                [&] { return tasks_.empty() && tasks_running_ == 0; });
  if (first_task_error_) {
    std::exception_ptr err = std::exchange(first_task_error_, nullptr);
    lock.unlock();
    std::rethrow_exception(err);
  }
}

}  // namespace afs
