#include "runtime/thread_pool.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <set>
#include <stdexcept>
#include <vector>

#include "util/check.hpp"

namespace afs {
namespace {

TEST(ThreadPool, RunsJobOnEveryWorker) {
  ThreadPool pool(4);
  std::atomic<int> count{0};
  std::mutex m;
  std::set<int> ids;
  pool.run_on_all([&](int w) {
    count.fetch_add(1);
    std::scoped_lock lock(m);
    ids.insert(w);
  });
  EXPECT_EQ(count.load(), 4);
  EXPECT_EQ(ids, (std::set<int>{0, 1, 2, 3}));
}

TEST(ThreadPool, SizeReported) {
  ThreadPool pool(3);
  EXPECT_EQ(pool.size(), 3);
}

TEST(ThreadPool, RejectsZeroWorkers) {
  EXPECT_THROW(ThreadPool(0), CheckFailure);
}

TEST(ThreadPool, ReusableManyTimes) {
  ThreadPool pool(2);
  std::atomic<int> count{0};
  for (int i = 0; i < 100; ++i)
    pool.run_on_all([&](int) { count.fetch_add(1); });
  EXPECT_EQ(count.load(), 200);
}

TEST(ThreadPool, PropagatesWorkerException) {
  ThreadPool pool(4);
  EXPECT_THROW(pool.run_on_all([](int w) {
                 if (w == 2) throw std::runtime_error("boom");
               }),
               std::runtime_error);
  // Pool must still be usable afterwards.
  std::atomic<int> count{0};
  pool.run_on_all([&](int) { count.fetch_add(1); });
  EXPECT_EQ(count.load(), 4);
}

TEST(ThreadPool, SingleWorkerPool) {
  ThreadPool pool(1);
  int value = 0;
  pool.run_on_all([&](int w) { value = w + 1; });
  EXPECT_EQ(value, 1);
}

TEST(ThreadPool, ManyWorkersOnFewCores) {
  // Correctness must not depend on hardware concurrency.
  ThreadPool pool(16);
  std::atomic<int> count{0};
  pool.run_on_all([&](int) { count.fetch_add(1); });
  EXPECT_EQ(count.load(), 16);
}

TEST(ThreadPool, DestructorJoinsCleanly) {
  for (int i = 0; i < 10; ++i) {
    ThreadPool pool(3);
    pool.run_on_all([](int) {});
  }
  SUCCEED();
}

TEST(ThreadPool, SubmitAndDrainRunsEveryTask) {
  ThreadPool pool(4);
  std::atomic<int> count{0};
  for (int i = 0; i < 100; ++i)
    pool.submit([&] { count.fetch_add(1); });
  pool.drain();
  EXPECT_EQ(count.load(), 100);
}

TEST(ThreadPool, DrainOnEmptyQueueIsNoOp) {
  ThreadPool pool(2);
  pool.drain();
  SUCCEED();
}

TEST(ThreadPool, SubmitRejectsNullTask) {
  ThreadPool pool(1);
  EXPECT_THROW(pool.submit(std::function<void()>{}), CheckFailure);
}

TEST(ThreadPool, DrainRethrowsFirstTaskException) {
  ThreadPool pool(2);
  std::atomic<int> count{0};
  pool.submit([] { throw std::runtime_error("task boom"); });
  for (int i = 0; i < 10; ++i)
    pool.submit([&] { count.fetch_add(1); });
  EXPECT_THROW(pool.drain(), std::runtime_error);
  // A throwing task must not take the others down with it...
  EXPECT_EQ(count.load(), 10);
  // ...and the error must be cleared: the pool stays usable.
  pool.submit([&] { count.fetch_add(1); });
  pool.drain();
  EXPECT_EQ(count.load(), 11);
}

TEST(ThreadPool, TasksQueuedAtDestructionStillRun) {
  // Destroying the pool with work queued must execute it, not drop it.
  std::atomic<int> count{0};
  {
    ThreadPool pool(2);
    for (int i = 0; i < 50; ++i)
      pool.submit([&] { count.fetch_add(1); });
  }
  EXPECT_EQ(count.load(), 50);
}

TEST(ThreadPool, SubmitInterleavesWithRunOnAll) {
  ThreadPool pool(3);
  std::atomic<int> tasks{0}, jobs{0};
  pool.submit([&] { tasks.fetch_add(1); });
  pool.drain();
  pool.run_on_all([&](int) { jobs.fetch_add(1); });
  pool.submit([&] { tasks.fetch_add(1); });
  pool.drain();
  EXPECT_EQ(tasks.load(), 2);
  EXPECT_EQ(jobs.load(), 3);
}

}  // namespace
}  // namespace afs
