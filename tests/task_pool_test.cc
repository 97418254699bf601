// Unit tests for the engine-wide morsel pool (exec/task_pool): exactly-once
// morsel coverage at awkward grain/count combinations, the zero-worker inline
// degradation, exception propagation to the caller, nested-ParallelFor inline
// rejection, a caller never blocking on another loop's morsels, and
// concurrent loops sharing one pool (the TSan-relevant paths; CI runs this
// binary under -fsanitize=thread, repeated).

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <future>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "exec/task_pool.h"
#include "obs/metrics.h"

namespace sfsql::exec {
namespace {

// Every index in [0, n) must be visited exactly once, whatever the grain.
void ExpectExactCoverage(TaskPool& pool, size_t n, size_t grain) {
  std::vector<std::atomic<int>> hits(n);
  for (auto& h : hits) h.store(0);
  pool.ParallelFor(n, grain, [&](size_t b, size_t e) {
    ASSERT_LE(b, e);
    ASSERT_LE(e, n);
    for (size_t i = b; i < e; ++i) hits[i].fetch_add(1);
  });
  for (size_t i = 0; i < n; ++i) {
    EXPECT_EQ(hits[i].load(), 1) << "index " << i << " n=" << n
                                 << " grain=" << grain;
  }
}

TEST(TaskPoolTest, CoversEveryIndexExactlyOnce) {
  TaskPool pool(3);
  // Remainder morsels, grain > n, grain == n, grain 1, grain 0 (treated as 1).
  for (size_t n : {0u, 1u, 2u, 7u, 64u, 1000u}) {
    for (size_t grain : {0u, 1u, 3u, 64u, 5000u}) {
      ExpectExactCoverage(pool, n, grain);
    }
  }
}

TEST(TaskPoolTest, MorselBoundariesAreDeterministic) {
  TaskPool pool(2);
  constexpr size_t kN = 103;
  constexpr size_t kGrain = 10;
  std::vector<std::atomic<uint64_t>> seen((kN + kGrain - 1) / kGrain);
  for (auto& s : seen) s.store(0);
  pool.ParallelFor(kN, kGrain, [&](size_t b, size_t e) {
    // The i-th morsel must be [i*grain, min(n, (i+1)*grain)).
    ASSERT_EQ(b % kGrain, 0u);
    const size_t m = b / kGrain;
    ASSERT_EQ(e, std::min(kN, (m + 1) * kGrain));
    seen[m].fetch_add(1);
  });
  for (auto& s : seen) EXPECT_EQ(s.load(), 1u);
}

TEST(TaskPoolTest, ZeroWorkerPoolRunsInlineAndSerial) {
  TaskPool pool(0);
  EXPECT_EQ(pool.max_parallelism(), 1u);
  const auto caller = std::this_thread::get_id();
  std::vector<size_t> order;
  pool.ParallelFor(10, 3, [&](size_t b, size_t e) {
    EXPECT_EQ(std::this_thread::get_id(), caller);
    for (size_t i = b; i < e; ++i) order.push_back(i);
  });
  ASSERT_EQ(order.size(), 10u);
  for (size_t i = 0; i < order.size(); ++i) EXPECT_EQ(order[i], i);
}

TEST(TaskPoolTest, ExceptionPropagatesToCaller) {
  TaskPool pool(3);
  std::atomic<int> completed{0};
  try {
    pool.ParallelFor(100, 1, [&](size_t b, size_t) {
      if (b == 37) throw std::runtime_error("morsel 37 failed");
      completed.fetch_add(1);
    });
    FAIL() << "expected ParallelFor to rethrow";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "morsel 37 failed");
  }
  // Every non-throwing morsel still completed (the loop drains, not aborts),
  // so the pool is reusable afterwards.
  EXPECT_EQ(completed.load(), 99);
  ExpectExactCoverage(pool, 50, 7);
}

TEST(TaskPoolTest, NestedParallelForRunsInlineWithoutDeadlock) {
  TaskPool pool(2);
  std::vector<std::atomic<int>> inner_hits(64);
  for (auto& h : inner_hits) h.store(0);
  pool.ParallelFor(4, 1, [&](size_t, size_t) {
    // From inside a pool task the nested loop must not wait on pool workers
    // (they may all be busy running the outer loop) — it runs inline.
    pool.ParallelFor(16, 4, [&](size_t b, size_t e) {
      for (size_t i = b; i < e; ++i) inner_hits[i].fetch_add(1);
    });
  });
  for (size_t i = 0; i < 16; ++i) EXPECT_EQ(inner_hits[i].load(), 4);
  EXPECT_GE(pool.stats().nested_inline, 1u);
}

TEST(TaskPoolTest, StatsCountTasksAndLoops) {
  TaskPool pool(3);
  EXPECT_EQ(pool.stats().workers, 3u);
  EXPECT_EQ(pool.max_parallelism(), 4u);
  const TaskPoolStats before = pool.stats();
  pool.ParallelFor(40, 4, [](size_t, size_t) {});  // 10 morsels
  const TaskPoolStats after = pool.stats();
  EXPECT_EQ(after.tasks - before.tasks, 10u);
  EXPECT_EQ(after.parallel_fors - before.parallel_fors, 1u);
  // Single-morsel loops run inline and are not counted as fan-outs.
  pool.ParallelFor(3, 100, [](size_t, size_t) {});
  EXPECT_EQ(pool.stats().parallel_fors, after.parallel_fors);
}

TEST(TaskPoolTest, MetricsExportCountersMatchStats) {
  obs::MetricsRegistry registry;
  TaskPool pool(2);
  pool.EnableMetrics(&registry);
  pool.ParallelFor(32, 2, [](size_t, size_t) {});
  const TaskPoolStats stats = pool.stats();
  EXPECT_EQ(registry.GetCounter("sfsql_pool_tasks_total", "", {})->Value(),
            stats.tasks);
  EXPECT_EQ(
      registry.GetCounter("sfsql_pool_parallel_fors_total", "", {})->Value(),
      stats.parallel_fors);
}

// Two threads hammer the same pool with interleaved loops: workers serve
// both loops' cursors, so every loop must still see exactly-once
// coverage and a correct join. This is the contract two concurrent parallel
// queries rely on; run under TSan it also proves the fork-join ordering.
TEST(TaskPoolTest, ConcurrentParallelForsShareThePool) {
  TaskPool pool(3);
  constexpr int kLoopsPerThread = 50;
  constexpr size_t kN = 257;
  std::atomic<bool> failed{false};
  auto hammer = [&] {
    for (int l = 0; l < kLoopsPerThread && !failed.load(); ++l) {
      std::vector<std::atomic<int>> hits(kN);
      for (auto& h : hits) h.store(0);
      pool.ParallelFor(kN, 8, [&](size_t b, size_t e) {
        for (size_t i = b; i < e; ++i) hits[i].fetch_add(1);
      });
      for (size_t i = 0; i < kN; ++i) {
        if (hits[i].load() != 1) failed.store(true);
      }
    }
  };
  std::thread a(hammer);
  std::thread b(hammer);
  a.join();
  b.join();
  EXPECT_FALSE(failed.load());
  EXPECT_GE(pool.stats().tasks, 2u * kLoopsPerThread);
}

// A caller runs only its own loop's morsels. Here the one worker and a first
// caller are stuck inside a 3-morsel loop whose third morsel nobody has
// claimed; a second caller's loop must still finish, on the caller alone,
// instead of picking up the stuck loop's leftover morsel.
TEST(TaskPoolTest, CallerRunsOnlyItsOwnLoop) {
  TaskPool pool(1);
  std::mutex mu;
  std::condition_variable cv;
  int entered = 0;
  bool released = false;
  std::thread stuck([&] {
    pool.ParallelFor(3, 1, [&](size_t, size_t) {
      std::unique_lock<std::mutex> lk(mu);
      ++entered;
      cv.notify_all();
      cv.wait(lk, [&] { return released; });
    });
  });
  auto release = [&] {
    std::lock_guard<std::mutex> lk(mu);
    released = true;
    cv.notify_all();
  };
  {
    std::unique_lock<std::mutex> lk(mu);
    cv.wait(lk, [&] { return entered == 2; });
  }

  std::atomic<int> own{0};
  auto second = std::async(std::launch::async, [&] {
    pool.ParallelFor(4, 1, [&](size_t, size_t) { own.fetch_add(1); });
  });
  const bool finished =
      second.wait_for(std::chrono::seconds(10)) == std::future_status::ready;
  release();
  second.wait();
  stuck.join();
  EXPECT_TRUE(finished) << "a caller waited on another loop's morsel";
  EXPECT_EQ(own.load(), 4);
}

}  // namespace
}  // namespace sfsql::exec
