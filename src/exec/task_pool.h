#ifndef SFSQL_EXEC_TASK_POOL_H_
#define SFSQL_EXEC_TASK_POOL_H_

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace sfsql::obs {
class Counter;
class MetricsRegistry;
}  // namespace sfsql::obs

namespace sfsql::exec {

/// Blocking completion latch in the Go style: Add(n) before handing out n
/// units of work, Done() as each finishes, Wait() blocks until the count
/// returns to zero. Done() on a zero count is a bug; it is left undefined
/// rather than checked on the hot path.
class WaitGroup {
 public:
  void Add(size_t n);
  void Done();
  void Wait();

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  size_t count_ = 0;
};

/// Point-in-time pool counters (cumulative since construction). `idle_ms` is
/// the summed wall time workers spent parked waiting for work — on an
/// otherwise quiet engine it grows at `workers` seconds per second, which is
/// exactly what a utilization dashboard wants to divide by.
struct TaskPoolStats {
  size_t workers = 0;
  uint64_t tasks = 0;          ///< morsels executed (by workers and callers)
  uint64_t steals = 0;         ///< morsels a worker took from another's deque
  uint64_t parallel_fors = 0;  ///< ParallelFor calls that fanned out
  uint64_t nested_inline = 0;  ///< nested ParallelFor calls run inline
  uint64_t idle_ms = 0;        ///< total worker time parked waiting for work
};

/// Engine-wide work-stealing thread pool the executor's morsel loops fan out
/// on: a fixed set of OS threads with per-worker deques, so two concurrent
/// queries interleave at morsel granularity instead of oversubscribing the
/// machine with per-call thread spawns.
///
/// Scheduling: ParallelFor splits [0, n) into contiguous morsels of `grain`
/// items and deals them round-robin across the worker deques. Workers pop
/// their own deque from the front and steal from the back of a victim's
/// deque when empty; the calling thread participates too (it drains morsels
/// while waiting), so a pool with W workers reaches W+1-way parallelism and
/// a pool with zero workers degrades to a plain serial loop.
///
/// Concurrency contract:
///  * ParallelFor is safe to call from any number of threads concurrently;
///    morsels of distinct loops share the deques and complete independently.
///  * A nested ParallelFor (called from inside a pool task) runs inline and
///    serially on the calling thread — never deadlocks, counted in
///    stats().nested_inline so tests can assert the rejection fired.
///  * ParallelFor provides the usual fork-join memory ordering: writes by
///    the caller before the call happen-before every body invocation, and
///    writes by bodies happen-before ParallelFor's return. Pool tasks run
///    under whatever locks the *caller* holds (e.g. Database::ReadLock held
///    across Execute) — workers themselves never take engine locks.
///  * If any body throws, the first exception is captured and rethrown on
///    the calling thread after all morsels of the loop finish.
///
/// Destruction joins the workers; the owner must ensure no ParallelFor is in
/// flight (the engine destroys the pool after every executor is gone).
class TaskPool {
 public:
  /// Spawns `workers` OS threads (0 is valid: everything runs inline on the
  /// calling thread, which keeps single-threaded configs thread-free).
  explicit TaskPool(size_t workers);
  ~TaskPool();

  TaskPool(const TaskPool&) = delete;
  TaskPool& operator=(const TaskPool&) = delete;

  /// Worker threads plus the participating caller.
  size_t max_parallelism() const { return workers_.size() + 1; }

  /// Runs body(begin, end) over contiguous morsels [begin, end) covering
  /// [0, n), each at most `grain` items (grain 0 is treated as 1), and
  /// blocks until every morsel completed. Morsel boundaries are deterministic
  /// (i-th morsel is [i*grain, min(n, (i+1)*grain))); execution order is not
  /// — callers that need deterministic output must write into per-morsel
  /// slots and stitch in morsel order.
  void ParallelFor(size_t n, size_t grain,
                   const std::function<void(size_t, size_t)>& body);

  TaskPoolStats stats() const;

  /// Registers sfsql_pool_tasks_total, sfsql_pool_steals_total,
  /// sfsql_pool_parallel_fors_total and sfsql_pool_idle_ms_total in
  /// `registry` (null detaches). Counters are flushed from the pool's own
  /// atomics once per ParallelFor / worker wake, not per task.
  void EnableMetrics(obs::MetricsRegistry* registry);

 private:
  struct Morsel {
    struct LoopState* loop = nullptr;
    size_t begin = 0;
    size_t end = 0;
  };

  struct alignas(64) WorkerQueue {
    std::mutex mu;
    std::deque<Morsel> dq;
  };

  void WorkerLoop(size_t self);
  bool TryRunOne(size_t self);  ///< self == workers_.size() for callers
  void RunMorsel(const Morsel& m);
  void PublishMetricsDelta();

  std::vector<std::unique_ptr<WorkerQueue>> queues_;
  std::vector<std::thread> workers_;

  // Wake protocol: epoch_ increments under wake_mu_ whenever work is pushed;
  // a worker that found every deque empty re-checks the epoch before parking
  // so a push between its scan and its wait cannot be missed.
  std::mutex wake_mu_;
  std::condition_variable wake_cv_;
  uint64_t epoch_ = 0;
  bool stop_ = false;

  std::atomic<uint64_t> tasks_{0};
  std::atomic<uint64_t> steals_{0};
  std::atomic<uint64_t> parallel_fors_{0};
  std::atomic<uint64_t> nested_inline_{0};
  std::atomic<uint64_t> idle_ns_{0};

  // Last values flushed into the obs counters (guarded by metrics_mu_).
  std::mutex metrics_mu_;
  obs::Counter* tasks_counter_ = nullptr;
  obs::Counter* steals_counter_ = nullptr;
  obs::Counter* parallel_fors_counter_ = nullptr;
  obs::Counter* idle_ms_counter_ = nullptr;
  uint64_t tasks_published_ = 0;
  uint64_t steals_published_ = 0;
  uint64_t parallel_fors_published_ = 0;
  uint64_t idle_ms_published_ = 0;
};

}  // namespace sfsql::exec

#endif  // SFSQL_EXEC_TASK_POOL_H_
