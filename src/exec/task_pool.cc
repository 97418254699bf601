#include "exec/task_pool.h"

#include <algorithm>
#include <chrono>
#include <exception>
#include <utility>

#include "obs/metrics.h"

namespace sfsql::exec {

namespace {

/// Set while this thread is executing a pool task; a ParallelFor issued from
/// inside one must not block on pool capacity it is itself occupying.
thread_local bool t_in_pool_task = false;

}  // namespace

/// One fanned-out ParallelFor. The caller and every worker serving it hold a
/// reference, so the record outlives whichever of them touches it last.
/// `body` lives on the caller's stack; it is only called for a claimed
/// morsel, and the caller waits for every claimed morsel to finish.
struct TaskPool::Loop {
  const std::function<void(size_t, size_t)>* body = nullptr;
  size_t n = 0;
  size_t grain = 0;
  size_t morsels = 0;
  std::atomic<size_t> next{0};  ///< claim cursor: the next unclaimed morsel
  std::atomic<size_t> done{0};  ///< morsels finished
  std::mutex mu;                ///< guards `ex`; pairs with `done_cv`
  std::condition_variable done_cv;
  std::exception_ptr ex;
};

TaskPool::TaskPool(size_t workers) {
  workers_.reserve(workers);
  for (size_t i = 0; i < workers; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

TaskPool::~TaskPool() {
  {
    std::lock_guard<std::mutex> lk(mu_);
    stop_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& t : workers_) t.join();
}

void TaskPool::RunMorsels(Loop& loop) {
  const bool prev = t_in_pool_task;
  t_in_pool_task = true;
  for (;;) {
    const size_t i = loop.next.fetch_add(1, std::memory_order_relaxed);
    if (i >= loop.morsels) break;
    const size_t begin = i * loop.grain;
    try {
      (*loop.body)(begin, std::min(loop.n, begin + loop.grain));
    } catch (...) {
      std::lock_guard<std::mutex> lk(loop.mu);
      if (!loop.ex) loop.ex = std::current_exception();
    }
    if (loop.done.fetch_add(1, std::memory_order_acq_rel) + 1 ==
        loop.morsels) {
      std::lock_guard<std::mutex> lk(loop.mu);
      loop.done_cv.notify_all();
    }
  }
  t_in_pool_task = prev;
}

void TaskPool::Retire(const Loop* loop) {
  auto it = std::find_if(loops_.begin(), loops_.end(),
                         [loop](const auto& l) { return l.get() == loop; });
  if (it != loops_.end()) loops_.erase(it);
}

void TaskPool::WorkerLoop() {
  std::unique_lock<std::mutex> lk(mu_);
  for (;;) {
    if (stop_) return;
    if (loops_.empty()) {
      const auto t0 = std::chrono::steady_clock::now();
      work_cv_.wait(lk, [this] { return stop_ || !loops_.empty(); });
      const auto waited = std::chrono::steady_clock::now() - t0;
      idle_ns_.fetch_add(
          std::chrono::duration_cast<std::chrono::nanoseconds>(waited).count(),
          std::memory_order_relaxed);
      lk.unlock();
      PublishMetricsDelta();
      lk.lock();
      continue;
    }
    std::shared_ptr<Loop> loop = loops_.front();
    lk.unlock();
    RunMorsels(*loop);
    lk.lock();
    Retire(loop.get());
  }
}

void TaskPool::ParallelFor(size_t n, size_t grain,
                           const std::function<void(size_t, size_t)>& body) {
  if (n == 0) return;
  if (grain == 0) grain = 1;
  const size_t num_morsels = (n + grain - 1) / grain;

  auto run_inline = [&] {
    for (size_t begin = 0; begin < n; begin += grain) {
      body(begin, std::min(n, begin + grain));
    }
    tasks_.fetch_add(num_morsels, std::memory_order_relaxed);
  };

  if (t_in_pool_task) {
    // Nested fan-out would block on pool capacity this thread is occupying;
    // run the loop inline instead (still morsel-by-morsel, so per-morsel
    // output slots stitch identically).
    nested_inline_.fetch_add(1, std::memory_order_relaxed);
    run_inline();
    return;
  }
  if (workers_.empty() || num_morsels == 1) {
    run_inline();
    PublishMetricsDelta();
    return;
  }

  auto loop = std::make_shared<Loop>();
  loop->body = &body;
  loop->n = n;
  loop->grain = grain;
  loop->morsels = num_morsels;
  {
    std::lock_guard<std::mutex> lk(mu_);
    loops_.push_back(loop);
  }
  work_cv_.notify_all();
  parallel_fors_.fetch_add(1, std::memory_order_relaxed);

  // The caller claims from its own cursor until it runs out, then waits only
  // for the morsels workers still hold.
  RunMorsels(*loop);
  {
    std::lock_guard<std::mutex> lk(mu_);
    Retire(loop.get());
  }
  {
    std::unique_lock<std::mutex> lk(loop->mu);
    loop->done_cv.wait(lk, [&] {
      return loop->done.load(std::memory_order_acquire) == num_morsels;
    });
  }
  tasks_.fetch_add(num_morsels, std::memory_order_relaxed);
  PublishMetricsDelta();

  // Taken out of the record, so that a worker dropping the last reference
  // to it later never frees the exception the caller is handling.
  if (std::exception_ptr ex = std::move(loop->ex)) std::rethrow_exception(ex);
}

TaskPoolStats TaskPool::stats() const {
  TaskPoolStats s;
  s.workers = workers_.size();
  s.tasks = tasks_.load(std::memory_order_relaxed);
  s.parallel_fors = parallel_fors_.load(std::memory_order_relaxed);
  s.nested_inline = nested_inline_.load(std::memory_order_relaxed);
  s.idle_ms = idle_ns_.load(std::memory_order_relaxed) / 1000000;
  return s;
}

void TaskPool::EnableMetrics(obs::MetricsRegistry* registry) {
  std::lock_guard<std::mutex> lk(metrics_mu_);
  if (registry == nullptr) {
    tasks_counter_ = parallel_fors_counter_ = idle_ms_counter_ = nullptr;
    return;
  }
  tasks_counter_ = registry->GetCounter(
      "sfsql_pool_tasks_total", "Morsels executed by the engine task pool");
  parallel_fors_counter_ = registry->GetCounter(
      "sfsql_pool_parallel_fors_total",
      "ParallelFor calls that fanned out across the pool");
  idle_ms_counter_ = registry->GetCounter(
      "sfsql_pool_idle_ms_total",
      "Total milliseconds pool workers spent parked waiting for work");
  tasks_published_ = parallel_fors_published_ = idle_ms_published_ = 0;
}

void TaskPool::PublishMetricsDelta() {
  std::lock_guard<std::mutex> lk(metrics_mu_);
  if (tasks_counter_ == nullptr) return;
  TaskPoolStats s = stats();
  tasks_counter_->Increment(s.tasks - tasks_published_);
  parallel_fors_counter_->Increment(s.parallel_fors -
                                    parallel_fors_published_);
  idle_ms_counter_->Increment(s.idle_ms - idle_ms_published_);
  tasks_published_ = s.tasks;
  parallel_fors_published_ = s.parallel_fors;
  idle_ms_published_ = s.idle_ms;
}

}  // namespace sfsql::exec
