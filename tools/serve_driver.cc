// Concurrent serving driver: N threads share one engine and translate a
// Zipf-skewed request stream, printing throughput, latency percentiles, and
// the plan-cache counters. The interactive companion to bench_serving — use
// it to eyeball cache behavior under different knobs.
//
// Requests come from the built-in movie43 serving mix (workloads/serving.h)
// or, with --stdin, one schema-free query per input line (popularity is then
// Zipf over line order: earlier lines are hotter).
//
// The engine runs with always-on query profiling and a metrics registry.
// --stats-every S prints a periodic snapshot while serving (and keeps the
// sfsql_serving_latency_ms{quantile=...} gauges rolling over the profiles
// captured since the previous tick); --stats-json FILE writes a final
// machine-readable dump (driver stats + plan cache + every captured profile +
// the full metrics registry) that tools/sfsql_top consumes.
//
// Usage:
//   serve_driver [--threads N] [--exec-threads N] [--requests M]
//                [--variants V] [--zipf S] [--k K] [--capacity C]
//                [--no-cache] [--stdin] [--stats-every SEC]
//                [--stats-json FILE] [--profile-capacity P]
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/engine.h"
#include "core/plan_cache.h"
#include "core/profile.h"
#include "exec/task_pool.h"
#include "obs/bench_report.h"
#include "obs/export.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "workloads/movie43.h"
#include "workloads/serving.h"

using namespace sfsql;             // NOLINT(build/namespaces)
using namespace sfsql::workloads;  // NOLINT(build/namespaces)

namespace {

constexpr const char* kLatencyGaugeName = "sfsql_serving_latency_ms";
constexpr const char* kLatencyGaugeHelp =
    "Serving latency quantiles (ms) over the most recent stats window.";

/// Updates the rolling latency gauges from the profiles captured since
/// `last_id` and prints one stats line. Returns the highest profile id seen.
uint64_t RollStats(const core::QueryProfileStore& profiles,
                   obs::MetricsRegistry& registry, uint64_t last_id,
                   double elapsed_seconds) {
  std::vector<double> window_ms;
  uint64_t max_id = last_id;
  for (const core::QueryProfile& p : profiles.Snapshot()) {
    if (p.id <= last_id) continue;
    if (p.id > max_id) max_id = p.id;
    window_ms.push_back(p.latency_seconds * 1e3);
  }
  const double p50 = obs::BenchReport::Percentile(window_ms, 50);
  const double p95 = obs::BenchReport::Percentile(window_ms, 95);
  const double p99 = obs::BenchReport::Percentile(window_ms, 99);
  registry.GetGauge(kLatencyGaugeName, kLatencyGaugeHelp,
                    {{"quantile", "p50"}})->Set(p50);
  registry.GetGauge(kLatencyGaugeName, kLatencyGaugeHelp,
                    {{"quantile", "p95"}})->Set(p95);
  registry.GetGauge(kLatencyGaugeName, kLatencyGaugeHelp,
                    {{"quantile", "p99"}})->Set(p99);
  std::printf("[stats t=%.1fs] %zu queries in window, "
              "p50 %.3f ms  p95 %.3f ms  p99 %.3f ms, "
              "%llu profiles recorded, %llu dropped\n",
              elapsed_seconds, window_ms.size(), p50, p95, p99,
              static_cast<unsigned long long>(profiles.recorded()),
              static_cast<unsigned long long>(profiles.dropped()));
  std::fflush(stdout);
  return max_id;
}

void WriteStatsJson(const std::string& path, const ServeResult& r, double qps,
                    const core::SchemaFreeEngine& engine,
                    const core::QueryProfileStore& profiles,
                    const obs::MetricsRegistry& registry, int threads,
                    long long total_requests, size_t distinct) {
  obs::JsonWriter w(/*pretty=*/true);
  w.BeginObject();
  w.Key("driver");
  w.BeginObject();
  w.KV("threads", threads);
  w.KV("requests", static_cast<long long>(total_requests));
  w.KV("distinct_requests", static_cast<unsigned long long>(distinct));
  w.KV("ok", static_cast<long long>(r.ok));
  w.KV("errors", static_cast<long long>(r.errors));
  w.KV("wall_seconds", r.wall_seconds);
  w.KV("queries_per_second", qps);
  w.KV("latency_p50_ms",
       1e3 * obs::BenchReport::Percentile(r.latencies_seconds, 50));
  w.KV("latency_p95_ms",
       1e3 * obs::BenchReport::Percentile(r.latencies_seconds, 95));
  w.KV("latency_p99_ms",
       1e3 * obs::BenchReport::Percentile(r.latencies_seconds, 99));
  w.EndObject();

  const core::PlanCacheStats stats = engine.plan_cache_stats();
  w.Key("plan_cache");
  w.BeginObject();
  w.KV("full_hits", static_cast<unsigned long long>(stats.full_hits));
  w.KV("full_misses", static_cast<unsigned long long>(stats.full_misses));
  w.KV("structure_hits",
       static_cast<unsigned long long>(stats.structure_hits));
  w.KV("structure_misses",
       static_cast<unsigned long long>(stats.structure_misses));
  w.KV("entries", static_cast<unsigned long long>(stats.entries));
  w.KV("lru_evictions", static_cast<unsigned long long>(stats.lru_evictions));
  w.KV("stale_evictions",
       static_cast<unsigned long long>(stats.stale_evictions));
  w.EndObject();

  // The shared worker pool's lifetime counters (absent when the engine runs
  // fully serial: threads == 1 and exec-threads <= 1 → no pool exists).
  if (const exec::TaskPool* pool = engine.task_pool()) {
    const exec::TaskPoolStats ps = pool->stats();
    w.Key("pool");
    w.BeginObject();
    w.KV("workers", static_cast<unsigned long long>(ps.workers));
    w.KV("tasks", static_cast<unsigned long long>(ps.tasks));
    w.KV("parallel_fors", static_cast<unsigned long long>(ps.parallel_fors));
    w.KV("nested_inline", static_cast<unsigned long long>(ps.nested_inline));
    w.KV("idle_ms", static_cast<unsigned long long>(ps.idle_ms));
    w.EndObject();
  }

  w.Key("profiles");
  profiles.WriteJson(w);
  w.Key("metrics");
  obs::WriteRegistryJson(registry, w);
  w.EndObject();

  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "serve_driver: cannot write %s\n", path.c_str());
    return;
  }
  out << w.TakeString() << '\n';
  std::printf("stats written to %s\n", path.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  int threads = 4;
  int exec_threads = 0;  // 0 = inherit EngineConfig::num_threads
  long long total_requests = 2000;
  int variants = 4;
  double zipf_s = 1.0;
  int k = 5;
  long long capacity = 1 << 10;
  bool cache = true;
  bool from_stdin = false;
  double stats_every = 0.0;
  std::string stats_json;
  long long profile_capacity = 4096;
  for (int i = 1; i < argc; ++i) {
    auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    if (std::strcmp(argv[i], "--threads") == 0) {
      const char* v = next();
      threads = v ? std::atoi(v) : 0;
    } else if (std::strcmp(argv[i], "--exec-threads") == 0) {
      const char* v = next();
      exec_threads = v ? std::atoi(v) : -1;
    } else if (std::strcmp(argv[i], "--requests") == 0) {
      const char* v = next();
      total_requests = v ? std::atoll(v) : 0;
    } else if (std::strcmp(argv[i], "--variants") == 0) {
      const char* v = next();
      variants = v ? std::atoi(v) : 0;
    } else if (std::strcmp(argv[i], "--zipf") == 0) {
      const char* v = next();
      zipf_s = v ? std::atof(v) : -1.0;
    } else if (std::strcmp(argv[i], "--k") == 0) {
      const char* v = next();
      k = v ? std::atoi(v) : 0;
    } else if (std::strcmp(argv[i], "--capacity") == 0) {
      const char* v = next();
      capacity = v ? std::atoll(v) : -1;
    } else if (std::strcmp(argv[i], "--no-cache") == 0) {
      cache = false;
    } else if (std::strcmp(argv[i], "--stdin") == 0) {
      from_stdin = true;
    } else if (std::strcmp(argv[i], "--stats-every") == 0) {
      const char* v = next();
      stats_every = v ? std::atof(v) : -1.0;
    } else if (std::strcmp(argv[i], "--stats-json") == 0) {
      const char* v = next();
      stats_json = v ? v : "";
    } else if (std::strcmp(argv[i], "--profile-capacity") == 0) {
      const char* v = next();
      profile_capacity = v ? std::atoll(v) : 0;
    } else {
      std::fprintf(stderr,
                   "usage: serve_driver [--threads N] [--exec-threads N] "
                   "[--requests M] [--variants V] [--zipf S] [--k K] "
                   "[--capacity C] [--no-cache] [--stdin] [--stats-every SEC] "
                   "[--stats-json FILE] [--profile-capacity P]\n");
      return 2;
    }
  }
  if (threads < 1 || exec_threads < 0 || total_requests < 1 || variants < 1 ||
      zipf_s < 0.0 || k < 1 || capacity < 0 || stats_every < 0.0 ||
      profile_capacity < 1) {
    std::fprintf(stderr, "serve_driver: invalid argument value\n");
    return 2;
  }

  std::vector<std::string> requests;
  if (from_stdin) {
    std::string line;
    while (std::getline(std::cin, line)) {
      if (!line.empty()) requests.push_back(line);
    }
    if (requests.empty()) {
      std::fprintf(stderr, "serve_driver: --stdin given but no input lines\n");
      return 2;
    }
  } else {
    requests = ServingRequests(variants);
  }

  auto db = BuildMovie43();
  obs::MetricsRegistry registry;
  core::QueryProfileStore profiles(static_cast<size_t>(profile_capacity));
  core::EngineConfig cfg;
  cfg.plan_cache_enabled = cache;
  cfg.plan_cache_capacity = static_cast<size_t>(capacity);
  cfg.metrics = &registry;
  cfg.profiles = &profiles;
  cfg.exec_threads = exec_threads;
  core::SchemaFreeEngine engine(db.get(), cfg);

  std::printf("serving %lld requests (%zu distinct), %d threads, "
              "exec-threads %d, Zipf(%.2f), k = %d, plan cache %s "
              "(capacity %lld), profile ring %lld\n",
              total_requests, requests.size(), threads, exec_threads, zipf_s,
              k, cache ? "on" : "off", capacity, profile_capacity);

  // Periodic stats monitor: wakes every --stats-every seconds while the
  // serving threads run, rolling the latency gauges over the window of
  // profiles captured since the previous tick.
  std::mutex monitor_mu;
  std::condition_variable monitor_cv;
  bool serving_done = false;
  std::thread monitor;
  const auto start = std::chrono::steady_clock::now();
  if (stats_every > 0.0) {
    monitor = std::thread([&] {
      uint64_t last_id = 0;
      std::unique_lock<std::mutex> lock(monitor_mu);
      while (!monitor_cv.wait_for(
          lock, std::chrono::duration<double>(stats_every),
          [&] { return serving_done; })) {
        const double elapsed =
            std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                          start)
                .count();
        last_id = RollStats(profiles, registry, last_id, elapsed);
      }
    });
  }

  ServeResult r =
      RunServe(engine, requests, threads, total_requests, zipf_s, 42, k);

  if (monitor.joinable()) {
    {
      std::lock_guard<std::mutex> lock(monitor_mu);
      serving_done = true;
    }
    monitor_cv.notify_all();
    monitor.join();
  }
  // Leave the gauges describing the whole run (covers short runs where no
  // tick fired, and makes the final --stats-json self-consistent).
  RollStats(profiles, registry, 0,
            std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                          start)
                .count());

  const double qps = r.wall_seconds > 0 ? r.ok / r.wall_seconds : 0.0;
  std::printf("\n%lld ok, %lld errors in %.3f s — %.1f q/s\n", r.ok, r.errors,
              r.wall_seconds, qps);
  std::printf("latency ms: p50 %.3f  p95 %.3f  p99 %.3f\n",
              1e3 * obs::BenchReport::Percentile(r.latencies_seconds, 50),
              1e3 * obs::BenchReport::Percentile(r.latencies_seconds, 95),
              1e3 * obs::BenchReport::Percentile(r.latencies_seconds, 99));
  const core::PlanCacheStats stats = engine.plan_cache_stats();
  std::printf("plan cache: tier-2 %llu/%llu hit, tier-1 %llu/%llu hit, "
              "%zu entries, %llu lru + %llu stale evictions\n",
              static_cast<unsigned long long>(stats.full_hits),
              static_cast<unsigned long long>(stats.full_hits +
                                              stats.full_misses),
              static_cast<unsigned long long>(stats.structure_hits),
              static_cast<unsigned long long>(stats.structure_hits +
                                              stats.structure_misses),
              stats.entries,
              static_cast<unsigned long long>(stats.lru_evictions),
              static_cast<unsigned long long>(stats.stale_evictions));
  std::printf("profiles: %llu recorded, %llu dropped (ring capacity %zu)\n",
              static_cast<unsigned long long>(profiles.recorded()),
              static_cast<unsigned long long>(profiles.dropped()),
              profiles.capacity());
  if (const exec::TaskPool* pool = engine.task_pool()) {
    const exec::TaskPoolStats ps = pool->stats();
    std::printf("pool: %zu workers, %llu tasks, "
                "%llu parallel loops (%llu nested inline), idle %llu ms\n",
                ps.workers, static_cast<unsigned long long>(ps.tasks),
                static_cast<unsigned long long>(ps.parallel_fors),
                static_cast<unsigned long long>(ps.nested_inline),
                static_cast<unsigned long long>(ps.idle_ms));
  }

  if (!stats_json.empty()) {
    WriteStatsJson(stats_json, r, qps, engine, profiles, registry, threads,
                   total_requests, requests.size());
  }
  return 0;
}
