// Serving checks of the cross-query translation plan cache: N threads share
// one engine and translate a Zipf-skewed stream drawn from the movie43
// benchmark mix expanded with literal variants (workloads/serving.h).
// Serving throughput itself is measured end to end by perfbench's
// movie43_serve_rw workload, not here.
//
// Three phases:
//   1. Correctness — single-threaded, every distinct request translated
//      against a cache-enabled engine in an order that exercises all three
//      serving paths (cold miss, tier-1 structure hit via a sibling variant,
//      tier-2 exact hit on the second pass), cross-checked bit-identically
//      (SQL text, join-network weight, network rendering, result order)
//      against a cache-disabled engine. Any divergence fails the bench.
//   2. Cache effectiveness — the threaded Zipf stream against a warmed
//      cache-enabled engine, counting (not timing) its tier-2 and tier-1
//      hits and misses.
//   3. Profiling overhead — the stream again, against an engine with
//      always-on query profiling (a QueryProfileStore and a metrics
//      registry) vs an identically warmed engine without either, over 11
//      alternating on/off rounds. The median per-round profiling-on/off
//      throughput ratio proves the "always-on capture costs <= 5% serving
//      throughput" budget (EXPERIMENTS.md).
//
// Emits BENCH_serving.json with the cross-check verdict, the plan-cache
// counters and hit rates, and the median round's profiling on/off
// throughput pair with its ratio and the ratios' quartiles, the
// profiling-on p50/p95/p99 per-call latencies and the profile
// ring's drop count. `--smoke` shrinks the variant count and request counts
// for CI.
//
// Acceptance: translations identical, profiling on/off ratio >= 0.95.

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "common/strings.h"
#include "core/engine.h"
#include "core/plan_cache.h"
#include "core/profile.h"
#include "obs/bench_report.h"
#include "obs/metrics.h"
#include "workloads/metrics.h"
#include "workloads/movie43.h"
#include "workloads/serving.h"

using namespace sfsql;             // NOLINT(build/namespaces)
using namespace sfsql::workloads;  // NOLINT(build/namespaces)

namespace {

/// Renders one ranked translation list as a comparison key; any bit that
/// could differ under a caching bug (text, order, weight, network) is
/// included.
std::string ResultKey(const Result<std::vector<core::Translation>>& r) {
  if (!r.ok()) return StrCat("<", r.status().ToString(), ">");
  std::string key;
  for (const core::Translation& t : *r) {
    char weight[64];
    std::snprintf(weight, sizeof(weight), "%.17g", t.weight);
    key += t.sql + "\x1f" + weight + "\x1f" + t.network_text + "\x1e";
  }
  return key;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  int threads = 4;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else if (std::strcmp(argv[i], "--threads") == 0 && i + 1 < argc) {
      threads = std::atoi(argv[++i]);
    } else {
      std::fprintf(stderr, "usage: bench_serving [--smoke] [--threads N]\n");
      return 2;
    }
  }
  if (threads < 1) threads = 1;

  const int k = 5;
  const int variants = smoke ? 3 : 6;
  const double zipf_s = 1.0;
  const uint64_t seed = 42;
  const long long on_requests = smoke ? 600 : 8000;

  auto db = BuildMovie43(seed, 60);
  const std::vector<std::string> requests = ServingRequests(variants);

  obs::BenchReport report("serving");
  report.SetConfig("database", "movie43");
  report.SetConfig("smoke", static_cast<long long>(smoke ? 1 : 0));
  report.SetConfig("threads", static_cast<long long>(threads));
  report.SetConfig("distinct_requests",
                   static_cast<long long>(requests.size()));
  report.SetConfig("variants_per_query", static_cast<long long>(variants));
  report.SetConfig("zipf_s", zipf_s);
  report.SetConfig("k", static_cast<long long>(k));
  report.SetConfig("cache_on_requests", on_requests);

  std::printf("plan-cache serving checks — movie43, %zu distinct "
              "requests, %d threads, Zipf(%.1f), k = %d\n\n",
              requests.size(), threads, zipf_s, k);

  // Phase 1 — bit-identical cross-check. Pass 1 in request order covers the
  // cold miss (each query's first variant) and the tier-1 structure hits (its
  // later variants, which share a probe signature); pass 2 repeats every
  // request for the tier-2 exact hits.
  core::EngineConfig off_cfg;
  off_cfg.plan_cache_enabled = false;
  core::SchemaFreeEngine engine_off(db.get(), off_cfg);
  core::SchemaFreeEngine engine_on(db.get());
  long long mismatches = 0;
  for (int pass = 0; pass < 2; ++pass) {
    for (const std::string& request : requests) {
      if (ResultKey(engine_on.Translate(request, k)) !=
          ResultKey(engine_off.Translate(request, k))) {
        ++mismatches;
        std::fprintf(stderr, "MISMATCH (pass %d): %s\n", pass,
                     request.c_str());
      }
    }
  }
  const core::PlanCacheStats check_stats = engine_on.plan_cache_stats();
  const bool identical = mismatches == 0;
  std::printf("cross-check: %zu requests x 2 passes, %lld mismatches — "
              "tier-2 hits %llu, tier-1 hits %llu, misses %llu\n",
              requests.size(), mismatches,
              static_cast<unsigned long long>(check_stats.full_hits),
              static_cast<unsigned long long>(check_stats.structure_hits),
              static_cast<unsigned long long>(check_stats.structure_misses));

  // Phase 2 — cache effectiveness. One untimed pass fills the plan cache,
  // then the Zipf stream's tier hits are counted.
  core::SchemaFreeEngine serve_on(db.get());
  auto warmup = [&](const core::SchemaFreeEngine& engine) {
    for (const std::string& request : requests) {
      (void)engine.Translate(request, k);
    }
  };
  warmup(serve_on);
  const ServeResult on = RunServe(serve_on, requests, threads, on_requests,
                                  zipf_s, seed, k);
  const core::PlanCacheStats serve_stats = serve_on.plan_cache_stats();
  std::printf("translations identical (cache on vs off): %s\n",
              identical ? "yes" : "NO — BUG");
  std::printf("plan cache over %lld streamed calls (%lld errors): %llu tier-2 "
              "hits, %llu tier-1 hits, %llu misses, %zu entries\n",
              on.ok + on.errors, on.errors,
              static_cast<unsigned long long>(serve_stats.full_hits),
              static_cast<unsigned long long>(serve_stats.structure_hits),
              static_cast<unsigned long long>(serve_stats.structure_misses),
              serve_stats.entries);

  // Phase 3 — always-on profiling overhead. Two fresh cache-on engines, one
  // with a QueryProfileStore + metrics registry wired in, one bare; both
  // warmed identically, then the same Zipf stream through each. The ratio is
  // the price of always-on capture.
  obs::MetricsRegistry prof_registry;
  core::QueryProfileStore prof_store;
  core::EngineConfig prof_cfg;
  prof_cfg.metrics = &prof_registry;
  prof_cfg.profiles = &prof_store;
  core::SchemaFreeEngine prof_on_engine(db.get(), prof_cfg);
  core::SchemaFreeEngine prof_off_engine(db.get());
  warmup(prof_off_engine);
  warmup(prof_on_engine);
  // A ~5% budget needs a measurement well above scheduler noise: keep a
  // floor on the request count even in smoke mode and run the two modes
  // back-to-back for kProfilingRounds rounds, alternating which side runs
  // first so that warm-up drift does not favour either. The ratio is taken
  // per round — the two runs of a round are adjacent in time, so a
  // background process perturbs both sides and mostly cancels — and the
  // median round is reported with the quartile spread of the ratios (a
  // best-of-few pick cannot resolve a 5% budget: it reads the noisiest
  // round).
  constexpr int kProfilingRounds = 11;
  const long long prof_requests = std::max<long long>(on_requests, 12000);
  struct ProfilingRound {
    double ratio = 0.0;
    double off_qps = 0.0;
    double on_qps = 0.0;
    std::vector<double> on_latencies;
  };
  auto run = [&](const core::SchemaFreeEngine& engine) {
    return RunServe(engine, requests, threads, prof_requests, zipf_s, seed, k);
  };
  std::vector<ProfilingRound> rounds;
  for (int round = 0; round < kProfilingRounds; ++round) {
    ServeResult prof_off;
    ServeResult prof_on;
    if (round % 2 == 0) {
      prof_off = run(prof_off_engine);
      prof_on = run(prof_on_engine);
    } else {
      prof_on = run(prof_on_engine);
      prof_off = run(prof_off_engine);
    }
    if (prof_off.wall_seconds <= 0 || prof_on.wall_seconds <= 0 ||
        prof_off.ok == 0) {
      continue;
    }
    ProfilingRound r;
    r.off_qps = prof_off.ok / prof_off.wall_seconds;
    r.on_qps = prof_on.ok / prof_on.wall_seconds;
    r.ratio = r.on_qps / r.off_qps;
    r.on_latencies = std::move(prof_on.latencies_seconds);
    rounds.push_back(std::move(r));
  }
  std::sort(rounds.begin(), rounds.end(),
            [](const ProfilingRound& a, const ProfilingRound& b) {
              return a.ratio < b.ratio;
            });
  ProfilingRound median;
  double ratio_q1 = 0.0;
  double ratio_q3 = 0.0;
  if (!rounds.empty()) {
    const size_t n = rounds.size();
    ratio_q1 = rounds[n / 4].ratio;
    ratio_q3 = rounds[(3 * n) / 4].ratio;
    median = std::move(rounds[n / 2]);
  }
  const double overhead_ratio = median.ratio;
  const double prof_off_qps = median.off_qps;
  const double prof_on_qps = median.on_qps;
  std::printf("\nprofiling overhead (always-on QueryProfile capture + "
              "metrics):\n");
  std::printf("%-16s %12.1f q/s\n", "profiling off", prof_off_qps);
  std::printf("%-16s %12.1f q/s — %llu profiles recorded, %llu dropped\n",
              "profiling on", prof_on_qps,
              static_cast<unsigned long long>(prof_store.recorded()),
              static_cast<unsigned long long>(prof_store.dropped()));
  std::printf("ratio (on / off), median of %zu rounds: %.3f (quartiles "
              "%.3f–%.3f) — acceptance >= 0.95: %s\n",
              rounds.size(), overhead_ratio, ratio_q1, ratio_q3,
              overhead_ratio >= 0.95 ? "PASS" : "MISS");

  const uint64_t tier2_lookups =
      serve_stats.full_hits + serve_stats.full_misses;
  const uint64_t tier1_lookups =
      serve_stats.structure_hits + serve_stats.structure_misses;

  report.SetMetric("translations_identical", identical ? 1 : 0);
  report.SetMetric("cache_on_errors", static_cast<double>(on.errors));
  report.SetMetric("tier2_hits", static_cast<double>(serve_stats.full_hits));
  report.SetMetric("tier1_hits",
                   static_cast<double>(serve_stats.structure_hits));
  report.SetMetric("plan_misses",
                   static_cast<double>(serve_stats.structure_misses));
  report.SetMetric("plan_entries", static_cast<double>(serve_stats.entries));
  report.SetMetric("tier2_hit_rate",
                   tier2_lookups > 0
                       ? static_cast<double>(serve_stats.full_hits) /
                             static_cast<double>(tier2_lookups)
                       : 0.0);
  report.SetMetric("tier1_hit_rate",
                   tier1_lookups > 0
                       ? static_cast<double>(serve_stats.structure_hits) /
                             static_cast<double>(tier1_lookups)
                       : 0.0);
  report.SetMetric("profiling_on_queries_per_second", prof_on_qps);
  report.SetMetric("profiling_off_queries_per_second", prof_off_qps);
  report.SetMetric("profiling_overhead_ratio", overhead_ratio);
  report.SetMetric("profiling_overhead_ratio_q1", ratio_q1);
  report.SetMetric("profiling_overhead_ratio_q3", ratio_q3);
  report.SetMetric("profiling_rounds", static_cast<double>(rounds.size()));
  report.SetMetric("profiles_recorded",
                   static_cast<double>(prof_store.recorded()));
  report.SetMetric("profile_ring_dropped",
                   static_cast<double>(prof_store.dropped()));
  report.SetLatencyMetrics("profiling_on_translate_seconds",
                           std::move(median.on_latencies));
  RecordRunMetadata(&report, *db);
  (void)report.WriteFile();
  return identical ? 0 : 1;
}
