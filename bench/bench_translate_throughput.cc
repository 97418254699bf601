// End-to-end translation throughput on movie43, isolating the hot-path
// optimization this repo adds on top of the paper's algorithms: the
// similarity + mapping caches (with precomputed schema-name profiles).
//
// The workload is the full benchmark query mix (17 textbook + 6 sophisticated
// + 30 user variants), translated at k = 5 for several rounds. Configurations:
//   baseline   — cache capacity 0 (the pre-optimization behavior)
//   cache      — default cache
// Both must produce identical translations; the bench cross-checks the best
// SQL per query and aborts on any divergence.
//
// Emits BENCH_translate_throughput.json with queries/sec, per-phase medians,
// and cache hit rates per configuration. `--smoke` forces rounds = 1.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <chrono>
#include <string>
#include <vector>

#include "core/engine.h"
#include "obs/bench_report.h"
#include "workloads/metrics.h"
#include "workloads/movie43.h"

using namespace sfsql;             // NOLINT(build/namespaces)
using namespace sfsql::workloads;  // NOLINT(build/namespaces)

namespace {

struct RunResult {
  double seconds = 0.0;
  int translated = 0;
  core::TranslateStats total;  // phase sums over every call
  // Per-call phase times, for median reporting (robust to warm-up outliers).
  std::vector<double> call_parse, call_map, call_graph, call_generate,
      call_compose, call_total;
  uint64_t cache_hits = 0;
  uint64_t cache_misses = 0;
  std::vector<std::string> best_sql;  // per query, first round (for checking)
};

std::vector<std::string> Workload() {
  std::vector<std::string> queries;
  for (const BenchQuery& q : TextbookQueries()) queries.push_back(q.sfsql);
  for (const BenchQuery& q : SophisticatedQueries()) queries.push_back(q.sfsql);
  for (int i = 0; i < 6; ++i) {
    for (const std::string& v : UserVariants(i)) queries.push_back(v);
  }
  return queries;
}

RunResult RunConfig(const storage::Database* db, const core::EngineConfig& cfg,
                    const std::vector<std::string>& queries, int rounds,
                    int k) {
  // This bench measures the translation *pipeline* (similarity caches); the
  // plan cache would turn every round after the first into a
  // lookup and hide exactly what is being compared. bench_serving measures
  // the plan cache.
  core::EngineConfig pipeline_cfg = cfg;
  pipeline_cfg.plan_cache_enabled = false;
  core::SchemaFreeEngine engine(db, pipeline_cfg);
  RunResult out;
  auto start = std::chrono::steady_clock::now();
  for (int round = 0; round < rounds; ++round) {
    for (size_t i = 0; i < queries.size(); ++i) {
      core::TranslateStats stats;
      auto result = engine.Translate(queries[i], k, &stats);
      out.total.parse_seconds += stats.parse_seconds;
      out.total.map_seconds += stats.map_seconds;
      out.total.graph_seconds += stats.graph_seconds;
      out.total.generate_seconds += stats.generate_seconds;
      out.total.compose_seconds += stats.compose_seconds;
      out.call_parse.push_back(stats.parse_seconds);
      out.call_map.push_back(stats.map_seconds);
      out.call_graph.push_back(stats.graph_seconds);
      out.call_generate.push_back(stats.generate_seconds);
      out.call_compose.push_back(stats.compose_seconds);
      out.call_total.push_back(stats.parse_seconds + stats.map_seconds +
                               stats.graph_seconds + stats.generate_seconds +
                               stats.compose_seconds);
      if (!result.ok()) {
        if (round == 0) out.best_sql.push_back("<" + result.status().ToString() + ">");
        continue;
      }
      ++out.translated;
      if (round == 0) out.best_sql.push_back(result->front().sql);
    }
  }
  out.seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  text::SimilarityCache::Stats cs = engine.similarity_cache().stats();
  out.cache_hits = cs.hits;
  out.cache_misses = cs.misses;
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  int rounds = 5;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      rounds = 1;
    } else {
      rounds = std::atoi(argv[i]);
    }
  }
  if (rounds <= 0) {
    std::fprintf(stderr,
                 "usage: bench_translate_throughput [rounds>=1 | --smoke]\n");
    return 2;
  }
  const int k = 5;
  auto db = BuildMovie43(42, 60);
  std::vector<std::string> queries = Workload();

  obs::BenchReport report("translate_throughput");
  report.SetConfig("database", "movie43");
  report.SetConfig("queries", static_cast<long long>(queries.size()));
  report.SetConfig("rounds", static_cast<long long>(rounds));
  report.SetConfig("k", static_cast<long long>(k));

  core::EngineConfig baseline;
  baseline.similarity_cache_capacity = 0;
  baseline.mapping_cache_capacity = 0;
  core::EngineConfig cached;

  struct Config {
    const char* name;
    const char* key;  // stable short id for the JSON report
    core::EngineConfig cfg;
  } configs[] = {
      {"baseline (no cache)", "baseline", baseline},
      {"cache", "cache", cached},
  };

  std::printf("translation throughput — movie43, %zu queries x %d rounds, "
              "k = %d\n\n",
              queries.size(), rounds, k);
  std::printf("%-30s %9s %9s %8s %9s\n", "config", "total s", "q/s", "speedup",
              "hit rate");

  double baseline_qps = 0.0;
  std::vector<RunResult> results;
  for (const Config& c : configs) {
    RunResult r = RunConfig(db.get(), c.cfg, queries, rounds, k);
    double qps = r.translated / r.seconds;
    if (results.empty()) baseline_qps = qps;
    double hit_rate =
        r.cache_hits + r.cache_misses == 0
            ? 0.0
            : static_cast<double>(r.cache_hits) / (r.cache_hits + r.cache_misses);
    std::printf("%-30s %9.3f %9.1f %7.2fx %8.1f%%\n", c.name, r.seconds, qps,
                qps / baseline_qps, 100.0 * hit_rate);
    report.AddRow(
        "configs",
        obs::BenchReport::Row()
            .Text("config", c.key)
            .Number("seconds", r.seconds)
            .Number("queries_per_second", qps)
            .Number("speedup_vs_baseline", qps / baseline_qps)
            .Number("cache_hit_rate", hit_rate)
            .Number("median_translate_seconds",
                    obs::BenchReport::Median(r.call_total))
            .Number("median_parse_seconds",
                    obs::BenchReport::Median(r.call_parse))
            .Number("median_map_seconds", obs::BenchReport::Median(r.call_map))
            .Number("median_graph_seconds",
                    obs::BenchReport::Median(r.call_graph))
            .Number("median_generate_seconds",
                    obs::BenchReport::Median(r.call_generate))
            .Number("median_compose_seconds",
                    obs::BenchReport::Median(r.call_compose)));
    report.SetMetric(std::string(c.key) + "_queries_per_second", qps);
    report.SetMetric(std::string(c.key) + "_cache_hit_rate", hit_rate);
    report.SetLatencyMetrics(std::string(c.key) + "_translate_seconds",
                             r.call_total);
    results.push_back(std::move(r));
  }

  // Per-phase wall clock (summed over all calls) for each configuration.
  std::printf("\nper-phase seconds (parse / map / graph / generate / compose)\n");
  for (size_t i = 0; i < results.size(); ++i) {
    const core::TranslateStats& t = results[i].total;
    std::printf("%-30s %7.3f %7.3f %7.3f %7.3f %7.3f\n", configs[i].name,
                t.parse_seconds, t.map_seconds, t.graph_seconds,
                t.generate_seconds, t.compose_seconds);
  }

  // The optimizations must be invisible in the output.
  bool identical = true;
  for (size_t i = 1; i < results.size(); ++i) {
    if (results[i].best_sql != results[0].best_sql) identical = false;
  }
  std::printf("\ntranslations identical across configs: %s\n",
              identical ? "yes" : "NO — BUG");

  report.SetMetric("translations_identical", identical ? 1 : 0);
  RecordRunMetadata(&report, *db);
  (void)report.WriteFile();
  if (!identical) return 1;
  return 0;
}
