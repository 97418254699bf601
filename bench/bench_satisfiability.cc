// Probe-level throughput of the §4.3 condition-satisfiability layer — the
// (m+1)/(n+1) factor's existence checks — comparing the per-column indexes
// (storage/column_index) against a full scan at growing data sizes.
//
// Builds movie43 at --scale multiples of the base row count (default scales
// 1, 10, 100), derives a deterministic probe workload from the data itself
// (equality, inequalities, <>, IN lists, LIKE with wildcards / escapes /
// wildcard-free — hits and misses, every relation and attribute), and answers
// every probe two ways:
//   scan  — the reference scan (workloads::ScanConditionSatisfiable)
//   index — the mapper's probe, answered by the column indexes (the engine
//           path)
// Both must return identical answers; the bench cross-checks every probe and
// exits non-zero on any divergence. The lazy index builds are
// triggered by one untimed warmup pass so the timed rounds measure
// steady-state probe throughput; the one-time build cost is reported
// separately (index_builds / index_build_seconds).
//
// Emits BENCH_satisfiability.json with probes/sec per (scale, config) and the
// indexed-vs-scan speedups. `--smoke` reduces rounds for CI; `--scale N` runs
// a single scale instead of the default sweep.
//
// Acceptance: indexed probe throughput >= 5x scan at scale 10.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "core/mapper.h"
#include "obs/bench_report.h"
#include "workloads/metrics.h"
#include "workloads/movie43.h"

using namespace sfsql;             // NOLINT(build/namespaces)
using namespace sfsql::workloads;  // NOLINT(build/namespaces)

namespace {

struct Probe {
  int relation;
  int attr;
  core::Condition cond;
};

/// One probe set per database: for every column, conditions built around a
/// sampled value (hits) and around values absent from the data (misses). The
/// sample offset varies per column so the probes don't all hit row 0.
std::vector<Probe> BuildProbes(const storage::Database& db) {
  std::vector<Probe> probes;
  const catalog::Catalog& cat = db.catalog();
  for (int r = 0; r < cat.num_relations(); ++r) {
    const catalog::Relation& rel = cat.relation(r);
    const storage::Table& table = db.table(r);
    const size_t n = table.num_rows();
    for (int a = 0; a < static_cast<int>(rel.attributes.size()); ++a) {
      storage::Value sample;
      for (size_t i = 0; i < n && sample.is_null(); ++i) {
        sample = table.at((i + 7 * static_cast<size_t>(r) + a) % n,
                          static_cast<size_t>(a));
      }
      auto add = [&](std::string op, std::vector<storage::Value> values) {
        probes.push_back(
            Probe{r, a, core::Condition{std::move(op), std::move(values)}});
      };
      const storage::Value miss =
          sample.is_string()
              ? storage::Value::String("zzz no such value 424242")
          : sample.is_bool() ? storage::Value::Bool(false)
                             : storage::Value::Int(-987654321);
      if (!sample.is_null()) {
        add("=", {sample});
        add("<>", {sample});
        add(">", {sample});
        add("<=", {sample});
        add("in", {sample, miss});
      }
      add("=", {miss});
      if (sample.is_string() && !sample.AsString().empty()) {
        const std::string& s = sample.AsString();
        const std::string mid = s.size() >= 4 ? s.substr(1, 3) : s;
        add("like", {storage::Value::String("%" + mid + "%")});
        add("like",
            {storage::Value::String(s.substr(0, std::min<size_t>(3, s.size())) +
                                    "%")});  // prefix hit
        if (s.size() >= 2) {
          add("like", {storage::Value::String("_" + s.substr(1))});  // '_' hit
        }
        add("like", {storage::Value::String(s)});  // wildcard-free hit
        add("like", {storage::Value::String("%zq%xw42%")});  // trigram miss
        add("like", {storage::Value::String("100!%%"),
                     storage::Value::String("!")});  // escaped % literal
      }
    }
  }
  return probes;
}

struct RunResult {
  double seconds = 0.0;
  long long answered = 0;
  std::vector<char> answers;  ///< first-round answers, for cross-checking
  std::vector<double> round_seconds;  ///< per-round wall time (one full sweep)
};

/// Answers every probe `rounds` times through `probe`, timing each round.
template <typename ProbeFn>
RunResult RunProbes(const std::vector<Probe>& probes, int rounds,
                    ProbeFn&& probe) {
  RunResult out;
  out.answers.reserve(probes.size());
  const auto start = std::chrono::steady_clock::now();
  for (int round = 0; round < rounds; ++round) {
    const auto round_start = std::chrono::steady_clock::now();
    for (const Probe& p : probes) {
      const bool ans = probe(p);
      if (round == 0) out.answers.push_back(ans ? 1 : 0);
    }
    out.round_seconds.push_back(
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      round_start)
            .count());
  }
  out.seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  out.answered = static_cast<long long>(probes.size()) * rounds;
  return out;
}

/// Probes through a mapper, as the engine does.
RunResult RunMapper(const storage::Database* db,
                    const std::vector<Probe>& probes, int rounds) {
  core::RelationTreeMapper mapper(db, core::SimilarityConfig{});
  return RunProbes(probes, rounds, [&](const Probe& p) {
    return mapper.ConditionSatisfiable(p.relation, p.attr, p.cond);
  });
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  int single_scale = 0;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else if (std::strcmp(argv[i], "--scale") == 0 && i + 1 < argc) {
      single_scale = std::atoi(argv[++i]);
      if (single_scale < 1) {
        std::fprintf(stderr, "usage: bench_satisfiability [--smoke] "
                             "[--scale N>=1]\n");
        return 2;
      }
    } else {
      std::fprintf(stderr,
                   "usage: bench_satisfiability [--smoke] [--scale N>=1]\n");
      return 2;
    }
  }
  const uint64_t seed = 42;
  const int base_rows = 60;
  // Scan probing is O(rows), so a couple of rounds suffice; the indexed paths
  // answer in nanoseconds and need many rounds for timing resolution.
  const int scan_rounds = smoke ? 1 : 2;
  const int index_rounds = smoke ? 5 : 50;
  std::vector<int> scales = single_scale > 0 ? std::vector<int>{single_scale}
                                             : std::vector<int>{1, 10, 100};

  obs::BenchReport report("satisfiability");
  report.SetConfig("database", "movie43");
  report.SetConfig("seed", static_cast<long long>(seed));
  report.SetConfig("base_rows_per_relation", static_cast<long long>(base_rows));
  report.SetConfig("scan_rounds", static_cast<long long>(scan_rounds));
  report.SetConfig("index_rounds", static_cast<long long>(index_rounds));

  std::printf("condition-satisfiability probe throughput — movie43, "
              "scales x%d..x%d\n\n",
              scales.front(), scales.back());
  std::printf("%7s %10s %9s %15s %15s %9s\n", "scale", "rows", "probes",
              "scan p/s", "index p/s", "idx spd");

  bool all_identical = true;
  double speedup_at_10 = 0.0;
  // Per-round sweep times of the engine path, pooled across scales — the
  // bench's primary latency distribution.
  std::vector<double> index_round_seconds;
  std::unique_ptr<storage::Database> last_db;
  for (int scale : scales) {
    auto db = BuildMovie43(seed, base_rows, scale);
    const std::vector<Probe> probes = BuildProbes(*db);

    const storage::ColumnIndexStats before = db->column_index_stats();
    RunResult scan = RunProbes(probes, scan_rounds, [&](const Probe& p) {
      return ScanConditionSatisfiable(*db, p.relation, p.attr, p.cond);
    });
    // Untimed warmup pass: triggers every lazy index build so the timed
    // configurations measure steady-state probing; the build cost lands in
    // the index_builds / index_build_seconds deltas below.
    (void)RunMapper(db.get(), probes, 1);
    const storage::ColumnIndexStats warmed = db->column_index_stats();
    RunResult indexed = RunMapper(db.get(), probes, index_rounds);
    index_round_seconds.insert(index_round_seconds.end(),
                               indexed.round_seconds.begin(),
                               indexed.round_seconds.end());

    const bool identical = scan.answers == indexed.answers;
    all_identical = all_identical && identical;

    const double scan_qps = scan.answered / scan.seconds;
    const double index_qps = indexed.answered / indexed.seconds;
    const double index_speedup = index_qps / scan_qps;
    if (scale == 10) speedup_at_10 = index_speedup;

    std::printf("%6dx %10zu %9zu %15.0f %15.0f %8.1fx%s\n", scale,
                db->TotalRows(), probes.size(), scan_qps, index_qps,
                index_speedup, identical ? "" : "  ANSWERS DIVERGE — BUG");

    const std::string suffix = "_scale" + std::to_string(scale);
    report.AddRow(
        "scales",
        obs::BenchReport::Row()
            .Number("scale", scale)
            .Number("dataset_rows", static_cast<double>(db->TotalRows()))
            .Number("probes", static_cast<double>(probes.size()))
            .Number("scan_probes_per_second", scan_qps)
            .Number("index_probes_per_second", index_qps)
            .Number("speedup_indexed_vs_scan", index_speedup)
            .Number("index_builds", static_cast<double>(warmed.builds -
                                                        before.builds))
            .Number("index_build_seconds",
                    warmed.build_seconds - before.build_seconds)
            .Number("answers_identical", identical ? 1 : 0));
    report.SetMetric("scan_probes_per_second" + suffix, scan_qps);
    report.SetMetric("index_probes_per_second" + suffix, index_qps);
    report.SetMetric("speedup_indexed_vs_scan" + suffix, index_speedup);
    last_db = std::move(db);
  }

  report.SetMetric("answers_identical", all_identical ? 1 : 0);
  if (speedup_at_10 > 0.0) {
    report.SetMetric("speedup_indexed_vs_scan_scale10", speedup_at_10);
    std::printf("\nacceptance: indexed >= 5x scan at 10x scale — %.1fx %s\n",
                speedup_at_10, speedup_at_10 >= 5.0 ? "PASS" : "MISS");
  }
  std::printf("answers identical to the scan: %s\n",
              all_identical ? "yes" : "NO — BUG");

  report.SetLatencyMetrics("index_round_seconds",
                           std::move(index_round_seconds));
  RecordRunMetadata(&report, *last_db);
  (void)report.WriteFile();
  return all_identical ? 0 : 1;
}
