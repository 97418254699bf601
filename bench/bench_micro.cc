// Micro-benchmarks (google-benchmark) for the hot paths underneath the
// translator: string similarity, lexing/parsing, relation-tree mapping, join
// network generation, full translation, and SQL execution.
//
// Emits BENCH_micro.json with one row per benchmark (real/cpu seconds per
// iteration). For a fast CI smoke run pass --benchmark_min_time=0.01.

#include <benchmark/benchmark.h>

#include <vector>

#include "core/engine.h"
#include "obs/bench_report.h"
#include "core/mapper.h"
#include "core/mtjn_generator.h"
#include "core/relation_tree.h"
#include "exec/executor.h"
#include "sql/lexer.h"
#include "sql/parser.h"
#include "text/similarity.h"
#include "workloads/movie43.h"
#include "workloads/movie6.h"

namespace {

using namespace sfsql;            // NOLINT(build/namespaces)
using namespace sfsql::workloads; // NOLINT(build/namespaces)

void BM_QGramJaccard(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        text::QGramJaccard("produce_company", "Movie_Producer"));
  }
}
BENCHMARK(BM_QGramJaccard);

void BM_SchemaNameSimilarity(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        text::SchemaNameSimilarity("director_name", "Person"));
  }
}
BENCHMARK(BM_SchemaNameSimilarity);

void BM_EditDistance(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        text::EditDistance("release_year", "admission_year"));
  }
}
BENCHMARK(BM_EditDistance);

void BM_Lex(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(sql::Lex(Movie6SchemaFreeSql()));
  }
}
BENCHMARK(BM_Lex);

void BM_ParseSchemaFree(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(sql::ParseSelect(Movie6SchemaFreeSql()));
  }
}
BENCHMARK(BM_ParseSchemaFree);

void BM_ParseFullSql(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(sql::ParseSelect(Movie6GoldSql()));
  }
}
BENCHMARK(BM_ParseFullSql);

void BM_ExtractRelationTrees(benchmark::State& state) {
  auto stmt = sql::ParseSelect(Movie6SchemaFreeSql());
  for (auto _ : state) {
    auto clone = (*stmt)->Clone();
    benchmark::DoNotOptimize(core::ExtractRelationTrees(*clone));
  }
}
BENCHMARK(BM_ExtractRelationTrees);

void BM_MapRelationTree(benchmark::State& state) {
  auto db = BuildMovie43();
  core::RelationTreeMapper mapper(db.get(), core::SimilarityConfig{});
  auto stmt = sql::ParseSelect(SophisticatedQueries()[0].sfsql);
  auto extraction = core::ExtractRelationTrees(**stmt);
  for (auto _ : state) {
    for (const core::RelationTree& rt : extraction->trees) {
      benchmark::DoNotOptimize(mapper.Map(rt));
    }
  }
}
BENCHMARK(BM_MapRelationTree);

void BM_TopKGeneration(benchmark::State& state) {
  auto db = BuildMovie43();
  core::RelationTreeMapper mapper(db.get(), core::SimilarityConfig{});
  core::ViewGraph views(&db->catalog());
  auto stmt = sql::ParseSelect(SophisticatedQueries()[0].sfsql);
  auto extraction = core::ExtractRelationTrees(**stmt);
  core::QueryNameProfiles names(mapper.config().qgram);
  std::vector<core::MappingSet> mappings;
  for (const core::RelationTree& rt : extraction->trees) {
    mappings.push_back(mapper.Map(rt, names));
  }
  auto graph =
      core::ExtendedViewGraph::Build(*db, views, extraction->trees, mappings,
                                     mapper, names, core::GeneratorConfig{});
  core::MtjnGenerator generator(&*graph, core::GeneratorConfig{});
  for (auto _ : state) {
    benchmark::DoNotOptimize(generator.TopK(static_cast<int>(state.range(0))));
  }
}
BENCHMARK(BM_TopKGeneration)->Arg(1)->Arg(5)->Arg(10);

void BM_TranslateS1(benchmark::State& state) {
  auto db = BuildMovie43();
  core::SchemaFreeEngine engine(db.get());
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        engine.Translate(SophisticatedQueries()[0].sfsql, 1));
  }
}
BENCHMARK(BM_TranslateS1);

void BM_ExecuteGoldS1(benchmark::State& state) {
  auto db = BuildMovie43();
  exec::Executor executor(db.get());
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        executor.ExecuteSql(SophisticatedQueries()[0].gold_sql));
  }
}
BENCHMARK(BM_ExecuteGoldS1);

// Console reporter that also keeps every per-benchmark run so main() can turn
// them into the machine-readable report after the suite finishes.
class CaptureReporter : public benchmark::ConsoleReporter {
 public:
  void ReportRuns(const std::vector<Run>& reports) override {
    ConsoleReporter::ReportRuns(reports);
    for (const Run& run : reports) runs_.push_back(run);
  }
  const std::vector<Run>& runs() const { return runs_; }

 private:
  std::vector<Run> runs_;
};

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  CaptureReporter reporter;
  benchmark::RunSpecifiedBenchmarks(&reporter);
  benchmark::Shutdown();

  obs::BenchReport report("micro");
  report.SetConfig("framework", "google-benchmark");
  int benchmarks_run = 0;
  // google-benchmark only reports per-benchmark aggregates, so the latency
  // triple summarizes the distribution of per-iteration times across the
  // suite (one sample per benchmark).
  std::vector<double> real_seconds;
  for (const auto& run : reporter.runs()) {
    if (run.run_type == benchmark::BenchmarkReporter::Run::RT_Aggregate ||
        run.iterations <= 0) {
      continue;
    }
    ++benchmarks_run;
    real_seconds.push_back(run.real_accumulated_time /
                           static_cast<double>(run.iterations));
    report.AddRow(
        "benchmarks",
        sfsql::obs::BenchReport::Row()
            .Text("name", run.benchmark_name())
            .Number("iterations", static_cast<double>(run.iterations))
            .Number("real_seconds_per_iteration",
                    run.real_accumulated_time /
                        static_cast<double>(run.iterations))
            .Number("cpu_seconds_per_iteration",
                    run.cpu_accumulated_time /
                        static_cast<double>(run.iterations)));
  }
  report.SetMetric("benchmarks_run", benchmarks_run);
  report.SetLatencyMetrics("real_seconds_per_iteration",
                           std::move(real_seconds));
  (void)report.WriteFile();
  return 0;
}
