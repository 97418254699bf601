// Reproduces Fig. 13: information-unit cost of the 17 textbook-style queries
// on the 43-relation movie database, for Schema-free SQL vs a visual query
// builder (GUI) vs full SQL — plus the §7.2 effectiveness claim that all 17
// translate correctly in the top-1 interpretation with no view graph.
//
// Emits BENCH_fig13_textbook.json (shape: EXPERIMENTS.md, "Machine-readable
// bench output").

#include <cstdio>
#include <vector>

#include "core/engine.h"
#include "obs/bench_report.h"
#include "workloads/metrics.h"
#include "workloads/movie43.h"

using namespace sfsql;            // NOLINT(build/namespaces)
using namespace sfsql::workloads; // NOLINT(build/namespaces)

int main() {
  auto db = BuildMovie43();
  core::SchemaFreeEngine engine(db.get());
  obs::BenchReport report("fig13_textbook");
  report.SetConfig("database", "movie43");
  report.SetConfig("queries", static_cast<long long>(TextbookQueries().size()));
  report.SetConfig("k", 10LL);

  std::printf("Fig. 13 — information units per textbook query "
              "(SF-SQL vs GUI vs full SQL)\n");
  std::printf("%-4s %8s %6s %6s   %-7s %-7s\n", "id", "SF-SQL", "GUI", "SQL",
              "top-1", "top-10");

  int correct1 = 0, correct10 = 0;
  double sum_sf = 0, sum_gui = 0, sum_sql = 0;
  std::vector<double> translate_seconds;
  std::vector<double> phase_map, phase_generate;
  for (const BenchQuery& q : TextbookQueries()) {
    int sf = *SchemaFreeInfoUnits(q.sfsql);
    int gui = *GuiInfoUnits(db->catalog(), q.gold_sql);
    int full = *FullSqlInfoUnits(q.gold_sql);
    sum_sf += sf;
    sum_gui += gui;
    sum_sql += full;

    core::TranslateStats stats;
    auto translations = engine.Translate(q.sfsql, 10, &stats);
    translate_seconds.push_back(stats.parse_seconds + stats.map_seconds +
                                stats.graph_seconds + stats.generate_seconds +
                                stats.compose_seconds);
    phase_map.push_back(stats.map_seconds);
    phase_generate.push_back(stats.generate_seconds);
    bool top1 = false, top10 = false;
    if (translations.ok()) {
      for (size_t i = 0; i < translations->size(); ++i) {
        auto match = TranslationMatchesGold(*db, (*translations)[i], q.gold_sql);
        if (match.ok() && *match) {
          top10 = true;
          if (i == 0) top1 = true;
          break;
        }
      }
    }
    correct1 += top1 ? 1 : 0;
    correct10 += top10 ? 1 : 0;
    std::printf("%-4s %8d %6d %6d   %-7s %-7s\n", q.id.c_str(), sf, gui, full,
                top1 ? "yes" : "NO", top10 ? "yes" : "NO");
    report.AddRow("queries", obs::BenchReport::Row()
                                 .Text("id", q.id)
                                 .Number("sfsql_units", sf)
                                 .Number("gui_units", gui)
                                 .Number("sql_units", full)
                                 .Number("top1", top1 ? 1 : 0)
                                 .Number("top10", top10 ? 1 : 0));
  }

  const double n = static_cast<double>(TextbookQueries().size());
  std::printf("\ncorrect in top-1:  %d/17   (paper: 17/17, no view graph)\n",
              correct1);
  std::printf("correct in top-10: %d/17\n", correct10);
  std::printf("avg units  SF-SQL %.1f | GUI %.1f | SQL %.1f\n", sum_sf / n,
              sum_gui / n, sum_sql / n);
  std::printf("SF-SQL cost = %.0f%% of SQL, %.0f%% of GUI "
              "(paper: ~35%% of SQL, ~55%%... of GUI builder costs)\n",
              100.0 * sum_sf / sum_sql, 100.0 * sum_sf / sum_gui);

  report.SetMetric("top1_correct", correct1);
  report.SetMetric("top10_correct", correct10);
  report.SetMetric("avg_units_sfsql", sum_sf / n);
  report.SetMetric("avg_units_gui", sum_gui / n);
  report.SetMetric("avg_units_sql", sum_sql / n);
  report.SetMetric("cost_vs_sql", sum_sf / sum_sql);
  report.SetMetric("cost_vs_gui", sum_sf / sum_gui);
  report.SetMetric("median_translate_seconds",
                   obs::BenchReport::Median(translate_seconds));
  report.SetLatencyMetrics("translate_seconds", translate_seconds);
  report.SetMetric("median_map_seconds", obs::BenchReport::Median(phase_map));
  report.SetMetric("median_generate_seconds",
                   obs::BenchReport::Median(phase_generate));
  RecordRunMetadata(&report, *db);
  (void)report.WriteFile();
  return correct1 == 17 ? 0 : 1;
}
