// Reproduces Fig. 14: the six sophisticated movie queries (join paths over
// five or more relations), specified by five simulated users each. Reports the
// average Schema-free SQL information-unit cost per query next to the GUI and
// full-SQL costs, and checks that every user's phrasing translates correctly
// in the top-1 interpretation (the paper's five students all did).
//
// Emits BENCH_fig14_sophisticated.json.

#include <chrono>
#include <cstdio>

#include "core/engine.h"
#include "obs/bench_report.h"
#include "workloads/metrics.h"
#include "workloads/movie43.h"

using namespace sfsql;            // NOLINT(build/namespaces)
using namespace sfsql::workloads; // NOLINT(build/namespaces)

int main() {
  auto db = BuildMovie43();
  core::SchemaFreeEngine engine(db.get());
  obs::BenchReport report("fig14_sophisticated");
  report.SetConfig("database", "movie43");
  report.SetConfig("users_per_query", 5LL);

  std::printf("Fig. 14 — sophisticated queries: avg SF-SQL units over 5 "
              "simulated users vs GUI vs SQL\n");
  std::printf("%-4s %8s %6s %6s   %s\n", "id", "SF-SQL", "GUI", "SQL",
              "users correct@1");

  int correct = 0, total = 0;
  double sum_sf = 0, sum_gui = 0, sum_sql = 0;
  std::vector<double> translate_seconds;
  const auto& queries = SophisticatedQueries();
  for (int qi = 0; qi < static_cast<int>(queries.size()); ++qi) {
    const BenchQuery& q = queries[qi];
    double sf_units = 0;
    int users_correct = 0;
    std::vector<std::string> variants = UserVariants(qi);
    for (const std::string& variant : variants) {
      sf_units += *SchemaFreeInfoUnits(variant);
      ++total;
      auto t0 = std::chrono::steady_clock::now();
      auto best = engine.TranslateBest(variant);
      translate_seconds.push_back(
          std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
              .count());
      if (best.ok()) {
        auto match = TranslationMatchesGold(*db, *best, q.gold_sql);
        if (match.ok() && *match) {
          ++users_correct;
          ++correct;
        }
      }
    }
    sf_units /= static_cast<double>(variants.size());
    int gui = *GuiInfoUnits(db->catalog(), q.gold_sql);
    int full = *FullSqlInfoUnits(q.gold_sql);
    sum_sf += sf_units;
    sum_gui += gui;
    sum_sql += full;
    std::printf("%-4s %8.1f %6d %6d   %d/%d\n", q.id.c_str(), sf_units, gui,
                full, users_correct, static_cast<int>(variants.size()));
    report.AddRow("queries", obs::BenchReport::Row()
                                 .Text("id", q.id)
                                 .Number("avg_sfsql_units", sf_units)
                                 .Number("gui_units", gui)
                                 .Number("sql_units", full)
                                 .Number("users_correct", users_correct)
                                 .Number("users", variants.size()));
  }

  const double n = static_cast<double>(queries.size());
  std::printf("\nall users correct@1: %d/%d (paper: 30/30)\n", correct, total);
  std::printf("avg units  SF-SQL %.1f | GUI %.1f | SQL %.1f\n", sum_sf / n,
              sum_gui / n, sum_sql / n);
  std::printf("SF-SQL cost = %.0f%% of SQL, %.0f%% of GUI "
              "(paper: 24%% of SQL, 45%% of GUI)\n",
              100.0 * sum_sf / sum_sql, 100.0 * sum_sf / sum_gui);

  report.SetMetric("users_correct_top1", correct);
  report.SetMetric("users_total", total);
  report.SetMetric("avg_units_sfsql", sum_sf / n);
  report.SetMetric("avg_units_gui", sum_gui / n);
  report.SetMetric("avg_units_sql", sum_sql / n);
  report.SetMetric("cost_vs_sql", sum_sf / sum_sql);
  report.SetMetric("cost_vs_gui", sum_sf / sum_gui);
  report.SetLatencyMetrics("translate_seconds", std::move(translate_seconds));
  RecordRunMetadata(&report, *db);
  (void)report.WriteFile();
  return correct == total ? 0 : 1;
}
