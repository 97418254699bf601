// Integration tests for the sys_* virtual relations (core/introspection):
// a profiled workload is queryable back through the engine's own schema-free
// translation, and every system relation answers with live state. Also checks
// that the translate counters' one definition (kTranslateCounters) drives
// metrics, profiles and sys_queries alike.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/strings.h"
#include "core/engine.h"
#include "core/introspection.h"
#include "core/profile.h"
#include "exec/executor.h"
#include "exec/task_pool.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "storage/database.h"
#include "workloads/movie43.h"
#include "workloads/schema_builder.h"

namespace sfsql {
namespace {

// A workload query without quotes, so it can appear verbatim inside a SQL
// string literal when we look its profile back up.
constexpr const char* kWorkloadQuery = "SELECT title? WHERE year? > 2000";

class IntrospectionTest : public ::testing::Test {
 protected:
  IntrospectionTest()
      : db_(workloads::BuildMovie43(42, 60)) {
    core::EngineConfig config;
    config.metrics = &metrics_;
    config.profiles = &profiles_;
    engine_ = std::make_unique<core::SchemaFreeEngine>(db_.get(), config);
  }

  core::IntrospectionSources Sources() const {
    core::IntrospectionSources s;
    s.db = db_.get();
    s.engine = engine_.get();
    s.metrics = &metrics_;
    s.profiles = &profiles_;
    return s;
  }

  std::unique_ptr<storage::Database> db_;
  obs::MetricsRegistry metrics_;
  core::QueryProfileStore profiles_;
  std::unique_ptr<core::SchemaFreeEngine> engine_;
};

// The ISSUE's acceptance path: run a workload query, then find its profile by
// querying sys_queries *through the engine's own schema-free translation* —
// "queries" and "latency_ms" resolve by similarity, not exact names.
TEST_F(IntrospectionTest, FindsWorkloadProfileThroughSchemaFreeTranslation) {
  // Twice: the first Execute misses the plan cache, the second serves tier-2,
  // so the store holds one profile of each cache tier for the same statement.
  ASSERT_TRUE(engine_->Execute(kWorkloadQuery).ok());
  ASSERT_TRUE(engine_->Execute(kWorkloadQuery).ok());

  core::Introspection intro(Sources());
  std::string translated;
  auto r = intro.Query(
      "SELECT statement, latency_ms FROM queries WHERE latency_ms > 0",
      &translated);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_NE(translated.find("sys_queries"), std::string::npos) << translated;
  ASSERT_EQ(r->columns.size(), 2u);
  bool found = false;
  for (const storage::Row& row : r->rows) {
    if (row[0].AsString() == kWorkloadQuery) found = true;
  }
  EXPECT_TRUE(found) << "workload query not visible through sys_queries";
}

// The relation's contents must agree with the in-memory profiles: cache tier,
// rows scanned and access paths round-trip exactly (chunk counts: below).
TEST_F(IntrospectionTest, SysQueriesRowsMatchCapturedProfiles) {
  ASSERT_TRUE(engine_->Execute(kWorkloadQuery).ok());
  ASSERT_TRUE(engine_->Execute(kWorkloadQuery).ok());

  // The ground truth, straight from the store.
  std::vector<core::QueryProfile> captured = profiles_.Snapshot();
  ASSERT_EQ(captured.size(), 2u);
  EXPECT_EQ(captured[0].kind, core::CallKind::kExecute);
  EXPECT_EQ(captured[0].cache_tier, core::CacheTier::kMiss);
  EXPECT_EQ(captured[1].cache_tier, core::CacheTier::kTier2);
  EXPECT_FALSE(captured[1].exec.access_paths.empty());
  EXPECT_GT(captured[0].exec.stats.rows_scanned, 0u);

  core::Introspection intro(Sources());
  exec::Executor direct(&intro.database());
  auto r = direct.ExecuteSql(
      "SELECT id, cache_tier, exec_rows_scanned, access_paths FROM sys_queries "
      "ORDER BY id");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(r->rows.size(), captured.size());
  for (size_t i = 0; i < captured.size(); ++i) {
    const core::QueryProfile& p = captured[i];
    const storage::Row& row = r->rows[i];
    EXPECT_EQ(row[0].AsInt(), static_cast<int64_t>(p.id));
    EXPECT_EQ(row[1].AsString(), core::CacheTierName(p.cache_tier));
    EXPECT_EQ(row[2].AsInt(),
              static_cast<int64_t>(p.exec.stats.rows_scanned));
    // "binding:relation:access" per table — the access kind must be one the
    // executor can actually report.
    if (!p.exec.access_paths.empty()) {
      const exec::TableAccessExplain& first = p.exec.access_paths[0];
      const std::string& summary = row[3].AsString();
      EXPECT_NE(summary.find(first.relation), std::string::npos);
      EXPECT_NE(summary.find(first.access()), std::string::npos);
      EXPECT_TRUE(first.access() == "table_scan" ||
                  first.access() == "index_scan" ||
                  first.access() == "index_join")
          << first.access();
    }
  }
}

TEST_F(IntrospectionTest, SysMetricsAndPlanCacheReflectServing) {
  ASSERT_TRUE(engine_->Execute(kWorkloadQuery).ok());
  ASSERT_TRUE(engine_->Execute(kWorkloadQuery).ok());

  core::Introspection intro(Sources());
  exec::Executor direct(&intro.database());

  // The translate counter family exists and counted both calls.
  auto metrics = direct.ExecuteSql(
      "SELECT value FROM sys_metrics "
      "WHERE metric_name = 'sfsql_translate_total'");
  ASSERT_TRUE(metrics.ok()) << metrics.status().ToString();
  ASSERT_EQ(metrics->rows.size(), 1u);
  EXPECT_DOUBLE_EQ(metrics->rows[0][0].AsDouble(), 2.0);

  // The plan cache holds at least the tier-2 entry that served call #2, and
  // it is reachable schema-free ("plan cache" ~ sys_plan_cache).
  auto cache = intro.Query("SELECT tier, cache_key FROM plan_cache");
  ASSERT_TRUE(cache.ok()) << cache.status().ToString();
  EXPECT_GE(cache->rows.size(), 1u);
  bool has_full = false;
  for (const storage::Row& row : cache->rows) {
    if (row[0].AsString() == "full") has_full = true;
  }
  EXPECT_TRUE(has_full);
}

TEST_F(IntrospectionTest, SysRelationsChunksIndexesDescribeStorage) {
  ASSERT_TRUE(engine_->Execute(kWorkloadQuery).ok());

  core::Introspection intro(Sources());
  exec::Executor direct(&intro.database());

  auto relations = direct.ExecuteSql(
      "SELECT relation_name, row_count FROM sys_relations");
  ASSERT_TRUE(relations.ok());
  EXPECT_EQ(relations->rows.size(),
            static_cast<size_t>(db_->catalog().num_relations()));
  int64_t total_rows = 0;
  for (const storage::Row& row : relations->rows) {
    total_rows += row[1].AsInt();
  }
  EXPECT_GT(total_rows, 0);

  // Every (relation, chunk, attribute) triple carries its statistics.
  auto chunks = direct.ExecuteSql(
      "SELECT relation_name, chunk_no, attribute_name, chunk_rows "
      "FROM sys_chunks");
  ASSERT_TRUE(chunks.ok());
  EXPECT_GT(chunks->rows.size(), 0u);

  // sys_indexes lists only built indexes, all fresh on an unmodified db.
  auto indexes = direct.ExecuteSql(
      "SELECT relation_name, built_rows, stale FROM sys_indexes");
  ASSERT_TRUE(indexes.ok());
  for (const storage::Row& row : indexes->rows) {
    EXPECT_GT(row[1].AsInt(), 0);
    EXPECT_FALSE(row[2].AsBool());
  }
}

// sys_column_stats aggregates per-chunk statistics to table level: row counts
// must match sys_relations, null accounting must balance, and the NDV must be
// consistent with per-chunk estimates (union ≥ max chunk, ≤ non-null rows).
TEST_F(IntrospectionTest, SysColumnStatsAggregateAcrossChunks) {
  core::Introspection intro(Sources());
  exec::Executor direct(&intro.database());

  auto stats = direct.ExecuteSql(
      "SELECT relation_name, attribute_name, row_count, non_null_count, "
      "null_count, null_fraction, distinct_estimate "
      "FROM sys_column_stats");
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_GT(stats->rows.size(), 0u);

  // One row per (relation, attribute) of the observed database.
  size_t expected = 0;
  for (int r = 0; r < db_->catalog().num_relations(); ++r) {
    expected += db_->catalog().relation(r).attributes.size();
  }
  EXPECT_EQ(stats->rows.size(), expected);

  for (const storage::Row& row : stats->rows) {
    const int64_t rows = row[2].AsInt();
    const int64_t non_null = row[3].AsInt();
    const int64_t nulls = row[4].AsInt();
    const double null_fraction = row[5].AsDouble();
    const int64_t ndv = row[6].AsInt();
    EXPECT_EQ(non_null + nulls, rows) << row[0].AsString();
    EXPECT_LE(ndv, non_null) << row[0].AsString();
    if (rows > 0) {
      EXPECT_DOUBLE_EQ(null_fraction,
                       static_cast<double>(nulls) / static_cast<double>(rows));
    }
    if (non_null > 0) {
      EXPECT_GE(ndv, 1) << row[0].AsString();
    }
  }

  // Cross-check one concrete column against ground truth: Person.person_id is
  // a unique key, so the union NDV must land on (or within sketch error of)
  // the exact row count.
  auto person = direct.ExecuteSql(
      "SELECT row_count, distinct_estimate FROM sys_column_stats "
      "WHERE relation_name = 'Person' AND attribute_name = 'person_id'");
  ASSERT_TRUE(person.ok());
  ASSERT_EQ(person->rows.size(), 1u);
  const int64_t person_rows = person->rows[0][0].AsInt();
  const int64_t person_ndv = person->rows[0][1].AsInt();
  EXPECT_GT(person_rows, 0);
  EXPECT_GE(person_ndv, person_rows * 9 / 10);
  EXPECT_LE(person_ndv, person_rows);

  // And it is reachable through schema-free translation (null_fraction only
  // exists on sys_column_stats, so the mapping is unambiguous).
  std::string translated;
  auto free = intro.Query("SELECT null_fraction WHERE null_fraction >= 0",
                          &translated);
  ASSERT_TRUE(free.ok()) << free.status().ToString();
  EXPECT_NE(translated.find("sys_column_stats"), std::string::npos)
      << translated;
  EXPECT_EQ(free->rows.size(), expected);
}

// sys_pool exposes the engine's execution pool counters: one row whose worker
// count matches the engine's pool, with the activity of a parallel execute.
TEST_F(IntrospectionTest, SysPoolReportsSharedPoolCounters) {
  core::EngineConfig config;
  config.num_threads = 4;
  core::SchemaFreeEngine parallel_engine(db_.get(), config);
  ASSERT_NE(parallel_engine.task_pool(), nullptr);
  ASSERT_TRUE(parallel_engine.Execute(kWorkloadQuery).ok());

  core::IntrospectionSources sources = Sources();
  sources.pool = parallel_engine.task_pool();
  core::Introspection intro(sources);
  exec::Executor direct(&intro.database());
  auto r = direct.ExecuteSql(
      "SELECT workers, tasks, parallel_fors FROM sys_pool");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(r->rows.size(), 1u);
  EXPECT_EQ(r->rows[0][0].AsInt(), 3);  // num_threads - 1 workers
  const exec::TaskPoolStats stats = parallel_engine.task_pool()->stats();
  EXPECT_EQ(r->rows[0][1].AsInt(), static_cast<int64_t>(stats.tasks));
  EXPECT_EQ(r->rows[0][2].AsInt(), static_cast<int64_t>(stats.parallel_fors));

  // And it is reachable schema-free ("pool" ~ sys_pool).
  std::string translated;
  auto free = intro.Query("SELECT steals FROM pool", &translated);
  ASSERT_TRUE(free.ok()) << free.status().ToString();
  EXPECT_NE(translated.find("sys_pool"), std::string::npos) << translated;
  ASSERT_EQ(free->rows.size(), 1u);
}

// A profile's chunk counts both come from the top-level block's planned
// access paths, as EXPLAIN shows them: T(k, i = 10k) holds 32 rows in 4
// chunks of 8, and each query below plans a read of one chunk. The first
// scans T and runs its IN subquery once per outer row; the second is an
// IndexScan, which prunes chunks in its plan but never in a scan.
TEST(ProfileChunkCountsTest, ChunkCountsComeFromTheTopLevelPlan) {
  workloads::SchemaBuilder b;
  b.Rel("T", "k:int*, i:int");
  storage::Database db(b.Build(), /*chunk_capacity=*/8);
  for (int k = 0; k < 32; ++k) {
    ASSERT_TRUE(db.Insert(0, {storage::Value::Int(k),
                              storage::Value::Int(10 * k)})
                    .ok());
  }
  core::QueryProfileStore profiles;
  core::EngineConfig config;
  config.profiles = &profiles;
  core::SchemaFreeEngine engine(&db, config);
  ASSERT_TRUE(engine
                  .Execute("SELECT k FROM T WHERE i >= 80 AND i <= 150 AND k "
                           "IN (SELECT k FROM T WHERE i >= 80 AND i <= 150)")
                  .ok());
  ASSERT_TRUE(engine.Execute("SELECT k FROM T WHERE i = 70").ok());

  core::IntrospectionSources sources;
  sources.profiles = &profiles;
  core::Introspection intro(sources);
  exec::Executor direct(&intro.database());
  auto r = direct.ExecuteSql(
      "SELECT chunks_total, chunks_pruned, exec_chunks_pruned FROM sys_queries "
      "ORDER BY id");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(r->rows.size(), 2u);
  for (const storage::Row& row : r->rows) {
    EXPECT_EQ(row[0].AsInt(), 4);
    EXPECT_EQ(row[1].AsInt(), 3);
    EXPECT_LE(row[1].AsInt(), row[0].AsInt());
  }
  // The runtime counter still covers every executed block and every scan.
  EXPECT_GT(r->rows[0][2].AsInt(), 3);
  EXPECT_EQ(r->rows[1][2].AsInt(), 0);
}

// Every translate counter is defined once, in kTranslateCounters: after one
// Translate and one Execute, each descriptor's metric series holds the sum of
// its field over the two calls' profiles, and its key names exactly one
// profile JSON member and one sys_queries column.
TEST(TranslateCountersTest, EveryDescriptorDrivesMetricsProfilesAndSysQueries) {
  auto db = workloads::BuildMovie43(42, 60);
  obs::MetricsRegistry registry;
  core::QueryProfileStore profiles;
  core::EngineConfig config;
  config.metrics = &registry;
  config.profiles = &profiles;
  core::SchemaFreeEngine engine(db.get(), config);
  core::TranslateStats stats;
  ASSERT_TRUE(engine
                  .Translate("SELECT title? WHERE actor_name? = 'Kate Winslet' "
                             "AND director_name? = 'James Cameron'",
                             3, &stats)
                  .ok());
  ASSERT_TRUE(engine.Execute(kWorkloadQuery).ok());

  const std::vector<core::QueryProfile> captured = profiles.Snapshot();
  ASSERT_EQ(captured.size(), 2u);
  // Both ran the pipeline.
  ASSERT_EQ(captured[1].cache_tier, core::CacheTier::kMiss);
  EXPECT_GT(stats.generator.pushed, 0);
  EXPECT_GT(stats.sat_index_probes, 0);

  // "family{key=value}" -> series.
  std::map<std::string, const obs::MetricsRegistry::Series*> exported;
  registry.ForEachFamily([&](const obs::MetricsRegistry::Family& f) {
    for (const obs::MetricsRegistry::Series& series : f.series) {
      std::string name = f.name + "{";
      for (const obs::Label& l : series.labels) name += l.key + "=" + l.value;
      exported[name + "}"] = &series;
    }
  });
  EXPECT_EQ(exported.count("sfsql_satisfiability_probes_total{path=scan}"), 0u);
  EXPECT_EQ(exported.count("sfsql_satisfiability_probes_total{path=memo}"), 0u);
  for (const core::TranslateCounter& c : core::kTranslateCounters) {
    // The Translate's own stats are what its profile recorded.
    EXPECT_EQ(c.Value(stats), c.Value(captured[0].translate)) << c.key;
    const std::string name =
        c.label_key == nullptr
            ? StrCat(c.family, "{}")
            : StrCat(c.family, "{", c.label_key, "=", c.label_value, "}");
    ASSERT_EQ(exported.count(name), 1u) << name;
    const obs::MetricsRegistry::Series& series = *exported[name];
    const double sum = c.Value(captured[0].translate) +
                       c.Value(captured[1].translate);
    switch (c.metric) {
      case obs::MetricType::kCounter:
        ASSERT_NE(series.counter, nullptr) << c.key;
        EXPECT_EQ(static_cast<double>(series.counter->Value()), sum) << c.key;
        break;
      case obs::MetricType::kGauge:
        ASSERT_NE(series.gauge, nullptr) << c.key;
        EXPECT_DOUBLE_EQ(series.gauge->Value(), sum) << c.key;
        break;
      case obs::MetricType::kHistogram:
        ASSERT_NE(series.histogram, nullptr) << c.key;
        EXPECT_EQ(series.histogram->Count(), 2u) << c.key;
        EXPECT_DOUBLE_EQ(series.histogram->Sum(), sum) << c.key;
        break;
    }
  }

  auto json = obs::ParseJson(profiles.ToJson());
  ASSERT_TRUE(json.ok()) << json.status().ToString();
  const obs::JsonValue* records = json->Find("profiles");
  ASSERT_TRUE(records != nullptr && records->is_array());
  ASSERT_EQ(records->items.size(), 2u);

  core::IntrospectionSources sources;
  sources.profiles = &profiles;
  core::Introspection intro(sources);
  const catalog::Relation& sys_queries =
      intro.database().catalog().relation(0);
  ASSERT_EQ(sys_queries.name, "sys_queries");

  std::vector<std::string> keys;
  for (const core::TranslateCounter& c : core::kTranslateCounters) {
    keys.push_back(c.key);
  }
  for (const exec::ExecCounter& c : exec::kExecCounters) {
    keys.push_back(std::string("exec_") + c.name);
  }
  // Each key names one sys_queries column and one member of each record.
  std::vector<std::vector<std::string>> namings(1);
  for (const catalog::Attribute& a : sys_queries.attributes) {
    namings[0].push_back(a.name);
  }
  for (const obs::JsonValue& record : records->items) {
    namings.emplace_back();
    for (const auto& member : record.members) {
      namings.back().push_back(member.first);
    }
  }
  for (const std::string& key : keys) {
    for (const std::vector<std::string>& names : namings) {
      EXPECT_EQ(std::count(names.begin(), names.end(), key), 1) << key;
    }
  }

  exec::Executor direct(&intro.database());
  auto rows = direct.ExecuteSql("SELECT * FROM sys_queries");
  ASSERT_TRUE(rows.ok()) << rows.status().ToString();
  ASSERT_EQ(rows->rows.size(), 2u);
  for (const storage::Row& row : rows->rows) {
    EXPECT_EQ(row.size(), sys_queries.attributes.size());
  }
}

TEST(IntrospectionEmptyTest, NullSourcesYieldEmptyRelationsNotErrors) {
  core::Introspection intro(core::IntrospectionSources{});
  for (const char* sql :
       {"SELECT * FROM sys_queries", "SELECT * FROM sys_metrics",
        "SELECT * FROM sys_plan_cache", "SELECT * FROM sys_relations",
        "SELECT * FROM sys_chunks", "SELECT * FROM sys_indexes",
        "SELECT * FROM sys_column_stats", "SELECT * FROM sys_pool"}) {
    exec::Executor direct(&intro.database());
    auto r = direct.ExecuteSql(sql);
    ASSERT_TRUE(r.ok()) << sql << ": " << r.status().ToString();
    EXPECT_TRUE(r->rows.empty()) << sql;
  }
  // Schema-free translation still resolves against the empty snapshot.
  auto r = intro.Query("SELECT statement FROM queries");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_TRUE(r->rows.empty());
}

}  // namespace
}  // namespace sfsql
