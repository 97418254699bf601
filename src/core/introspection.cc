#include "core/introspection.h"

#include <utility>
#include <vector>

#include "common/macros.h"
#include "common/strings.h"
#include "core/plan_cache.h"
#include "core/profile.h"
#include "exec/task_pool.h"
#include "obs/metrics.h"
#include "storage/value.h"

namespace sfsql::core {

namespace {

using catalog::Attribute;
using catalog::Relation;
using catalog::ValueType;
using storage::Row;
using storage::Value;

Relation MakeRelation(std::string name,
                      std::vector<std::pair<std::string, ValueType>> attrs,
                      std::vector<int> primary_key = {}) {
  Relation rel;
  rel.name = std::move(name);
  rel.attributes.reserve(attrs.size());
  for (auto& [attr_name, type] : attrs) {
    rel.attributes.push_back(Attribute{std::move(attr_name), type});
  }
  rel.primary_key = std::move(primary_key);
  return rel;
}

/// The sys_queries columns: every profile column, then the access paths as
/// "binding:relation:access" per table, ';'-joined — enough to eyeball a
/// plan from a sys_queries row without a JSON parser.
const std::vector<ProfileColumn>& QueryColumns() {
  static const std::vector<ProfileColumn> columns = [] {
    std::vector<ProfileColumn> cols = ProfileColumns();
    cols.push_back({"access_paths", ValueType::kString,
                    [](const QueryProfile& p) {
                      std::string out;
                      for (const auto& t : p.exec.access_paths) {
                        if (!out.empty()) out += ';';
                        out += StrCat(t.binding, ":", t.relation, ":",
                                      t.access());
                      }
                      return Value::String(std::move(out));
                    }});
    return cols;
  }();
  return columns;
}

std::vector<Row> QueryRows(const QueryProfileStore* profiles) {
  std::vector<Row> rows;
  if (profiles == nullptr) return rows;
  const std::vector<ProfileColumn>& columns = QueryColumns();
  for (const QueryProfile& p : profiles->Snapshot()) {
    Row row;
    row.reserve(columns.size());
    for (const ProfileColumn& c : columns) row.push_back(c.get(p));
    rows.push_back(std::move(row));
  }
  return rows;
}

std::vector<Row> MetricRows(const obs::MetricsRegistry* metrics) {
  std::vector<Row> rows;
  if (metrics == nullptr) return rows;
  metrics->ForEachFamily([&](const obs::MetricsRegistry::Family& family) {
    const char* type = family.type == obs::MetricType::kCounter   ? "counter"
                       : family.type == obs::MetricType::kGauge   ? "gauge"
                                                                  : "histogram";
    for (const obs::MetricsRegistry::Series& series : family.series) {
      std::string labels;
      for (const obs::Label& l : series.labels) {
        if (!labels.empty()) labels += ',';
        labels += StrCat(l.key, "=", l.value);
      }
      Row row;
      row.reserve(6);
      row.push_back(Value::String(family.name));
      row.push_back(Value::String(type));
      row.push_back(Value::String(std::move(labels)));
      switch (family.type) {
        case obs::MetricType::kCounter:
          row.push_back(
              Value::Double(static_cast<double>(series.counter->Value())));
          row.push_back(Value::Null_());
          row.push_back(Value::Null_());
          break;
        case obs::MetricType::kGauge:
          row.push_back(Value::Double(series.gauge->Value()));
          row.push_back(Value::Null_());
          row.push_back(Value::Null_());
          break;
        case obs::MetricType::kHistogram:
          row.push_back(Value::Null_());
          row.push_back(
              Value::Int(static_cast<int64_t>(series.histogram->Count())));
          row.push_back(Value::Double(series.histogram->Sum()));
          break;
      }
      rows.push_back(std::move(row));
    }
  });
  return rows;
}

std::vector<Row> PlanCacheRows(const SchemaFreeEngine* engine) {
  std::vector<Row> rows;
  if (engine == nullptr) return rows;
  for (PlanCacheEntry& e : engine->plan_cache_snapshot()) {
    Row row;
    row.reserve(4);
    row.push_back(Value::String(std::move(e.kind)));
    row.push_back(Value::String(std::move(e.key)));
    row.push_back(Value::Int(e.translations));
    row.push_back(Value::Int(e.stamped_relations));
    rows.push_back(std::move(row));
  }
  return rows;
}

std::vector<Row> RelationRows(const storage::Database* db) {
  std::vector<Row> rows;
  if (db == nullptr) return rows;
  for (int r = 0; r < db->catalog().num_relations(); ++r) {
    const storage::Table& table = db->table(r);
    Row row;
    row.reserve(6);
    row.push_back(Value::Int(r));
    row.push_back(Value::String(db->catalog().relation(r).name));
    row.push_back(Value::Int(static_cast<int64_t>(table.num_attrs())));
    row.push_back(Value::Int(static_cast<int64_t>(db->NumRows(r))));
    row.push_back(Value::Int(static_cast<int64_t>(table.num_chunks())));
    row.push_back(Value::Int(static_cast<int64_t>(db->RelationEpoch(r))));
    rows.push_back(std::move(row));
  }
  return rows;
}

std::vector<Row> ChunkRows(const storage::Database* db) {
  std::vector<Row> rows;
  if (db == nullptr) return rows;
  for (int r = 0; r < db->catalog().num_relations(); ++r) {
    const Relation& rel = db->catalog().relation(r);
    const storage::Table& table = db->table(r);
    for (size_t c = 0; c < table.num_chunks(); ++c) {
      const storage::Chunk& chunk = table.chunk(c);
      for (size_t a = 0; a < chunk.num_attrs(); ++a) {
        const storage::ChunkStats& stats = chunk.stats(a);
        Row row;
        row.reserve(8);
        row.push_back(Value::String(rel.name));
        row.push_back(Value::Int(static_cast<int64_t>(c)));
        row.push_back(Value::String(rel.attributes[a].name));
        row.push_back(Value::Int(static_cast<int64_t>(chunk.size())));
        row.push_back(Value::Int(static_cast<int64_t>(stats.null_count())));
        row.push_back(
            Value::Int(static_cast<int64_t>(stats.DistinctEstimate())));
        if (stats.all_null()) {
          row.push_back(Value::Null_());
          row.push_back(Value::Null_());
        } else {
          row.push_back(Value::String(stats.min().ToString()));
          row.push_back(Value::String(stats.max().ToString()));
        }
        rows.push_back(std::move(row));
      }
    }
  }
  return rows;
}

std::vector<Row> ColumnStatsRows(const storage::Database* db) {
  std::vector<Row> rows;
  if (db == nullptr) return rows;
  for (int r = 0; r < db->catalog().num_relations(); ++r) {
    const Relation& rel = db->catalog().relation(r);
    const storage::Table& table = db->table(r);
    for (size_t a = 0; a < table.num_attrs(); ++a) {
      const storage::ColumnStats stats = table.ColumnStatsFor(a);
      Row row;
      row.reserve(9);
      row.push_back(Value::String(rel.name));
      row.push_back(Value::String(rel.attributes[a].name));
      row.push_back(Value::Int(static_cast<int64_t>(stats.rows)));
      row.push_back(Value::Int(static_cast<int64_t>(stats.non_null_count)));
      row.push_back(Value::Int(static_cast<int64_t>(stats.null_count)));
      row.push_back(Value::Double(stats.null_fraction()));
      row.push_back(
          Value::Int(static_cast<int64_t>(stats.distinct_estimate)));
      if (stats.has_values) {
        row.push_back(Value::String(stats.min.ToString()));
        row.push_back(Value::String(stats.max.ToString()));
      } else {
        row.push_back(Value::Null_());
        row.push_back(Value::Null_());
      }
      rows.push_back(std::move(row));
    }
  }
  return rows;
}

std::vector<Row> IndexRows(const storage::Database* db) {
  std::vector<Row> rows;
  if (db == nullptr) return rows;
  for (const auto& info : db->BuiltColumnIndexes()) {
    const Relation& rel = db->catalog().relation(info.relation_id);
    Row row;
    row.reserve(6);
    row.push_back(Value::String(rel.name));
    row.push_back(Value::String(rel.attributes[info.attr_index].name));
    row.push_back(Value::Int(static_cast<int64_t>(info.built_rows)));
    row.push_back(Value::Int(static_cast<int64_t>(info.num_distinct)));
    row.push_back(Value::Int(static_cast<int64_t>(info.num_distinct_strings)));
    row.push_back(Value::Bool(info.built_rows != db->NumRows(info.relation_id)));
    rows.push_back(std::move(row));
  }
  return rows;
}

std::vector<Row> PoolRows(const exec::TaskPool* pool) {
  std::vector<Row> rows;
  if (pool == nullptr) return rows;
  const exec::TaskPoolStats stats = pool->stats();
  Row row;
  row.reserve(6);
  row.push_back(Value::Int(static_cast<int64_t>(stats.workers)));
  row.push_back(Value::Int(static_cast<int64_t>(stats.tasks)));
  row.push_back(Value::Int(static_cast<int64_t>(stats.steals)));
  row.push_back(Value::Int(static_cast<int64_t>(stats.parallel_fors)));
  row.push_back(Value::Int(static_cast<int64_t>(stats.nested_inline)));
  row.push_back(Value::Int(static_cast<int64_t>(stats.idle_ms)));
  rows.push_back(std::move(row));
  return rows;
}

}  // namespace

Introspection::Introspection(const IntrospectionSources& sources) {
  constexpr ValueType kInt = ValueType::kInt64;
  constexpr ValueType kDouble = ValueType::kDouble;
  constexpr ValueType kString = ValueType::kString;
  constexpr ValueType kBool = ValueType::kBool;

  catalog::Catalog catalog;
  // AddRelation cannot fail here (fixed names, no duplicates), so the results
  // are intentionally unchecked; relation ids are insertion order 0..7.
  std::vector<std::pair<std::string, ValueType>> query_attrs;
  for (const ProfileColumn& c : QueryColumns()) {
    query_attrs.emplace_back(c.name, c.type);
  }
  (void)catalog.AddRelation(MakeRelation("sys_queries", std::move(query_attrs),
                                         /*primary_key=*/{0}));
  (void)catalog.AddRelation(MakeRelation("sys_metrics",
                                         {{"metric_name", kString},
                                          {"metric_type", kString},
                                          {"labels", kString},
                                          {"value", kDouble},
                                          {"observations", kInt},
                                          {"sum", kDouble}}));
  (void)catalog.AddRelation(MakeRelation("sys_plan_cache",
                                         {{"tier", kString},
                                          {"cache_key", kString},
                                          {"translations", kInt},
                                          {"stamped_relations", kInt}}));
  (void)catalog.AddRelation(MakeRelation("sys_relations",
                                         {{"id", kInt},
                                          {"relation_name", kString},
                                          {"attributes", kInt},
                                          {"row_count", kInt},
                                          {"chunk_count", kInt},
                                          {"epoch", kInt}},
                                         /*primary_key=*/{0}));
  (void)catalog.AddRelation(MakeRelation("sys_chunks",
                                         {{"relation_name", kString},
                                          {"chunk_no", kInt},
                                          {"attribute_name", kString},
                                          {"chunk_rows", kInt},
                                          {"null_count", kInt},
                                          {"distinct_estimate", kInt},
                                          {"min_value", kString},
                                          {"max_value", kString}}));
  (void)catalog.AddRelation(MakeRelation("sys_indexes",
                                         {{"relation_name", kString},
                                          {"attribute_name", kString},
                                          {"built_rows", kInt},
                                          {"distinct_values", kInt},
                                          {"distinct_strings", kInt},
                                          {"stale", kBool}}));
  (void)catalog.AddRelation(MakeRelation("sys_column_stats",
                                         {{"relation_name", kString},
                                          {"attribute_name", kString},
                                          {"row_count", kInt},
                                          {"non_null_count", kInt},
                                          {"null_count", kInt},
                                          {"null_fraction", kDouble},
                                          {"distinct_estimate", kInt},
                                          {"min_value", kString},
                                          {"max_value", kString}}));
  (void)catalog.AddRelation(MakeRelation("sys_pool",
                                         {{"workers", kInt},
                                          {"tasks", kInt},
                                          {"steals", kInt},
                                          {"parallel_fors", kInt},
                                          {"nested_inline", kInt},
                                          {"idle_ms", kInt}}));

  db_ = std::make_unique<storage::Database>(std::move(catalog));
  (void)db_->InsertRows(0, QueryRows(sources.profiles));
  (void)db_->InsertRows(1, MetricRows(sources.metrics));
  (void)db_->InsertRows(2, PlanCacheRows(sources.engine));
  (void)db_->InsertRows(3, RelationRows(sources.db));
  (void)db_->InsertRows(4, ChunkRows(sources.db));
  (void)db_->InsertRows(5, IndexRows(sources.db));
  (void)db_->InsertRows(6, ColumnStatsRows(sources.db));
  (void)db_->InsertRows(7, PoolRows(sources.pool));

  // The snapshot never changes, so a plan cache would only shadow bugs; the
  // serving engine's metrics/profile hooks stay off — observing the observer
  // would feed back into sys_queries.
  EngineConfig config;
  config.plan_cache_enabled = false;
  engine_ = std::make_unique<SchemaFreeEngine>(db_.get(), config);
}

Introspection::~Introspection() = default;

Result<exec::QueryResult> Introspection::Query(
    std::string_view sfsql, std::string* translated_sql) const {
  SFSQL_ASSIGN_OR_RETURN(Translation best, engine_->TranslateBest(sfsql));
  if (translated_sql != nullptr) *translated_sql = best.sql;
  exec::Executor executor(db_.get());
  return executor.Execute(*best.statement);
}

}  // namespace sfsql::core
