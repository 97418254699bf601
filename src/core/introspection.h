#ifndef SFSQL_CORE_INTROSPECTION_H_
#define SFSQL_CORE_INTROSPECTION_H_

#include <memory>
#include <string>
#include <string_view>

#include "common/result.h"
#include "core/engine.h"
#include "storage/database.h"

namespace sfsql::obs {
class MetricsRegistry;
}  // namespace sfsql::obs

namespace sfsql::exec {
class TaskPool;
}  // namespace sfsql::exec

namespace sfsql::core {

/// Live system state the sys_* virtual relations are built from. Any pointer
/// may be null — the relations it feeds are then empty (but still exist, so
/// queries against them answer with zero rows rather than erroring).
struct IntrospectionSources {
  /// Feeds sys_relations, sys_chunks, sys_indexes, sys_column_stats.
  const storage::Database* db = nullptr;
  /// Feeds sys_plan_cache (the engine's two-tier translation plan cache).
  const SchemaFreeEngine* engine = nullptr;
  /// Feeds sys_metrics.
  const obs::MetricsRegistry* metrics = nullptr;
  /// Feeds sys_queries.
  const QueryProfileStore* profiles = nullptr;
  /// Feeds sys_pool (the engine's shared execution/translation worker pool).
  const exec::TaskPool* pool = nullptr;
};

/// The engine's observability surface, exposed through the engine itself:
/// materializes the system's internal state as ordinary relations in a
/// private in-memory database and serves schema-free SQL over them through a
/// private SchemaFreeEngine. "SELECT statement, latency_ms FROM queries WHERE
/// latency_ms > 5" resolves `queries` to sys_queries through the same
/// similarity mapping any workload query gets — the profiler is queryable
/// with the system's own query language.
///
/// Relations (columns documented in README "Introspection & query profiles"):
///   sys_queries     — one row per captured QueryProfile
///   sys_metrics     — one row per metric series (counter/gauge/histogram)
///   sys_plan_cache  — one row per live plan-cache entry
///   sys_relations   — one row per workload relation (rows, chunks, epoch)
///   sys_chunks      — one row per (relation, chunk, attribute) statistics
///   sys_indexes     — one row per built column index
///   sys_column_stats — one row per (relation, attribute): table-level stats
///                      merged across chunks (the cost model's estimator
///                      inputs — sketch-union NDV, null fraction, min/max)
///   sys_pool        — one row: the shared worker pool's lifetime counters
///                      (workers, tasks, parallel_fors, nested_inline,
///                      idle_ms)
///
/// The snapshot is taken once at construction (point-in-time, like any
/// monitoring scrape); construct a fresh Introspection to re-observe.
class Introspection {
 public:
  explicit Introspection(const IntrospectionSources& sources);
  ~Introspection();

  /// Translates `sfsql` against the sys_* schema (best interpretation,
  /// schema-free elements welcome) and executes it on the snapshot.
  /// `translated_sql` (optional) receives the full SQL that was served.
  Result<exec::QueryResult> Query(std::string_view sfsql,
                                  std::string* translated_sql = nullptr) const;

  /// The snapshot database itself (for direct SQL or inspection in tests).
  const storage::Database& database() const { return *db_; }

 private:
  std::unique_ptr<storage::Database> db_;
  std::unique_ptr<SchemaFreeEngine> engine_;
};

}  // namespace sfsql::core

#endif  // SFSQL_CORE_INTROSPECTION_H_
