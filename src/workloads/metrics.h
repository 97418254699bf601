#ifndef SFSQL_WORKLOADS_METRICS_H_
#define SFSQL_WORKLOADS_METRICS_H_

#include <string_view>
#include <vector>

#include "catalog/catalog.h"
#include "common/result.h"
#include "core/engine.h"
#include "exec/executor.h"
#include "obs/bench_report.h"
#include "storage/database.h"

namespace sfsql::workloads {

/// Stamps per-run metadata into a bench report (every bench_* binary calls
/// this right before WriteFile): the dataset's row counts (total in config,
/// per relation in a "dataset" table) and the database's cumulative
/// column-index counters — index probes, index builds and build time, LIKE
/// candidates verified — plus, when `executor` is given, its cumulative
/// access-path counters as exec_<name> for every counter in
/// exec::kExecCounters.
void RecordRunMetadata(obs::BenchReport* report, const storage::Database& db,
                       const exec::Executor* executor = nullptr);

/// Information-unit costs (§7.1). A schema element (relation or attribute
/// name) is one information unit; approximately specified elements count as a
/// full unit (the paper's deliberate overestimate of Schema-free SQL's cost).
///
/// The three interface models measured:
///  * Schema-free SQL — the user types only the names they guess: cost is the
///    number of *distinct* schema-element names mentioned (Example 11 counts
///    the Fig. 2 query as 6: actor, gender, name, director_name, year,
///    produce_company). ?x / ? placeholders convey no schema name and cost 0.
///  * Full SQL — the user types every relation mention in FROM and every
///    attribute mention everywhere, join conditions included.
///  * Visual query builder (GUI) — the user drags every relation of the join
///    network and fills in the selection/projection attributes; join columns
///    are completed by the tool.
struct InfoUnitCosts {
  double sfsql = 0;
  double gui = 0;
  double full_sql = 0;
};

/// Distinct schema-element names mentioned in a schema-free query
/// (subqueries included).
Result<int> SchemaFreeInfoUnits(std::string_view sfsql);

/// Total schema-element mentions in full SQL: one per FROM item plus one per
/// column reference (subqueries included).
Result<int> FullSqlInfoUnits(std::string_view sql);

/// GUI cost for the gold query: FROM mentions plus non-join column mentions
/// (FK-PK join predicates are excluded — the builder completes them).
Result<int> GuiInfoUnits(const catalog::Catalog& catalog, std::string_view sql);

/// The structural reading of a gold query's outermost block: its relation
/// multiset and FK-join multiset — the reference the translator must hit.
Result<core::NetworkSummary> AnalyzeGold(const catalog::Catalog& catalog,
                                         std::string_view gold_sql);

/// Effectiveness judgment: the translation is correct when its join network
/// matches the gold query's (relation and FK multisets) and, as a semantic
/// backstop, both produce identical result rows on `db`.
Result<bool> TranslationMatchesGold(const storage::Database& db,
                                    const core::Translation& translation,
                                    std::string_view gold_sql);

/// Executes the NoREC twin of `sql` (Rigger & Su, ESEC/FSE 2020): the same
/// statement with every top-level WHERE conjunct c rewritten as
/// NOT (NOT (c)). Under the executor's two-valued logic the twin means the
/// same thing, but no twin conjunct is sargable or an equi-join edge, so it
/// runs on full scans, per-row predicates and nested-loop joins — the
/// differential oracle for index scans, pruning and the join operators.
Result<exec::QueryResult> ExecuteTwin(exec::Executor& executor,
                                      std::string_view sql);

/// Reference oracle for the §4.3 satisfiability probes: true if some tuple of
/// (relation, attribute) satisfies `cond`, found by a scan (skipping chunks
/// their min/max statistics rule out). IN and LIKE are decomposed exactly as
/// RelationTreeMapper does; out-of-range ordinals and unknown operators are
/// unsatisfied. Builds no index and moves no counter.
bool ScanConditionSatisfiable(const storage::Database& db, int relation_id,
                              int attr_index, const core::Condition& cond);

}  // namespace sfsql::workloads

#endif  // SFSQL_WORKLOADS_METRICS_H_
