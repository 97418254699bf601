#ifndef SFSQL_EXEC_EXECUTOR_H_
#define SFSQL_EXEC_EXECUTOR_H_

#include <string>
#include <vector>

#include "common/result.h"
#include "exec/access_path.h"
#include "sql/ast.h"
#include "storage/database.h"

namespace sfsql::exec {

/// A materialized query result: column labels plus rows.
struct QueryResult {
  std::vector<std::string> columns;
  std::vector<storage::Row> rows;

  /// Pretty-prints as an ASCII table.
  std::string ToString() const;

  /// Row-multiset equality (ignores row order and column labels); used by the
  /// effectiveness harness to compare a translation's answer against gold.
  bool SameRows(const QueryResult& other) const;
};

/// Everything one Execute call did, reported back to the caller (the engine's
/// profile capture). A caller that wants totals sums `stats` across calls;
/// `access_paths` covers the top-level block only.
struct ExecInfo {
  ExecStats stats;
  std::vector<TableAccessExplain> access_paths;
  uint64_t rows_returned = 0;
  double seconds = 0.0;
  /// Cost-model estimate vs actual rows out of the top-level block's join
  /// fold, both measured before the post-join residual filter — the q-error
  /// inputs (q = max(est, act) / min(est, act), with both floored at 1).
  double estimated_join_rows = -1.0;
  uint64_t actual_join_rows = 0;
  bool has_join_actuals = false;  ///< true once the join fold executed
};

/// Evaluates fully specified SQL SELECT statements against an in-memory
/// `Database`. This is the RDBMS substrate of the paper's architecture (Fig. 3):
/// the Standard SQL Composer's output runs here.
///
/// Supported: multi-table FROM with comma joins, WHERE with AND/OR/NOT,
/// comparisons, arithmetic, LIKE, BETWEEN, IN (list and subquery), EXISTS,
/// scalar subqueries (all subqueries may be correlated), aggregation
/// (COUNT/SUM/AVG/MIN/MAX with DISTINCT), GROUP BY, HAVING, ORDER BY,
/// DISTINCT, LIMIT.
///
/// Semantics notes (documented deviations from full SQL):
///  * Two-valued logic: a predicate over NULL operands evaluates to false
///    (NOT of it is true).
///  * Grouping and DISTINCT treat all NULLs as equal.
///
/// Statements containing unresolved schema-free elements are rejected with
/// kExecutionError — translate them first (core/).
///
/// Each Execute binds the statement once (exec/binder) before planning.
/// A column ref binds to its innermost block whose FROM has it, moving
/// outward only on "not found"; an ambiguity, a missing attribute of a named
/// entry, or a schema-free name is kept with the ref and fails the query
/// only if the ref is evaluated. The planner and the one evaluator read
/// these bindings. In group mode (SELECT, HAVING and ORDER BY of an
/// aggregating block) GROUP BY expressions and aggregate calls read slots of
/// the group's row, and bare columns read the group's first row — NULL for
/// the empty group of a global aggregate over no rows. A subquery that reads
/// no enclosing row runs once per Execute; a correlated one once per outer
/// row.
///
/// Every block runs one planned fold: the access-path planner
/// (exec/access_path) routes sargable WHERE conjuncts through the per-column
/// indexes and chunk statistics and pushes per-table predicates below the
/// join, and the cost model (exec/cost_model) orders the fold and picks each
/// step's join algorithm: a hash join or a sort-merge join on the step's
/// equi keys, an index nested-loop join probing the column index of its
/// first key, or a nested loop when the step has no keys. The planner writes
/// each step once on its TablePlan (algorithm, keys, join filters, whether
/// a sort-merge input is presorted); the fold only reads those steps.
/// The fold is late-materialized: a tuple is one row id per FROM entry,
/// stored flat, and scans emit base row ids. Every expression after the scan
/// (join filters, the residual filter, grouping, aggregates, projection)
/// reads its columns straight out of the chunks through the tuple; only
/// result rows are copied into Rows.
///
/// Each Execute pins, once, the table versions of every relation the
/// statement reads (storage::Snapshot), and every scan, IndexScan row id,
/// chunk statistic and NDV estimate of the call reads those versions. An
/// insert racing the call publishes a new version without waiting and is
/// seen by the next call; no lock is held across the call.
class Executor {
 public:
  explicit Executor(const storage::Database* db);
  Executor(const storage::Database* db, const ExecConfig& config);

  const ExecConfig& config() const { return config_; }

  /// Runs `stmt` and materializes the result. Non-null `info` additionally
  /// reports this call's stats, latency (on ExecConfig::clock), result
  /// cardinality, and the top-level block's access paths; the engine adds
  /// them to the call's QueryProfile, which is what it publishes.
  Result<QueryResult> Execute(const sql::SelectStatement& stmt,
                              ExecInfo* info = nullptr);

  /// Convenience: parse + execute a full SQL string.
  Result<QueryResult> ExecuteSql(std::string_view sql,
                                 ExecInfo* info = nullptr);

  /// Binds `stmt` and plans its top-level block exactly as Execute does,
  /// over versions it pins the same way, and returns the EXPLAIN view
  /// without executing (empty when planning fails, e.g. on an unknown
  /// relation).
  std::vector<TableAccessExplain> ExplainAccessPaths(
      const sql::SelectStatement& stmt) const;

 private:
  const storage::Database* db_;
  ExecConfig config_;
};

}  // namespace sfsql::exec

#endif  // SFSQL_EXEC_EXECUTOR_H_
