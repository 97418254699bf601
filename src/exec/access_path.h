#ifndef SFSQL_EXEC_ACCESS_PATH_H_
#define SFSQL_EXEC_ACCESS_PATH_H_

#include <cstdint>
#include <functional>
#include <iterator>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "exec/binder.h"
#include "sql/ast.h"
#include "storage/database.h"
#include "storage/value.h"

namespace sfsql::obs {
class Clock;
}  // namespace sfsql::obs

namespace sfsql::exec {

class TaskPool;

/// Join algorithm chosen by the cost model for one fold step. kNone marks
/// fold step 0, which only materializes its table (nothing to join yet).
enum class JoinAlgo {
  kNone,
  kHash,             ///< build on the new table, probe with accumulated rows
  kIndexNestedLoop,  ///< probe the join column's index per accumulated row
  kSortMerge,        ///< sort both sides by the key columns and merge
  kNestedLoop,       ///< no equi keys: cross product + per-pair filters
};

/// Lowercase display name ("hash", "index_nl", "sort_merge", ...).
const char* JoinAlgoName(JoinAlgo algo);

/// Execution knobs. Every block runs through the access-path planner and the
/// cost model; these only tune parallelism, testing hooks and logging.
struct ExecConfig {
  /// Testing: force every planned equi-join step to the sort-merge operator
  /// (where the block is reorder-safe), regardless of cost. Exercises the
  /// operator on NULL and duplicate keys in the differential suites.
  bool force_sort_merge = false;
  /// Inert: the executor reads neither. The slow log is the engine's
  /// (EngineConfig::slow_execute_threshold_ms / slow_log_sink), a filter over
  /// its per-call QueryProfile. Both stay only because the frozen end-to-end
  /// benchmark harness (perfbench) still sets them.
  double slow_execute_threshold_ms = 0.0;
  std::function<void(const std::string&)> slow_log_sink;
  /// Clock for ExecInfo::seconds (tests inject a FakeClock). Null = steady
  /// clock.
  const obs::Clock* clock = nullptr;
  /// Intra-query parallelism: threads the executor may use for its morsel
  /// loops (scan + pushed filter, hash-join build/probe, index nested-loop
  /// probes, the GROUP BY keying pass and the aggregate folds). Morsels run
  /// in parallel iff this is above 1 and `pool` is set; otherwise execution
  /// is serial and thread-free. The pool's worker count, not this number,
  /// caps the actual fan-out. Results are bit-identical at every setting:
  /// morsel outputs are stitched, and partial groups and aggregate states
  /// merged, in morsel order.
  int exec_threads = 1;
  /// Rows (or tuples) per morsel for the parallel loops. 0 = 4096. Scans
  /// round this up to whole chunks, so any grain at or below the table's
  /// chunk_capacity means one chunk per morsel. Serial grouping and
  /// aggregate folds run the same morsels inline. Correctness is
  /// grain-independent.
  size_t morsel_grain = 0;
  /// Shared task pool the morsel loops run on (borrowed — the
  /// engine owns one and hands it to every Execute). Null: serial, whatever
  /// exec_threads says.
  TaskPool* pool = nullptr;
};

/// Per-execution access-path counters, accumulated across every block run
/// (a correlated subquery counts once per outer row it runs for, an
/// uncorrelated one once per execution). kExecCounters below is their one definition: metrics, the
/// executor's cumulative totals, query profiles and bench keys all derive
/// from it.
struct ExecStats {
  uint64_t index_scans = 0;
  uint64_t table_scans = 0;
  uint64_t index_joins = 0;
  uint64_t hash_joins = 0;
  uint64_t sort_merge_joins = 0;
  uint64_t merge_sorts_skipped = 0;
  uint64_t rows_pruned = 0;
  uint64_t pushed_predicates = 0;
  uint64_t chunks_pruned = 0;
  uint64_t rows_scanned = 0;
};

/// One ExecStats counter: its name (the metric is sfsql_exec_<name>_total,
/// the bench key exec_<name>), help text, and field.
struct ExecCounter {
  const char* name;
  const char* help;
  uint64_t ExecStats::*field;
};

inline constexpr ExecCounter kExecCounters[] = {
    {"index_scans", "Base tables answered by an IndexScan",
     &ExecStats::index_scans},
    {"table_scans", "Base tables answered by a full scan",
     &ExecStats::table_scans},
    {"index_joins", "Base tables answered by an index nested-loop join",
     &ExecStats::index_joins},
    {"hash_joins", "Fold steps answered by a hash join",
     &ExecStats::hash_joins},
    {"sort_merge_joins", "Fold steps answered by a sort-merge join",
     &ExecStats::sort_merge_joins},
    {"merge_sorts_skipped",
     "Sort-merge inputs already sorted by the key (sort skipped)",
     &ExecStats::merge_sorts_skipped},
    {"rows_pruned", "Base rows eliminated below the join by pushed predicates",
     &ExecStats::rows_pruned},
    {"pushed_predicates",
     "Predicates evaluated below the join (index-answered or per base row)",
     &ExecStats::pushed_predicates},
    {"chunks_pruned",
     "Chunks skipped by scans via per-chunk min/max statistics",
     &ExecStats::chunks_pruned},
    {"rows_scanned",
     "Base rows read from storage (scans, index scans, and index joins)",
     &ExecStats::rows_scanned},
};
inline constexpr size_t kNumExecCounters = std::size(kExecCounters);

/// Adds every counter of `delta` into `into`.
inline void MergeStats(ExecStats& into, const ExecStats& delta) {
  for (const ExecCounter& c : kExecCounters) into.*c.field += delta.*c.field;
}

/// One sargable conjunct bound to a column: a predicate the column index
/// answers exactly. Operand values are literals only (after folding unary
/// minus), so the predicate is environment-independent and the plan is valid
/// for correlated re-executions too.
struct SargablePredicate {
  int conjunct = -1;    ///< index into BoundBlock::conjuncts
  int attr_index = -1;  ///< attribute within the table's relation
  storage::ColumnPredicate pred;
  size_t estimated_rows = 0;  ///< exact match count from the column index
};

/// A pushed sargable conjunct run as a chunk kernel: its predicate's
/// per-value rule over one column.
struct PushedKernel {
  int attr_index = -1;
  storage::ValueFilter filter;
};

/// One equi-join key of a fold step: a column of an already placed FROM
/// entry against a column of the table the step places.
struct JoinKey {
  int placed_from = -1;  ///< FROM position of the placed side
  int placed_attr = -1;  ///< its attribute
  int attr = -1;         ///< attribute of the table the step places
};

/// Access path for one FROM entry, and the fold step that places it.
struct TablePlan {
  int from_index = -1;  ///< position in the statement's FROM list
  int relation_id = -1;
  std::string binding_lower;
  /// True when the table is read through the row ids of one sargable
  /// predicate, the one with the smallest count; false for a scan.
  bool index_scan = false;
  /// Every sargable conjunct of the table. All of them prune chunks against
  /// the per-chunk statistics, and the smallest count is the table's
  /// estimate.
  std::vector<SargablePredicate> sargable;
  /// Conjunct indices evaluated once per base row, below the join: every
  /// sargable conjunct but an IndexScan's own (first, in conjunct order,
  /// the kernels ahead of the rest), then the ones the index cannot answer.
  std::vector<int> pushed;
  /// The first kernels.size() entries of `pushed`, as chunk kernels: the
  /// sargable conjuncts whose operands lie in their column's declared class
  /// (see storage::ValueFilter). Scans narrow each chunk's selection vector
  /// by them and evaluate only the rest of `pushed`, row by row. No
  /// sargable conjunct can raise an error, so running the kernels first
  /// changes no row's outcome, and every conjunct that can still runs after
  /// all of them, in conjunct order.
  std::vector<PushedKernel> kernels;
  /// Per-chunk prune verdicts from the chunk statistics, computed at plan
  /// time *before* any index is consulted; 1 = no row of the chunk can pass
  /// the sargable conjuncts. Empty when the table has no sargable conjuncts.
  std::vector<char> pruned_chunks;
  size_t chunks_total = 0;
  size_t chunks_pruned = 0;
  /// IndexScan row positions (ascending) of its one predicate, materialized
  /// at plan time.
  std::vector<uint32_t> row_ids;
  size_t table_rows = 0;
  /// Base-row estimate: the smallest sargable count (at most scan_rows on a
  /// scan), table_rows without sargable conjuncts.
  size_t estimated_rows = 0;
  /// Rows a scan would actually read: table rows minus rows in chunks the
  /// statistics pass pruned (equals table_rows when nothing was prunable).
  size_t scan_rows = 0;
  double selectivity = 1.0;   ///< estimated_rows / table_rows
  /// The fold step placing this table, written once by PlanBlock after the
  /// cost model picked the order; the executor and EXPLAIN only read it.
  /// Its algorithm, chosen by the cost model: kNone only at the first fold
  /// step (nothing to join against yet), kNestedLoop exactly when a later
  /// step has no keys.
  JoinAlgo join_algo = JoinAlgo::kNone;
  /// Equi-join keys against earlier fold steps, in equi-join order.
  /// keys[0].attr is the index nested-loop probe column; the probe verifies
  /// the others per probed row.
  std::vector<JoinKey> keys;
  /// Multi-table conjuncts that are not equi keys and whose last table this
  /// step places, ascending: evaluated on each combined tuple.
  std::vector<int> join_filters;
  /// Sort-merge only: the accumulated tuples are already sorted by the keys'
  /// placed columns (an earlier sort-merge step on exactly those columns;
  /// every other algorithm keeps that order), so their sort is skipped.
  bool presorted = false;
  /// Cost model estimates for EXPLAIN and q-error reporting: cumulative
  /// estimated rows and cost after this table's fold step.
  double est_rows_cumulative = -1.0;
  double est_cost_cumulative = -1.0;
};

/// col = col conjunct across two FROM entries: an equi-join edge, the cost
/// model's input. PlanBlock turns each into a JoinKey of the fold step where
/// its later side is placed.
struct PlannedEquiJoin {
  int left_from = -1;
  int left_attr = -1;
  int right_from = -1;
  int right_attr = -1;
};

/// The access-path plan of one query block (no tables when it has no FROM).
struct BlockPlan {
  /// Estimated rows out of the join fold (before the post-join residual
  /// filter); the q-error denominator.
  double estimated_output_rows = -1.0;
  std::vector<TablePlan> tables;  ///< in join (fold) order
  std::vector<int> residual;  ///< post-join filter conjuncts, ascending
};

/// One row of the EXPLAIN execution block; query profiles keep the executed
/// top-level block's rows too.
struct TableAccessExplain {
  std::string binding;
  std::string relation;
  bool index_scan = false;
  /// No IndexScan and equi keys against an earlier fold step: eligible for
  /// an index nested-loop join (join_algo says whether one runs).
  bool index_join = false;
  int index_predicates = 0;   ///< conjuncts answered by the index (0 or 1)
  int pushed_predicates = 0;  ///< conjuncts evaluated per base row
  size_t table_rows = 0;
  size_t estimated_rows = 0;
  double selectivity = 1.0;
  size_t chunks_total = 0;   ///< chunks in the table at plan time
  size_t chunks_pruned = 0;  ///< chunks the statistics ruled out pre-index
  /// Cost model verdicts: the join algorithm placing this table (empty for
  /// the first fold step) and the cumulative estimated rows/cost after its
  /// fold step.
  std::string join_algo;
  double est_rows_cumulative = -1.0;
  double est_cost_cumulative = -1.0;

  /// "index_scan" | "index_join" | "table_scan".
  std::string_view access() const {
    return index_scan ? "index_scan" : index_join ? "index_join" : "table_scan";
  }
};

/// Plans one bound block's access paths: classifies its conjuncts by the
/// FROM entries their bindings read into per-table sargable and pushed
/// predicates, equi-join edges, join filters and the residual, probes the
/// column indexes for exact cardinality estimates, picks IndexScan vs Scan
/// per table, lets the cost model choose the fold order (when safe) and
/// each step's join algorithm, and then writes each table's fold step: its
/// keys, join filters and presort. Every block plans, including one without
/// FROM; the only error is the block's bind error (an unresolved or unknown
/// FROM relation, a duplicate binding). Row ids, chunk verdicts and counts
/// all read the versions `snapshot` pinned, so the plan holds for as long as
/// the snapshot lives.
Result<BlockPlan> PlanBlock(const storage::Snapshot& snapshot,
                            const BoundBlock& block, const ExecConfig& config);

/// The EXPLAIN view of a plan, one row per table in fold order.
std::vector<TableAccessExplain> ExplainPlan(const catalog::Catalog& catalog,
                                            const BlockPlan& plan);

}  // namespace sfsql::exec

#endif  // SFSQL_EXEC_ACCESS_PATH_H_
