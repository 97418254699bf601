#ifndef SFSQL_EXEC_COST_MODEL_H_
#define SFSQL_EXEC_COST_MODEL_H_

#include <vector>

#include "exec/access_path.h"
#include "storage/database.h"

namespace sfsql::exec {

/// Cost-based join planning over one query block (the tentpole of the
/// "million-row scale + cost-based planning" roadmap item).
///
/// Cardinalities come from two sources, most-exact first:
///   * per-table: the access-path planner's `estimated_rows` (exact column
///     index counts for sargable conjuncts, chunk-statistics survivors
///     otherwise), discounted by a default 1/3 per pushed non-sargable
///     conjunct;
///   * per equi-join edge: 1 / max(NDV_left, NDV_right) with NDV the
///     table-level distinct estimate (union of per-chunk linear-counting
///     sketches, see storage::ColumnStats), capped by each side's filtered
///     cardinality.
///
/// The order search is a left-deep DP over subsets (Selinger): each subset
/// keeps the cheapest plan per "interesting order" — the key columns the
/// intermediate result is sorted by — so a sort-merge join whose sort pays
/// off at a later step survives pruning. Above kDpMaxTables FROM entries
/// the DP (2^n subsets) degrades to a greedy connected-first order, with
/// algorithms still chosen by cost.
///
/// Per fold step the model costs three algorithms and keeps the cheapest:
/// hash join (build new side, probe accumulated), index nested-loop join
/// (probe the index of the step's first key column per accumulated row;
/// only for tables without an IndexScan), and
/// sort-merge (sort both sides by the key columns, skip the accumulated
/// side's sort when it is already sorted by them). Sort-merge changes the
/// emission order, so it is only offered when the block is reorder-safe.

/// FROM entries above which the join-order DP falls back to greedy order.
constexpr int kDpMaxTables = 10;

/// One fold step's verdict: the algorithm placing table `order[i]` and the
/// cumulative estimated rows/cost after the step. steps[0].algo is kNone
/// (the first table is only materialized).
struct JoinStepEstimate {
  JoinAlgo algo = JoinAlgo::kNone;
  double rows = 0.0;  ///< cumulative estimated rows after this step
  double cost = 0.0;  ///< cumulative estimated cost after this step
  /// kSortMerge only: the accumulated side is already sorted by the step's
  /// key columns, so its sort is skipped (and not costed).
  bool presorted = false;
};

/// The chosen fold order (indices into the input `tables` vector) plus the
/// per-step estimates, parallel to `order`.
struct JoinOrderPlan {
  std::vector<int> order;
  std::vector<JoinStepEstimate> steps;
  double total_cost = 0.0;
  double output_rows = 0.0;  ///< estimated join output (pre-residual)
};

/// Post-pushdown cardinality estimate of one table: the access-path
/// estimate discounted by a default selectivity per pushed conjunct the
/// index could not answer.
double EstimateBaseRows(const TablePlan& tp);

/// Plans the join order and per-step algorithms for `tables` (in FROM-slot
/// order: tables[i].from_index == i) connected by `edges`. `allow_reorder`
/// off forces the given order (algorithms and estimates are still
/// computed); `allow_sort_merge` off removes sort-merge from the menu (the
/// block is not provably emission-order-insensitive). NDVs come from the
/// versions `snapshot` pinned.
JoinOrderPlan PlanJoinOrder(const storage::Snapshot& snapshot,
                            const std::vector<TablePlan>& tables,
                            const std::vector<PlannedEquiJoin>& edges,
                            const ExecConfig& config, bool allow_reorder,
                            bool allow_sort_merge);

}  // namespace sfsql::exec

#endif  // SFSQL_EXEC_COST_MODEL_H_
