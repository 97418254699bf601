#include "exec/cost_model.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <unordered_map>
#include <utility>

namespace sfsql::exec {

namespace {

// Per-row cost constants, calibrated against bench_execute on this engine's
// operators (Values are variant-heavy, so hashing a Row key — one vector
// allocation plus per-Value hashing — costs several times a sequential read
// or a Value::Compare). Units are arbitrary; only ratios matter.
constexpr double kScanRow = 1.0;        // sequential chunk read + pushed eval
constexpr double kIndexRow = 2.0;       // row fetched through row-id list
constexpr double kHashBuildRow = 6.0;   // Row key alloc + hash-map insert
constexpr double kHashProbeRow = 4.0;   // Row key alloc + hash-map lookup
constexpr double kProbeLog = 4.0;       // index probe, per log2(distinct)
constexpr double kSortCmp = 0.35;       // stable_sort comparison (Value::Compare)
constexpr double kMergeRow = 1.0;       // merge-pointer advance
constexpr double kNlRow = 0.5;          // nested-loop pair visit
constexpr double kOutRow = 1.0;         // emit one combined row
// Default selectivity of a pushed conjunct the index could not answer.
constexpr double kDefaultConjunctSel = 1.0 / 3.0;

double Log2(double x) { return std::log2(x + 2.0); }

/// Cost of materializing one table's filtered base rows (stage 1 of the
/// fold): row-id fetches for an IndexScan, a chunk walk over the surviving
/// chunks otherwise.
double ScanCost(const TablePlan& tp) {
  if (tp.index_scan) return kIndexRow * static_cast<double>(tp.row_ids.size());
  return kScanRow * static_cast<double>(tp.scan_rows);
}

/// The key columns an intermediate result is sorted by after a sort-merge
/// step: (FROM slot, attribute) of the accumulated-side edge endpoints, in
/// equi-join edge order — exactly the key order the executor sorts with.
using SortSig = std::vector<std::pair<int, int>>;

struct Entry {
  double cost = 0.0;
  double rows = 0.0;
  std::vector<int> order;
  std::vector<JoinStepEstimate> steps;
  SortSig sig;
};

/// Table-level NDV with a tiny per-(relation, attr) cache; ≥ 1 so it can sit
/// in a denominator. A column whose index the pinned version already built
/// answers with the index's exact distinct count — at 1M rows the
/// chunk-sketch union saturates, and join columns are exactly the ones whose
/// indexes get built (probe paths build them lazily), so the exact numbers
/// are usually there by the second plan. Nothing is built here.
class NdvCache {
 public:
  explicit NdvCache(const storage::Snapshot& snapshot) : snapshot_(snapshot) {}

  double Get(int relation_id, int attr) {
    const int64_t key = (static_cast<int64_t>(relation_id) << 32) | attr;
    auto it = cache_.find(key);
    if (it != cache_.end()) return it->second;
    const storage::Table& table = snapshot_.table(relation_id);
    const storage::ColumnIndex* index = table.BuiltIndex(attr);
    const size_t distinct =
        index != nullptr
            ? index->num_distinct()
            : table.ColumnStatsFor(static_cast<size_t>(attr)).distinct_estimate;
    const double ndv = std::max(1.0, static_cast<double>(distinct));
    cache_.emplace(key, ndv);
    return ndv;
  }

 private:
  const storage::Snapshot& snapshot_;
  std::unordered_map<int64_t, double> cache_;
};

/// One edge as seen from table `t`: the attribute on t's side and the other
/// endpoint.
struct EdgeView {
  int t_attr = -1;
  int other_slot = -1;
  int other_attr = -1;
};

struct StepCandidate {
  JoinAlgo algo = JoinAlgo::kNone;
  double step_cost = 0.0;
  double rows_out = 0.0;
  bool presorted = false;
  SortSig sig;
};

class Planner {
 public:
  Planner(const storage::Snapshot& snapshot,
          const std::vector<TablePlan>& tables,
          const std::vector<PlannedEquiJoin>& edges, const ExecConfig& config,
          bool allow_sort_merge)
      : tables_(tables),
        edges_(edges),
        config_(config),
        allow_sort_merge_(allow_sort_merge),
        ndv_(snapshot) {
    base_rows_.reserve(tables.size());
    for (const TablePlan& tp : tables) {
      base_rows_.push_back(EstimateBaseRows(tp));
    }
  }

  double base_rows(int t) const { return base_rows_[t]; }

  /// Edges joining table `t` to the tables in `mask`, in equi-join order
  /// (PlanBlock writes the step's keys in the same order).
  std::vector<EdgeView> EdgesTo(int t, uint32_t mask) const {
    std::vector<EdgeView> out;
    for (const PlannedEquiJoin& e : edges_) {
      if (e.left_from == t && (mask >> e.right_from) & 1) {
        out.push_back(EdgeView{e.left_attr, e.right_from, e.right_attr});
      } else if (e.right_from == t && (mask >> e.left_from) & 1) {
        out.push_back(EdgeView{e.right_attr, e.left_from, e.left_attr});
      }
    }
    return out;
  }

  /// Costs the step joining table `t` onto `entry` (whose placed set is
  /// `mask`) and returns the cheapest algorithm. Deterministic: candidates
  /// are tried in a fixed order and replaced only on strictly lower cost.
  StepCandidate BestStep(const Entry& entry, uint32_t mask, int t) {
    const TablePlan& tp = tables_[t];
    const double est_t = base_rows_[t];
    const std::vector<EdgeView> edges = EdgesTo(t, mask);

    StepCandidate best;
    if (edges.empty()) {
      best.algo = JoinAlgo::kNestedLoop;
      best.rows_out = entry.rows * est_t;
      best.step_cost =
          ScanCost(tp) + kNlRow * entry.rows * est_t + kOutRow * best.rows_out;
      best.sig = entry.sig;  // base rows iterate in order; order preserved
      return best;
    }

    double sel = 1.0;
    SortSig keycols;
    keycols.reserve(edges.size());
    for (const EdgeView& e : edges) {
      const double ndv_t =
          std::min(ndv_.Get(tp.relation_id, e.t_attr), std::max(1.0, est_t));
      const double ndv_o =
          std::min(ndv_.Get(tables_[e.other_slot].relation_id, e.other_attr),
                   std::max(1.0, base_rows_[e.other_slot]));
      sel /= std::max(ndv_t, ndv_o);
      keycols.emplace_back(e.other_slot, e.other_attr);
    }
    const double rows_out = entry.rows * est_t * sel;

    // Hash join: materialize + build on the new side, probe per accumulated
    // row. Preserves the accumulated order (probes iterate it in order).
    best.algo = JoinAlgo::kHash;
    best.rows_out = rows_out;
    best.step_cost = ScanCost(tp) + kHashBuildRow * est_t +
                     kHashProbeRow * entry.rows + kOutRow * rows_out;
    best.sig = entry.sig;

    // Index nested-loop join: same eligibility rule as EXPLAIN's index_join
    // (no IndexScan on this table — its sargable conjuncts, if any, were demoted
    // to per-row evaluation, which the probe path applies). The probe column
    // is the first edge's attribute, the step's keys[0].
    if (!tp.index_scan && tp.table_rows > 0) {
      const double ndv_probe = ndv_.Get(tp.relation_id, edges[0].t_attr);
      const double probed =
          entry.rows * static_cast<double>(tp.table_rows) / ndv_probe;
      const double cost = kProbeLog * entry.rows * Log2(ndv_probe) +
                          kIndexRow * probed + kOutRow * rows_out;
      if (cost < best.step_cost) {
        best.algo = JoinAlgo::kIndexNestedLoop;
        best.step_cost = cost;
        best.sig = entry.sig;
      }
    }

    // Sort-merge join: sort both sides by the key columns and merge. The
    // accumulated side's sort is skipped when it is already sorted by
    // exactly these columns (a previous sort-merge on the same keys) — the
    // "interesting order" this DP tracks. Output emits in key order, so the
    // operator is only on the menu when the block is reorder-safe.
    if (allow_sort_merge_) {
      const bool presorted = entry.sig == keycols;
      const double sort_acc =
          presorted ? 0.0 : kSortCmp * entry.rows * Log2(entry.rows);
      const double sort_new = kSortCmp * est_t * Log2(est_t);
      const double cost = ScanCost(tp) + sort_acc + sort_new +
                          kMergeRow * (entry.rows + est_t) + kOutRow * rows_out;
      if (config_.force_sort_merge || cost < best.step_cost) {
        best.algo = JoinAlgo::kSortMerge;
        best.step_cost = cost;
        best.presorted = presorted;
        best.sig = keycols;
      }
    }
    return best;
  }

  /// Extends `entry` (placed set `mask`) with table `t`.
  Entry Extend(const Entry& entry, uint32_t mask, int t) {
    StepCandidate step = BestStep(entry, mask, t);
    Entry next;
    next.cost = entry.cost + step.step_cost;
    next.rows = step.rows_out;
    next.order = entry.order;
    next.order.push_back(t);
    next.steps = entry.steps;
    next.steps.push_back(
        JoinStepEstimate{step.algo, next.rows, next.cost, step.presorted});
    next.sig = std::move(step.sig);
    return next;
  }

  Entry Initial(int t) const {
    Entry e;
    e.cost = ScanCost(tables_[t]);
    e.rows = base_rows_[t];
    e.order.push_back(t);
    e.steps.push_back(JoinStepEstimate{JoinAlgo::kNone, e.rows, e.cost});
    return e;
  }

 private:
  const std::vector<TablePlan>& tables_;
  const std::vector<PlannedEquiJoin>& edges_;
  const ExecConfig& config_;
  const bool allow_sort_merge_;
  NdvCache ndv_;
  std::vector<double> base_rows_;
};

/// Keeps, per distinct sort signature, only the cheapest entry (Selinger's
/// interesting-order pruning). Ties keep the incumbent, so earlier-explored
/// orders win deterministically.
void AddEntry(std::vector<Entry>& entries, Entry candidate) {
  for (Entry& e : entries) {
    if (e.sig != candidate.sig) continue;
    if (candidate.cost < e.cost) e = std::move(candidate);
    return;
  }
  entries.push_back(std::move(candidate));
}

JoinOrderPlan FinishPlan(Entry entry) {
  JoinOrderPlan plan;
  plan.total_cost = entry.cost;
  plan.output_rows = entry.rows;
  plan.order = std::move(entry.order);
  plan.steps = std::move(entry.steps);
  return plan;
}

}  // namespace

const char* JoinAlgoName(JoinAlgo algo) {
  switch (algo) {
    case JoinAlgo::kNone: return "";
    case JoinAlgo::kHash: return "hash";
    case JoinAlgo::kIndexNestedLoop: return "index_nl";
    case JoinAlgo::kSortMerge: return "sort_merge";
    case JoinAlgo::kNestedLoop: return "nested_loop";
  }
  return "";
}

double EstimateBaseRows(const TablePlan& tp) {
  double est = static_cast<double>(tp.estimated_rows);
  // `pushed` holds the sargable conjuncts the access path does not answer
  // (the estimate, their smallest count, already reflects them) plus the
  // conjuncts no index can answer; only the latter get the default discount.
  const size_t demoted = tp.sargable.size() - (tp.index_scan ? 1 : 0);
  const size_t non_sargable = tp.pushed.size() - demoted;
  for (size_t i = 0; i < non_sargable; ++i) est *= kDefaultConjunctSel;
  return est;
}

JoinOrderPlan PlanJoinOrder(const storage::Snapshot& snapshot,
                            const std::vector<TablePlan>& tables,
                            const std::vector<PlannedEquiJoin>& edges,
                            const ExecConfig& config, bool allow_reorder,
                            bool allow_sort_merge) {
  const int n = static_cast<int>(tables.size());
  Planner planner(snapshot, tables, edges, config, allow_sort_merge);
  if (n == 1 || !allow_reorder) {
    // Fixed order: fold in the given order, still costing each step.
    Entry entry = planner.Initial(0);
    uint32_t mask = 1;
    for (int t = 1; t < n; ++t) {
      entry = planner.Extend(entry, mask, t);
      mask |= uint32_t{1} << t;
    }
    return FinishPlan(std::move(entry));
  }

  if (n > kDpMaxTables) {
    // Greedy fallback: connected-first, smallest estimated input next;
    // algorithms still chosen by cost per step.
    std::vector<char> placed(n, 0);
    int first = 0;
    for (int t = 1; t < n; ++t) {
      if (planner.base_rows(t) < planner.base_rows(first)) first = t;
    }
    placed[first] = 1;
    Entry entry = planner.Initial(first);
    uint32_t mask = uint32_t{1} << first;
    for (int step = 1; step < n; ++step) {
      int best = -1;
      bool best_connected = false;
      for (int t = 0; t < n; ++t) {
        if (placed[t]) continue;
        const bool connected = !planner.EdgesTo(t, mask).empty();
        const bool better =
            best < 0 || (connected && !best_connected) ||
            (connected == best_connected &&
             planner.base_rows(t) < planner.base_rows(best));
        if (better) {
          best = t;
          best_connected = connected;
        }
      }
      entry = planner.Extend(entry, mask, best);
      placed[best] = 1;
      mask |= uint32_t{1} << best;
    }
    return FinishPlan(std::move(entry));
  }

  // Left-deep DP over subsets, keeping the cheapest entry per interesting
  // order within each subset. Masks are processed ascending: every superset
  // is numerically larger, so best[mask] is final when expanded.
  const uint32_t full = (uint32_t{1} << n) - 1;
  std::vector<std::vector<Entry>> best(full + 1);
  for (int t = 0; t < n; ++t) {
    best[uint32_t{1} << t].push_back(planner.Initial(t));
  }
  for (uint32_t mask = 1; mask <= full; ++mask) {
    if (best[mask].empty()) continue;
    for (const Entry& entry : best[mask]) {
      for (int t = 0; t < n; ++t) {
        if ((mask >> t) & 1) continue;
        AddEntry(best[mask | (uint32_t{1} << t)],
                 planner.Extend(entry, mask, t));
      }
    }
  }
  int winner = 0;
  for (size_t i = 1; i < best[full].size(); ++i) {
    if (best[full][i].cost < best[full][winner].cost) {
      winner = static_cast<int>(i);
    }
  }
  return FinishPlan(std::move(best[full][winner]));
}

}  // namespace sfsql::exec
