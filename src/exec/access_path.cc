#include "exec/access_path.h"

#include <algorithm>
#include <optional>

#include "common/macros.h"
#include "common/strings.h"
#include "exec/cost_model.h"
#include "exec/like.h"

namespace sfsql::exec {

using sql::BinaryOp;
using sql::Expr;
using sql::ExprKind;
using sql::ExprPtr;
using sql::UnaryOp;
using storage::Value;

namespace {

/// True if the value of `b` over a group is independent of the order rows
/// entered the group: GROUP BY keys, literals, COUNT/MIN/MAX aggregates, and
/// compositions thereof. Bare columns read the group's first-seen row, and
/// SUM/AVG accumulate doubles in row order — both order-sensitive.
bool OrderInsensitive(const BoundExpr& b, size_t keys) {
  if (b.group_slot >= 0) {
    // COUNT is a set size; MIN/MAX are Compare-extrema (ties within a typed
    // column are identical values, appends never reorder a column's type).
    const std::string& name = b.expr->function_name;
    return static_cast<size_t>(b.group_slot) < keys ||
           EqualsIgnoreCase(name, "count") || EqualsIgnoreCase(name, "min") ||
           EqualsIgnoreCase(name, "max");
  }
  switch (b.expr->kind) {
    case ExprKind::kColumnRef:
    case ExprKind::kStar:
    case ExprKind::kInSubquery:
    case ExprKind::kExistsSubquery:
    case ExprKind::kScalarSubquery:
      return false;
    default:
      if (b.lhs && !OrderInsensitive(*b.lhs, keys)) return false;
      if (b.rhs && !OrderInsensitive(*b.rhs, keys)) return false;
      for (const BoundExpr& a : b.args) {
        if (!OrderInsensitive(a, keys)) return false;
      }
      return true;
  }
}

/// True if the block's output multiset is provably independent of the join
/// fold order: no LIMIT, and (for aggregate blocks) every output expression
/// is OrderInsensitive.
bool ReorderSafe(const BoundBlock& block) {
  // LIMIT picks a prefix of the emission order; reordering would change
  // which rows survive.
  if (block.stmt->limit.has_value()) return false;
  // Non-aggregate blocks are multiset-stable under any fold order (DISTINCT
  // keeps one row per equality class, ORDER BY re-sorts; only tie order can
  // move, which row-multiset semantics ignore).
  if (!block.aggregates) return true;
  const size_t keys = block.group_by.size();
  for (const BoundExpr& item : block.select_items) {
    if (!OrderInsensitive(item, keys)) return false;
  }
  if (block.having && !OrderInsensitive(*block.having, keys)) return false;
  for (const BoundExpr& o : block.order_by) {
    if (!OrderInsensitive(o, keys)) return false;
  }
  return true;
}

/// The literal value of `e`, folding a unary minus over a numeric or NULL
/// literal (what Eval would produce); nullopt when `e` is not a literal
/// (or would type-error, e.g. -'text').
std::optional<Value> LiteralOf(const Expr& e) {
  if (e.kind == ExprKind::kLiteral) return e.literal;
  if (e.kind == ExprKind::kUnary && e.uop == UnaryOp::kNeg && e.lhs &&
      e.lhs->kind == ExprKind::kLiteral) {
    const Value& v = e.lhs->literal;
    if (v.is_null()) return Value::Null_();
    if (v.is_int()) return Value::Int(-v.AsInt());
    if (v.is_double()) return Value::Double(-v.AsDouble());
  }
  return std::nullopt;
}

using PredOp = storage::ColumnPredicate::Op;

/// The column-predicate operator of comparison `op`; kNone for any other.
PredOp CompareOp(BinaryOp op) {
  switch (op) {
    case BinaryOp::kEq: return PredOp::kEq;
    case BinaryOp::kNe: return PredOp::kNe;
    case BinaryOp::kLt: return PredOp::kLt;
    case BinaryOp::kLe: return PredOp::kLe;
    case BinaryOp::kGt: return PredOp::kGt;
    case BinaryOp::kGe: return PredOp::kGe;
    default: return PredOp::kNone;
  }
}

/// `lit op col` rewritten as `col op' lit`.
PredOp FlipOp(PredOp op) {
  switch (op) {
    case PredOp::kLt: return PredOp::kGt;
    case PredOp::kGt: return PredOp::kLt;
    case PredOp::kLe: return PredOp::kGe;
    case PredOp::kGe: return PredOp::kLe;
    default: return op;  // = and <> are symmetric
  }
}

/// An always-empty sargable predicate ("col = NULL" shape): both the count
/// and row-id paths return nothing, matching two-valued-logic scans.
SargablePredicate EmptyPredicate(int conjunct, int attr) {
  return {conjunct, attr,
          storage::ColumnPredicate::Compare(PredOp::kEq, Value::Null_())};
}

/// Tries to turn a local conjunct that reads one table, whose relation is
/// `relation`, into a predicate the column index answers exactly — with the
/// same result multiset and the same (absence of) type errors as evaluating
/// it per row.
std::optional<SargablePredicate> TryExtractSargable(
    const BoundExpr& b, int conjunct, const catalog::Relation& relation) {
  const Expr& c = *b.expr;
  // Every column ref of a local conjunct binds to this block's FROM.
  auto resolve = [](const BoundExpr& col, int* attr) {
    *attr = col.attr;
    return col.expr->kind == ExprKind::kColumnRef;
  };
  if (c.kind == ExprKind::kBinary && c.bop == BinaryOp::kLike) {
    int attr = -1;
    if (!b.lhs || !b.rhs || !resolve(*b.lhs, &attr)) return std::nullopt;
    std::optional<Value> pattern = LiteralOf(*c.rhs);
    if (!pattern.has_value()) return std::nullopt;
    if (pattern->is_null()) return EmptyPredicate(conjunct, attr);
    const catalog::ValueType declared = relation.attributes[attr].type;
    // A non-string column (or pattern) type-errors on the first non-null
    // row — leave it to per-row evaluation.
    if (!pattern->is_string() || declared != catalog::ValueType::kString) {
      return std::nullopt;
    }
    return SargablePredicate{
        conjunct, attr,
        storage::ColumnPredicate::Like(pattern->AsString(),
                                       LikeEscapeChar(c.like_escape))};
  }
  if (c.kind == ExprKind::kBinary) {
    PredOp op = CompareOp(c.bop);
    if (op == PredOp::kNone || !c.lhs || !c.rhs) return std::nullopt;
    int attr = -1;
    std::optional<Value> lit;
    if (resolve(*b.lhs, &attr)) {
      lit = LiteralOf(*c.rhs);
    } else if (resolve(*b.rhs, &attr)) {
      lit = LiteralOf(*c.lhs);
      if (lit.has_value()) op = FlipOp(op);
    }
    if (!lit.has_value()) return std::nullopt;
    if (lit->is_null()) return EmptyPredicate(conjunct, attr);
    if (op != PredOp::kEq && op != PredOp::kNe) {
      // Inequalities type-error on incomparable operands; only push them to
      // the index when the scan could not have errored.
      if (!storage::InDeclaredClass(relation.attributes[attr].type, *lit)) {
        return std::nullopt;
      }
    }
    return SargablePredicate{
        conjunct, attr, storage::ColumnPredicate::Compare(op, std::move(*lit))};
  }
  if (c.kind == ExprKind::kBetween && !c.negated) {
    int attr = -1;
    if (!b.lhs || c.args.size() != 2 || !resolve(*b.lhs, &attr)) {
      return std::nullopt;
    }
    std::optional<Value> low = LiteralOf(*c.args[0]);
    std::optional<Value> high = LiteralOf(*c.args[1]);
    if (!low.has_value() || !high.has_value()) return std::nullopt;
    return SargablePredicate{
        conjunct, attr,
        storage::ColumnPredicate::Between(std::move(*low), std::move(*high))};
  }
  if (c.kind == ExprKind::kInList && !c.negated) {
    int attr = -1;
    if (!b.lhs || !resolve(*b.lhs, &attr)) return std::nullopt;
    std::vector<Value> items;
    items.reserve(c.args.size());
    for (const ExprPtr& item : c.args) {
      std::optional<Value> v = LiteralOf(*item);
      if (!v.has_value()) return std::nullopt;
      items.push_back(std::move(*v));
    }
    return SargablePredicate{conjunct, attr,
                             storage::ColumnPredicate::In(std::move(items))};
  }
  return std::nullopt;
}

/// True if every operand of `pred` lies in its column's declared class (a
/// LIKE: the column holds strings), so that evaluating it could raise no
/// error on any row and its ValueFilter keeps the rows the interpreter keeps.
bool KernelSafe(const storage::ColumnPredicate& pred,
                catalog::ValueType declared) {
  if (pred.op == PredOp::kLike) {
    return declared == catalog::ValueType::kString;
  }
  return std::all_of(pred.values.begin(), pred.values.end(),
                     [&](const Value& v) {
                       return storage::InDeclaredClass(declared, v);
                     });
}

/// An IndexScan is chosen only when its predicate keeps at most this
/// fraction of the table; above it, the scan's sequential pass wins over
/// materializing a row-id list.
constexpr double kMaxIndexSelectivity = 0.25;

}  // namespace

Result<BlockPlan> PlanBlock(const storage::Snapshot& snapshot,
                            const BoundBlock& block, const ExecConfig& config) {
  if (!block.error.ok()) return block.error;
  BlockPlan plan;
  const catalog::Catalog& catalog = snapshot.catalog();

  // Classify every conjunct by the FROM entries its bindings read.
  const size_t n = block.relation_ids.size();
  std::vector<TablePlan> tables(n);
  for (size_t t = 0; t < n; ++t) {
    tables[t].from_index = static_cast<int>(t);
    tables[t].relation_id = block.relation_ids[t];
    tables[t].binding_lower = block.bindings[t];
    tables[t].table_rows = snapshot.table(block.relation_ids[t]).num_rows();
  }
  std::vector<int> constants;  // table-independent conjuncts
  std::vector<PlannedEquiJoin> equi_joins;
  std::vector<int> join_filters;  // other multi-table conjuncts
  for (size_t ci = 0; ci < block.conjuncts.size(); ++ci) {
    const BoundConjunct& c = block.conjuncts[ci];
    const std::vector<int>& used = c.tables;
    if (!c.local || (used.empty() && n == 0)) {
      // Subqueries, stars, and correlated or erroneous refs (ambiguous
      // included): the post-join filter evaluates them against the full
      // environment, where an erroneous ref fails with its own message.
      // Without FROM, table-independent conjuncts gate the fold's one
      // identity row there too.
      plan.residual.push_back(static_cast<int>(ci));
      continue;
    }
    if (used.empty()) {
      constants.push_back(static_cast<int>(ci));
      continue;
    }
    if (used.size() == 1) {
      TablePlan& tp = tables[used[0]];
      std::optional<SargablePredicate> sarg = TryExtractSargable(
          c.expr, static_cast<int>(ci), catalog.relation(tp.relation_id));
      if (sarg.has_value()) {
        tp.sargable.push_back(std::move(*sarg));
      } else {
        tp.pushed.push_back(static_cast<int>(ci));
      }
      continue;
    }
    const BoundExpr& e = c.expr;
    if (used.size() == 2 && e.expr->kind == ExprKind::kBinary &&
        e.expr->bop == BinaryOp::kEq &&
        e.lhs->expr->kind == ExprKind::kColumnRef &&
        e.rhs->expr->kind == ExprKind::kColumnRef) {
      equi_joins.push_back(
          {e.lhs->from, e.lhs->attr, e.rhs->from, e.rhs->attr});
      continue;
    }
    join_filters.push_back(static_cast<int>(ci));
  }

  // Access path per table. Chunk-statistics pruning runs FIRST — a chunk
  // whose per-column min/max cannot satisfy some sargable conjunct drops out
  // before any column index is consulted (pruning order: chunk stats ->
  // index -> residual). Only then are the indexes probed for exact counts;
  // row ids are collected only for a chosen IndexScan's one predicate.
  for (size_t t = 0; t < n; ++t) {
    TablePlan& tp = tables[t];
    const storage::Table& table = snapshot.table(tp.relation_id);
    tp.chunks_total = table.num_chunks();
    tp.scan_rows = tp.table_rows;
    if (tp.sargable.empty()) {
      tp.estimated_rows = tp.table_rows;
      tp.selectivity = 1.0;
      continue;
    }

    tp.pruned_chunks.assign(table.num_chunks(), 0);
    size_t surviving_rows = 0;
    for (size_t c = 0; c < table.num_chunks(); ++c) {
      const storage::Chunk& chunk = table.chunk(c);
      const bool pruned = std::any_of(
          tp.sargable.begin(), tp.sargable.end(),
          [&](const SargablePredicate& p) {
            return chunk.stats(p.attr_index).CanPrune(p.pred);
          });
      if (pruned) {
        tp.pruned_chunks[c] = 1;
        ++tp.chunks_pruned;
      } else {
        surviving_rows += chunk.size();
      }
    }
    tp.scan_rows = surviving_rows;

    // The smallest count picks the IndexScan's predicate. When the
    // statistics alone emptied the table, no index is consulted (nor lazily
    // built): the scan reads the zero surviving chunks.
    const SargablePredicate* best = nullptr;
    if (surviving_rows > 0 || tp.table_rows == 0) {
      for (SargablePredicate& p : tp.sargable) {
        p.estimated_rows = table.Index(p.attr_index).Count(p.pred);
        if (best == nullptr || p.estimated_rows < best->estimated_rows) {
          best = &p;
        }
      }
    }
    tp.index_scan = best != nullptr &&
                    (tp.table_rows == 0 ||
                     static_cast<double>(best->estimated_rows) <=
                         kMaxIndexSelectivity *
                             static_cast<double>(tp.table_rows));
    const catalog::Relation& relation = catalog.relation(tp.relation_id);
    std::vector<int> demoted;
    for (const bool kernel : {true, false}) {
      for (const SargablePredicate& p : tp.sargable) {
        if ((tp.index_scan && &p == best) ||
            KernelSafe(p.pred, relation.attributes[p.attr_index].type) !=
                kernel) {
          continue;
        }
        demoted.push_back(p.conjunct);
        if (kernel) {
          tp.kernels.push_back({p.attr_index, storage::ValueFilter(p.pred)});
        }
      }
    }
    tp.pushed.insert(tp.pushed.begin(), demoted.begin(), demoted.end());
    if (tp.index_scan) {
      tp.row_ids = table.Index(best->attr_index).Rows(best->pred);
      tp.estimated_rows = best->estimated_rows;
    } else {
      tp.estimated_rows =
          best == nullptr ? 0 : std::min(best->estimated_rows, surviving_rows);
    }
    tp.selectivity =
        tp.table_rows == 0
            ? 0.0
            : static_cast<double>(tp.estimated_rows) /
                  static_cast<double>(tp.table_rows);
  }

  // Join order: a left-deep DP searches orders (when the block's output
  // cannot depend on emission order) and picks the join algorithm per fold
  // step (exec/cost_model). Sort-merge emits in key order, so it needs the
  // same order-insensitivity guarantee as reordering.
  if (n == 0) {
    // No FROM: the fold yields its one empty identity row.
    plan.estimated_output_rows = 1.0;
    return plan;
  }
  const bool reorder_ok = n > 1 && ReorderSafe(block);
  JoinOrderPlan cost =
      PlanJoinOrder(snapshot, tables, equi_joins, config,
                    /*allow_reorder=*/reorder_ok,
                    /*allow_sort_merge=*/reorder_ok);
  // The fold also applies multi-table non-equi filters; discount each by the
  // default selectivity so the block-level output estimate (the q-error
  // numerator) accounts for them.
  plan.estimated_output_rows = cost.output_rows;
  for (size_t i = 0; i < join_filters.size(); ++i) {
    plan.estimated_output_rows /= 3.0;
  }
  std::vector<int> step_of(n);  // FROM position -> fold step
  plan.tables.reserve(n);
  for (size_t t = 0; t < n; ++t) {
    step_of[cost.order[t]] = static_cast<int>(t);
    TablePlan& tp = plan.tables.emplace_back(std::move(tables[cost.order[t]]));
    tp.join_algo = cost.steps[t].algo;
    tp.presorted = cost.steps[t].presorted;
    tp.est_rows_cumulative = cost.steps[t].rows;
    tp.est_cost_cumulative = cost.steps[t].cost;
  }
  // Table-independent conjuncts gate the whole result; evaluate them on the
  // first (cheapest) table's base rows.
  for (int ci : constants) plan.tables[0].pushed.push_back(ci);

  // Each equi edge keys the step placing its later side, and each join filter
  // runs at the step placing its last table. Edges are visited in the order
  // the cost model read them, so keys[0] is the column it costed an index
  // nested-loop probe on.
  for (const PlannedEquiJoin& e : equi_joins) {
    const int left = step_of[e.left_from];
    const int right = step_of[e.right_from];
    if (left > right) {
      plan.tables[left].keys.push_back(
          {e.right_from, e.right_attr, e.left_attr});
    } else {
      plan.tables[right].keys.push_back(
          {e.left_from, e.left_attr, e.right_attr});
    }
  }
  for (int ci : join_filters) {
    int last = 0;
    for (int from : block.conjuncts[ci].tables) {
      last = std::max(last, step_of[from]);
    }
    plan.tables[last].join_filters.push_back(ci);
  }
  return plan;
}

std::vector<TableAccessExplain> ExplainPlan(const catalog::Catalog& catalog,
                                            const BlockPlan& plan) {
  std::vector<TableAccessExplain> out;
  out.reserve(plan.tables.size());
  for (const TablePlan& tp : plan.tables) {
    TableAccessExplain e;
    e.binding = tp.binding_lower;
    e.relation = catalog.relation(tp.relation_id).name;
    e.index_scan = tp.index_scan;
    e.index_join = !tp.index_scan && !tp.keys.empty();
    e.index_predicates = tp.index_scan ? 1 : 0;
    e.pushed_predicates = static_cast<int>(tp.pushed.size());
    e.table_rows = tp.table_rows;
    e.estimated_rows = tp.estimated_rows;
    e.selectivity = tp.selectivity;
    e.chunks_total = tp.chunks_total;
    e.chunks_pruned = tp.chunks_pruned;
    e.join_algo = JoinAlgoName(tp.join_algo);
    e.est_rows_cumulative = tp.est_rows_cumulative;
    e.est_cost_cumulative = tp.est_cost_cumulative;
    out.push_back(std::move(e));
  }
  return out;
}

}  // namespace sfsql::exec
