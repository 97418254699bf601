#include "exec/executor.h"

#include <algorithm>
#include <cstdio>
#include <functional>
#include <limits>
#include <optional>
#include <unordered_map>
#include <unordered_set>

#include "common/macros.h"
#include "common/strings.h"
#include "exec/binder.h"
#include "exec/like.h"
#include "exec/task_pool.h"
#include "obs/clock.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "sql/parser.h"
#include "sql/printer.h"

namespace sfsql::exec {

using sql::BinaryOp;
using sql::Expr;
using sql::ExprKind;
using sql::SelectStatement;
using sql::UnaryOp;
using storage::Row;
using storage::RowEq;
using storage::RowHash;
using storage::Value;

namespace {

// ---------------------------------------------------------------------------
// Frames
// ---------------------------------------------------------------------------

/// One group of an aggregating block. Its group row is `key` (the GROUP BY
/// values) followed by `aggregates`, each computed on first use.
struct Group {
  Row key;
  std::vector<const Row*> rows;  ///< first-seen first
  std::vector<std::optional<Value>> aggregates;
};

/// One block's current tuple as its bound expressions read it. A block at
/// nesting level L evaluates under an Env of L + 1 frames, its own last; a
/// column ref reads env[level].row at offsets[from] + attr.
struct Frame {
  const Row* row = nullptr;      ///< null: an empty group (columns read NULL)
  const int* offsets = nullptr;  ///< FROM entry -> its first column in *row
  Group* group = nullptr;        ///< group mode: what the group slots read
};
using Env = std::vector<Frame>;

// ---------------------------------------------------------------------------
// Checked arithmetic
// ---------------------------------------------------------------------------

Status IntegerOverflow() { return Status::ExecutionError("integer overflow"); }

/// Unary minus, shared by row-mode and group-mode evaluation.
Result<Value> Negate(const Value& v) {
  if (v.is_null()) return Value::Null_();
  if (v.is_double()) return Value::Double(-v.AsDouble());
  if (!v.is_int()) return Status::TypeError("unary '-' needs a numeric operand");
  int64_t out = 0;
  if (__builtin_sub_overflow(int64_t{0}, v.AsInt(), &out)) {
    return IntegerOverflow();
  }
  return Value::Int(out);
}

/// `a op b` over two integers; `b` is nonzero for / and %.
Result<Value> IntArith(BinaryOp op, int64_t a, int64_t b) {
  int64_t out = 0;
  bool overflow = false;
  switch (op) {
    case BinaryOp::kAdd: overflow = __builtin_add_overflow(a, b, &out); break;
    case BinaryOp::kSub: overflow = __builtin_sub_overflow(a, b, &out); break;
    case BinaryOp::kMul: overflow = __builtin_mul_overflow(a, b, &out); break;
    case BinaryOp::kDiv:
    case BinaryOp::kMod:
      // INT64_MIN / -1 is the one quotient int64 cannot hold (and traps).
      overflow = a == std::numeric_limits<int64_t>::min() && b == -1;
      if (!overflow) out = op == BinaryOp::kDiv ? a / b : a % b;
      break;
    default:
      return Status::Internal("unhandled binary operator");
  }
  if (overflow) return IntegerOverflow();
  return Value::Int(out);
}

// ---------------------------------------------------------------------------
// Block executor
// ---------------------------------------------------------------------------

class BlockExecutor {
 public:
  /// Non-null `info` receives the EXPLAIN view of the root block's plan —
  /// the access paths a query profile records — plus the estimated/actual
  /// join fold cardinalities for q-error measurement.
  /// Non-null `pool` with config->exec_threads > 1 turns on the morsel-
  /// parallel operators in the planned fold; null or exec_threads == 1 is
  /// serial, bit-identical and thread-free.
  BlockExecutor(const storage::Database* db, const ExecConfig* config,
                const Binding& binding, ExecStats* stats,
                ExecInfo* info = nullptr, TaskPool* pool = nullptr)
      : db_(db),
        config_(config),
        stats_(stats),
        info_(info),
        pool_(pool),
        plans_(binding.blocks.size()),
        once_(binding.blocks.size()) {}

  /// Runs `block` under the enclosing blocks' frames (`env` holds
  /// block.level of them; the block's own frame is appended).
  Result<QueryResult> ExecuteBlock(const BoundBlock& block, Env env);

  /// The block's access-path plan, planned on first use and cached for the
  /// rest of this execution: a correlated subquery reruns the same block
  /// many times, and plans are environment-independent (sargable operands
  /// are literals). Cached row ids stay valid because one BlockExecutor
  /// lives within one Database::ReadLock. EXPLAIN plans through here too.
  Result<const BlockPlan*> Plan(const BoundBlock& block) {
    std::optional<Result<BlockPlan>>& plan = plans_[block.id];
    if (!plan.has_value()) plan = PlanBlock(*db_, block, *config_);
    if (!plan->ok()) return plan->status();
    return &plan->value();
  }

 private:
  // --- scalar evaluation: one evaluator for row and group mode ---

  Result<Value> Eval(const BoundExpr& b, const Env& env) {
    if (b.group_slot >= 0) return GroupValue(b, env);
    const Expr& e = *b.expr;
    switch (e.kind) {
      case ExprKind::kLiteral:
        return e.literal;
      case ExprKind::kColumnRef: {
        if (!b.error.ok()) return b.error;
        const Frame& f = env[b.level];
        if (f.row == nullptr) return Value::Null_();
        return (*f.row)[f.offsets[b.from] + b.attr];
      }
      case ExprKind::kStar:
        return Status::ExecutionError("'*' is only valid in SELECT or COUNT(*)");
      case ExprKind::kUnary: {
        SFSQL_ASSIGN_OR_RETURN(Value v, Eval(*b.lhs, env));
        if (e.uop == UnaryOp::kNot) {
          return Value::Bool(!Truthy(v));
        }
        return Negate(v);
      }
      case ExprKind::kBinary:
        return EvalBinary(b, env);
      case ExprKind::kFunctionCall:
        if (IsAggregateName(e.function_name)) {
          return Status::ExecutionError(
              StrCat("aggregate '", e.function_name,
                     "' used outside of an aggregated query block"));
        }
        return EvalScalarFunction(b, env);
      case ExprKind::kInList: {
        SFSQL_ASSIGN_OR_RETURN(Value subject, Eval(*b.lhs, env));
        if (subject.is_null()) return Value::Bool(e.negated ? true : false);
        for (const BoundExpr& item : b.args) {
          SFSQL_ASSIGN_OR_RETURN(Value v, Eval(item, env));
          if (subject.Equals(v)) return Value::Bool(!e.negated);
        }
        return Value::Bool(e.negated);
      }
      case ExprKind::kInSubquery: {
        SFSQL_ASSIGN_OR_RETURN(Value subject, Eval(*b.lhs, env));
        // Two-valued logic: a NULL subject matches nothing.
        if (subject.is_null()) return Value::Bool(e.negated);
        QueryResult fresh;
        SFSQL_ASSIGN_OR_RETURN(const QueryResult* sub,
                               RunSubquery(b, env, fresh));
        if (sub->columns.size() != 1) {
          return Status::ExecutionError("IN subquery must return one column");
        }
        for (const Row& row : sub->rows) {
          if (subject.Equals(row[0])) return Value::Bool(!e.negated);
        }
        return Value::Bool(e.negated);
      }
      case ExprKind::kExistsSubquery: {
        QueryResult fresh;
        SFSQL_ASSIGN_OR_RETURN(const QueryResult* sub,
                               RunSubquery(b, env, fresh));
        bool exists = !sub->rows.empty();
        return Value::Bool(e.negated ? !exists : exists);
      }
      case ExprKind::kScalarSubquery: {
        QueryResult fresh;
        SFSQL_ASSIGN_OR_RETURN(const QueryResult* sub,
                               RunSubquery(b, env, fresh));
        if (sub->columns.size() != 1) {
          return Status::ExecutionError("scalar subquery must return one column");
        }
        if (sub->rows.empty()) return Value::Null_();
        if (sub->rows.size() > 1) {
          return Status::ExecutionError("scalar subquery returned several rows");
        }
        return sub->rows[0][0];
      }
      case ExprKind::kBetween: {
        SFSQL_ASSIGN_OR_RETURN(Value subject, Eval(*b.lhs, env));
        SFSQL_ASSIGN_OR_RETURN(Value low, Eval(b.args[0], env));
        SFSQL_ASSIGN_OR_RETURN(Value high, Eval(b.args[1], env));
        if (subject.is_null() || low.is_null() || high.is_null()) {
          return Value::Bool(false);
        }
        bool in = subject.Compare(low) >= 0 && subject.Compare(high) <= 0;
        return Value::Bool(e.negated ? !in : in);
      }
      case ExprKind::kIsNull: {
        SFSQL_ASSIGN_OR_RETURN(Value subject, Eval(*b.lhs, env));
        bool is_null = subject.is_null();
        return Value::Bool(e.negated ? !is_null : is_null);
      }
    }
    return Status::Internal("unhandled expression kind");
  }

  static bool Truthy(const Value& v) {
    if (v.is_null()) return false;
    if (v.is_bool()) return v.AsBool();
    if (v.is_int()) return v.AsInt() != 0;
    if (v.is_double()) return v.AsDouble() != 0.0;
    return !v.AsString().empty();
  }

  Result<Value> EvalBinary(const BoundExpr& node, const Env& env) {
    const Expr& e = *node.expr;
    if (e.bop == BinaryOp::kAnd) {
      SFSQL_ASSIGN_OR_RETURN(Value a, Eval(*node.lhs, env));
      if (!Truthy(a)) return Value::Bool(false);
      SFSQL_ASSIGN_OR_RETURN(Value b, Eval(*node.rhs, env));
      return Value::Bool(Truthy(b));
    }
    if (e.bop == BinaryOp::kOr) {
      SFSQL_ASSIGN_OR_RETURN(Value a, Eval(*node.lhs, env));
      if (Truthy(a)) return Value::Bool(true);
      SFSQL_ASSIGN_OR_RETURN(Value b, Eval(*node.rhs, env));
      return Value::Bool(Truthy(b));
    }
    SFSQL_ASSIGN_OR_RETURN(Value a, Eval(*node.lhs, env));
    SFSQL_ASSIGN_OR_RETURN(Value b, Eval(*node.rhs, env));
    if (sql::IsComparisonOp(e.bop)) {
      if (a.is_null() || b.is_null()) return Value::Bool(false);
      if (e.bop == BinaryOp::kLike) {
        if (!a.is_string() || !b.is_string()) {
          return Status::TypeError("LIKE needs string operands");
        }
        return Value::Bool(LikeMatch(a.AsString(), b.AsString(),
                                     LikeEscapeChar(e.like_escape)));
      }
      if (e.bop == BinaryOp::kEq) return Value::Bool(a.Equals(b));
      if (e.bop == BinaryOp::kNe) return Value::Bool(!a.Equals(b));
      bool comparable = (a.is_numeric() && b.is_numeric()) || a.type() == b.type();
      if (!comparable) {
        return Status::TypeError(
            StrCat("cannot compare ", catalog::ValueTypeToString(a.type()),
                   " with ", catalog::ValueTypeToString(b.type())));
      }
      int cmp = a.Compare(b);
      switch (e.bop) {
        case BinaryOp::kLt: return Value::Bool(cmp < 0);
        case BinaryOp::kLe: return Value::Bool(cmp <= 0);
        case BinaryOp::kGt: return Value::Bool(cmp > 0);
        case BinaryOp::kGe: return Value::Bool(cmp >= 0);
        default: break;
      }
    }
    // Arithmetic.
    if (a.is_null() || b.is_null()) return Value::Null_();
    if (!a.is_numeric() || !b.is_numeric()) {
      if (e.bop == BinaryOp::kAdd && a.is_string() && b.is_string()) {
        return Value::String(a.AsString() + b.AsString());
      }
      return Status::TypeError("arithmetic needs numeric operands");
    }
    const bool ints = a.is_int() && b.is_int();
    if (e.bop == BinaryOp::kMod && !ints) {
      return Status::TypeError("'%' needs integers");
    }
    if ((e.bop == BinaryOp::kDiv || e.bop == BinaryOp::kMod) &&
        b.AsDouble() == 0.0) {
      return Value::Null_();
    }
    if (ints) return IntArith(e.bop, a.AsInt(), b.AsInt());
    switch (e.bop) {
      case BinaryOp::kAdd: return Value::Double(a.AsDouble() + b.AsDouble());
      case BinaryOp::kSub: return Value::Double(a.AsDouble() - b.AsDouble());
      case BinaryOp::kMul: return Value::Double(a.AsDouble() * b.AsDouble());
      case BinaryOp::kDiv: return Value::Double(a.AsDouble() / b.AsDouble());
      default:
        break;
    }
    return Status::Internal("unhandled binary operator");
  }

  Result<Value> EvalScalarFunction(const BoundExpr& b, const Env& env) {
    const Expr& e = *b.expr;
    // Small scalar function library; extend as needed.
    if (EqualsIgnoreCase(e.function_name, "abs") && e.args.size() == 1) {
      SFSQL_ASSIGN_OR_RETURN(Value v, Eval(b.args[0], env));
      if (v.is_null()) return v;
      if (v.is_int()) return v.AsInt() < 0 ? Negate(v) : v;
      if (v.is_double()) {
        return Value::Double(v.AsDouble() < 0 ? -v.AsDouble() : v.AsDouble());
      }
      return Status::TypeError("abs needs a numeric argument");
    }
    if (EqualsIgnoreCase(e.function_name, "lower") && e.args.size() == 1) {
      SFSQL_ASSIGN_OR_RETURN(Value v, Eval(b.args[0], env));
      if (v.is_null()) return v;
      if (!v.is_string()) return Status::TypeError("lower needs a string");
      return Value::String(ToLower(v.AsString()));
    }
    if (EqualsIgnoreCase(e.function_name, "upper") && e.args.size() == 1) {
      SFSQL_ASSIGN_OR_RETURN(Value v, Eval(b.args[0], env));
      if (v.is_null()) return v;
      if (!v.is_string()) return Status::TypeError("upper needs a string");
      return Value::String(ToUpper(v.AsString()));
    }
    if (EqualsIgnoreCase(e.function_name, "length") && e.args.size() == 1) {
      SFSQL_ASSIGN_OR_RETURN(Value v, Eval(b.args[0], env));
      if (v.is_null()) return v;
      if (!v.is_string()) return Status::TypeError("length needs a string");
      return Value::Int(static_cast<int64_t>(v.AsString().size()));
    }
    return Status::ExecutionError(
        StrCat("unknown function '", e.function_name, "'"));
  }

  /// The aggregate `b` over `group`: its argument runs once per row of the
  /// group, in the group's own frame.
  Result<Value> ComputeAggregate(const BoundExpr& b, const Group& group,
                                 const Env& env) {
    const Expr& call = *b.expr;
    const std::string name = ToLower(call.function_name);
    if (call.args.size() != 1) {
      return Status::ExecutionError(
          StrCat("aggregate '", call.function_name, "' takes one argument"));
    }
    if (name == "count" && call.args[0]->kind == ExprKind::kStar) {
      return Value::Int(static_cast<int64_t>(group.rows.size()));
    }
    std::vector<Value> values;
    values.reserve(group.rows.size());
    Env row_env = env;
    Frame& own = row_env[b.level];
    own.group = nullptr;
    for (const Row* row : group.rows) {
      own.row = row;
      SFSQL_ASSIGN_OR_RETURN(Value v, Eval(b.args[0], row_env));
      if (!v.is_null()) values.push_back(std::move(v));
    }
    if (call.distinct) {
      std::unordered_set<Row, RowHash, RowEq> seen;
      std::vector<Value> unique;
      for (Value& v : values) {
        Row key{v};
        if (seen.insert(key).second) unique.push_back(std::move(v));
      }
      values = std::move(unique);
    }
    if (name == "count") return Value::Int(static_cast<int64_t>(values.size()));
    if (values.empty()) return Value::Null_();
    if (name == "min" || name == "max") {
      Value best = values[0];
      for (size_t i = 1; i < values.size(); ++i) {
        int cmp = values[i].Compare(best);
        if ((name == "min" && cmp < 0) || (name == "max" && cmp > 0)) {
          best = values[i];
        }
      }
      return best;
    }
    // sum / avg
    bool all_int = true;
    double dsum = 0;
    int64_t isum = 0;
    bool int_overflow = false;
    for (const Value& v : values) {
      if (!v.is_numeric()) {
        return Status::TypeError(StrCat(name, " needs numeric values"));
      }
      if (!v.is_int()) all_int = false;
      dsum += v.AsDouble();
      if (v.is_int() && __builtin_add_overflow(isum, v.AsInt(), &isum)) {
        int_overflow = true;
      }
    }
    if (name == "sum") {
      if (all_int && int_overflow) return IntegerOverflow();
      return all_int ? Value::Int(isum) : Value::Double(dsum);
    }
    return Value::Double(dsum / static_cast<double>(values.size()));
  }

  /// A group slot's value: a GROUP BY key, or an aggregate computed on its
  /// first use in this group.
  Result<Value> GroupValue(const BoundExpr& b, const Env& env) {
    Group& group = *env[b.level].group;
    const size_t slot = static_cast<size_t>(b.group_slot);
    if (slot < group.key.size()) return group.key[slot];
    std::optional<Value>& value = group.aggregates[slot - group.key.size()];
    if (!value.has_value()) {
      SFSQL_ASSIGN_OR_RETURN(value, ComputeAggregate(b, group, env));
    }
    return *value;
  }

  /// The result of subquery `b` under `env`: a correlated block runs into
  /// `fresh` each time; an uncorrelated one runs once per execution and its
  /// result (or error) is reused.
  Result<const QueryResult*> RunSubquery(const BoundExpr& b, const Env& env,
                                         QueryResult& fresh) {
    const BoundBlock& sub = *b.subquery;
    if (sub.correlated) {
      SFSQL_ASSIGN_OR_RETURN(fresh, ExecuteBlock(sub, env));
      return &fresh;
    }
    std::optional<Result<QueryResult>>& once = once_[sub.id];
    if (!once.has_value()) once = ExecuteBlock(sub, env);
    if (!once->ok()) return once->status();
    return &once->value();
  }

  // --- join pipeline ---

  /// Runs the plan's join fold: filtered base rows per table, joined in
  /// plan order. `env` holds the block's frames, its own last; `offset_of`
  /// (FROM entry -> first flat column, which the own frame points at) fills
  /// in as tables are placed.
  Result<std::vector<Row>> FoldJoin(const BoundBlock& block,
                                    const BlockPlan& plan, const Env& env,
                                    std::vector<int>& offset_of);

  // --- morsel-parallel row loops ---
  //
  // The three hot operators of the planned fold (scan + pushed filter, hash
  // probe, index nested-loop probe) all reduce to "run body(b, e) over [0, n)
  // and append body's output rows in range order". RowLoop runs that shape on
  // the task pool when parallelism is on and the input is big enough, and as
  // one plain call otherwise — so exec_threads == 1 never touches a thread.
  // Parallel invariants:
  //  * outputs and stats go to per-morsel slots, stitched/merged in morsel
  //    order after the barrier — results are bit-identical to serial and no
  //    hot-path counter is shared between workers;
  //  * bodies only evaluate planner-pushed conjuncts and join filters, which
  //    are subquery-free by construction (the planner routes any conjunct
  //    containing a subquery or star to the residual filter), so Eval never
  //    recurses into ExecuteBlock — and never mutates this object — from a
  //    worker thread;
  //  * workers run strictly inside the Database::ReadLock the caller's
  //    Execute holds (they never lock), so the staleness contract is the
  //    serial one;
  //  * on error, the lowest-indexed failing morsel's status is returned —
  //    the same error serial execution would have hit first.
  Status RowLoop(size_t n, size_t grain,
                 const std::function<Status(size_t, size_t, std::vector<Row>&,
                                            ExecStats&)>& body,
                 std::vector<Row>& out) {
    if (pool_ == nullptr || config_->exec_threads <= 1 || n <= grain ||
        grain == 0) {
      return body(0, n, out, *stats_);
    }
    const size_t morsels = (n + grain - 1) / grain;
    std::vector<std::vector<Row>> outs(morsels);
    std::vector<Status> statuses(morsels);
    std::vector<ExecStats> deltas(morsels);
    pool_->ParallelFor(n, grain, [&](size_t b, size_t e) {
      const size_t m = b / grain;
      statuses[m] = body(b, e, outs[m], deltas[m]);
    });
    for (const Status& s : statuses) {
      if (!s.ok()) return s;
    }
    size_t total = out.size();
    for (const std::vector<Row>& o : outs) total += o.size();
    out.reserve(total);
    for (size_t m = 0; m < morsels; ++m) {
      for (Row& r : outs[m]) out.push_back(std::move(r));
      MergeStats(*stats_, deltas[m]);
    }
    return Status::OK();
  }

  /// Morsel size for the parallel row loops (scans round up to chunks).
  size_t Grain() const {
    return config_->morsel_grain != 0 ? config_->morsel_grain : 4096;
  }

  bool ParallelEnabled() const {
    return pool_ != nullptr && config_->exec_threads > 1;
  }

  const storage::Database* db_;
  const ExecConfig* config_;
  ExecStats* stats_;
  ExecInfo* info_;
  TaskPool* pool_ = nullptr;
  /// Per BoundBlock::id: the block's plan, and an uncorrelated block's one
  /// result.
  std::vector<std::optional<Result<BlockPlan>>> plans_;
  std::vector<std::optional<Result<QueryResult>>> once_;
};

Result<std::vector<Row>> BlockExecutor::FoldJoin(
    const BoundBlock& block, const BlockPlan& plan, const Env& env,
    std::vector<int>& offset_of) {
  // Pushed conjuncts run against one base row (instead of once per joined
  // tuple): the own frame reads it with every FROM entry at offset 0. Each
  // morsel copies the frames once and repoints the own frame per row.
  const size_t n = plan.tables.size();
  const std::vector<int> at_zero(n, 0);
  Env base_env = env;
  base_env.back() = Frame{nullptr, at_zero.data(), nullptr};
  auto passes_pushed = [&](const TablePlan& tp, const Row& row,
                           Env& row_env) -> Result<bool> {
    row_env.back().row = &row;
    for (int ci : tp.pushed) {
      SFSQL_ASSIGN_OR_RETURN(Value v, Eval(block.conjuncts[ci].expr, row_env));
      if (!Truthy(v)) return false;
    }
    return true;
  };

  // Stage 1, run lazily at each fold step: the filtered base-row list of one
  // table, materialized column-at-a-time out of the chunks — only columns the
  // statement can read are copied; the rest stay NULL placeholders. An
  // IndexScan starts from the plan's row ids (sargable conjuncts already
  // satisfied); a scan walks the chunks, skipping every chunk the plan's
  // statistics pass pruned. Either way the pushed predicates run once per
  // base row. Tables answered by an index nested-loop join skip this.
  auto materialize = [&](const TablePlan& tp) -> Result<std::vector<Row>> {
    const storage::Table& table = db_->table(tp.relation_id);
    const std::vector<char>& wanted = block.read_attrs[tp.from_index];
    const size_t width = table.num_attrs();
    std::vector<Row> base;
    if (tp.index_scan) {
      ++stats_->index_scans;
      stats_->rows_scanned += tp.row_ids.size();
      auto scan_ids = [&](size_t b, size_t e, std::vector<Row>& out,
                          ExecStats&) -> Status {
        Env row_env = base_env;
        out.reserve(out.size() + (e - b));
        for (size_t i = b; i < e; ++i) {
          Row row(width);
          for (size_t a = 0; a < width; ++a) {
            if (wanted[a]) row[a] = table.at(tp.row_ids[i], a);
          }
          SFSQL_ASSIGN_OR_RETURN(bool ok, passes_pushed(tp, row, row_env));
          if (ok) out.push_back(std::move(row));
        }
        return Status::OK();
      };
      SFSQL_RETURN_IF_ERROR(RowLoop(tp.row_ids.size(), Grain(), scan_ids, base));
    } else {
      ++stats_->table_scans;
      // Morsels are whole chunks (a grain below chunk_capacity rounds up to
      // one chunk per morsel); workers prune locally against the plan's
      // per-chunk verdicts and the row runs concatenate in chunk order.
      auto scan_chunks = [&](size_t cb, size_t ce, std::vector<Row>& out,
                             ExecStats& st) -> Status {
        Env row_env = base_env;
        for (size_t c = cb; c < ce; ++c) {
          if (c < tp.pruned_chunks.size() && tp.pruned_chunks[c]) {
            ++st.chunks_pruned;
            continue;
          }
          const storage::Chunk& chunk = table.chunk(c);
          st.rows_scanned += chunk.size();
          for (size_t o = 0; o < chunk.size(); ++o) {
            Row row(width);
            for (size_t a = 0; a < width; ++a) {
              if (wanted[a]) row[a] = chunk.column(a)[o];
            }
            SFSQL_ASSIGN_OR_RETURN(bool ok, passes_pushed(tp, row, row_env));
            if (ok) out.push_back(std::move(row));
          }
        }
        return Status::OK();
      };
      const size_t chunks_per_morsel =
          std::max<size_t>(1, Grain() / table.chunk_capacity());
      SFSQL_RETURN_IF_ERROR(
          RowLoop(table.num_chunks(), chunks_per_morsel, scan_chunks, base));
    }
    stats_->rows_pruned += table.num_rows() - base.size();
    stats_->pushed_predicates += tp.pushed.size() + tp.sargable.size();
    return base;
  };

  // Stage 2: fold in plan order — hash joins on the planned equi edges, join
  // filters evaluated at the step where their last table is placed.
  std::vector<int> step_of(n, -1);  // FROM position -> fold step
  for (size_t t = 0; t < n; ++t) {
    step_of[plan.tables[t].from_index] = static_cast<int>(t);
  }
  std::vector<std::vector<const BoundExpr*>> step_filters(n);
  for (const PlannedJoinFilter& f : plan.join_filters) {
    int last = 0;
    for (int tab : f.tables) last = std::max(last, step_of[tab]);
    step_filters[last].push_back(&block.conjuncts[f.conjunct].expr);
  }

  std::vector<Row> rows;
  rows.push_back(Row{});  // fold identity
  // Flat columns the accumulated rows are currently sorted by (the output of
  // a sort-merge step). Hash, index nested-loop, and nested-loop steps all
  // iterate the accumulated side in order and emit per-base-row blocks, so
  // they preserve it; a later sort-merge on exactly these columns can skip
  // its accumulated-side sort.
  std::vector<int> sorted_cols;
  int placed_width = 0;  // flat columns of the tables placed so far
  for (size_t t = 0; t < n; ++t) {
    const TablePlan& tp = plan.tables[t];
    offset_of[tp.from_index] = placed_width;
    placed_width += static_cast<int>(db_->table(tp.relation_id).num_attrs());

    struct EquiKey {
      int existing_col;  // flat index in the accumulated schema
      int new_col;       // attribute index within the new slot
    };
    std::vector<EquiKey> keys;
    for (const PlannedEquiJoin& e : plan.equi_joins) {
      const int ts = static_cast<int>(t);
      if (step_of[e.left_from] == ts && step_of[e.right_from] < ts) {
        keys.push_back(
            EquiKey{offset_of[e.right_from] + e.right_attr, e.left_attr});
      } else if (step_of[e.right_from] == ts && step_of[e.left_from] < ts) {
        keys.push_back(
            EquiKey{offset_of[e.left_from] + e.left_attr, e.right_attr});
      }
    }
    const std::vector<const BoundExpr*>& filters = step_filters[t];

    std::vector<Row> joined;
    // `out`-parameterized so the parallel probe loops can emit into their
    // morsel's private vector; the join filters are subquery-free (see
    // RowLoop), so concurrent evaluation is safe. `join_env` is the caller's
    // (per-morsel) copy of the frames; its own frame reads the combined row.
    auto emit_row = [&](const Row& base, const Row& extra,
                        std::vector<Row>& out, Env& join_env) -> Status {
      Row combined;
      combined.reserve(base.size() + extra.size());
      combined.insert(combined.end(), base.begin(), base.end());
      combined.insert(combined.end(), extra.begin(), extra.end());
      join_env.back().row = &combined;
      for (const BoundExpr* p : filters) {
        SFSQL_ASSIGN_OR_RETURN(Value v, Eval(*p, join_env));
        if (!Truthy(v)) return Status::OK();
      }
      out.push_back(std::move(combined));
      return Status::OK();
    };
    Env step_env = env;
    auto emit_if_passes = [&](const Row& base, const Row& extra) -> Status {
      return emit_row(base, extra, joined, step_env);
    };

    // Index nested-loop join (the cost model's pick when the accumulated side
    // is small relative to the table): probe the join column's index once
    // per accumulated row instead of scanning + hash-building the whole
    // table. The cost model only picks it for tables the planner marked with
    // an index_join_attr. Probe row ids come back ascending, so emission order
    // matches the hash join exactly (per accumulated row, matches in table
    // order). `=` probes use Value::Compare equality, which coincides with
    // the hash join's Equals for non-nulls.
    if (tp.join_algo == JoinAlgo::kIndexNestedLoop) {
      const storage::Table& table = db_->table(tp.relation_id);
      ++stats_->index_joins;
      stats_->pushed_predicates += tp.pushed.size();
      const storage::ColumnIndex* idx =
          db_->ColumnIndexFor(tp.relation_id, tp.index_join_attr);
      const std::vector<char>& wanted = block.read_attrs[tp.from_index];
      const size_t width = table.num_attrs();
      size_t probe_key = 0;
      while (keys[probe_key].new_col != tp.index_join_attr) ++probe_key;
      // Probe morsels run in parallel over the accumulated rows; per probe
      // row the index returns ids ascending, so stitching morsels in order
      // reproduces the serial emission order exactly. `idx` was fetched above
      // on this thread (ColumnIndexFor may lazily build under a mutex);
      // workers only call its const read API.
      auto probe_index = [&](size_t b, size_t e, std::vector<Row>& out,
                             ExecStats& st) -> Status {
        Env row_env = base_env;
        Env join_env = env;
        for (size_t ri = b; ri < e; ++ri) {
          const Row& base = rows[ri];
          bool has_null = false;
          for (const EquiKey& k : keys) {
            if (base[k.existing_col].is_null()) has_null = true;
          }
          if (has_null) continue;
          for (uint32_t id :
               idx->RowsSatisfying("=", base[keys[probe_key].existing_col])) {
            ++st.rows_scanned;
            Row trow(width);
            for (size_t a = 0; a < width; ++a) {
              if (wanted[a]) trow[a] = table.at(id, a);
            }
            bool match = true;
            for (size_t k = 0; k < keys.size() && match; ++k) {
              if (k == probe_key) continue;
              const Value& v = trow[keys[k].new_col];
              match = !v.is_null() && v.Equals(base[keys[k].existing_col]);
            }
            if (!match) continue;
            SFSQL_ASSIGN_OR_RETURN(bool ok, passes_pushed(tp, trow, row_env));
            if (!ok) continue;
            SFSQL_RETURN_IF_ERROR(emit_row(base, trow, out, join_env));
          }
        }
        return Status::OK();
      };
      SFSQL_RETURN_IF_ERROR(RowLoop(rows.size(), Grain(), probe_index, joined));
      rows = std::move(joined);
      continue;
    }

    SFSQL_ASSIGN_OR_RETURN(std::vector<Row> base_rows, materialize(tp));
    if (!keys.empty() && tp.join_algo == JoinAlgo::kSortMerge) {
      // Sort-merge join: order both sides by the key columns and walk equal-
      // key groups with two pointers. Value::Compare is a total order whose
      // zero coincides with the hash join's key equality (int/double coerce
      // in both; distinct type ranks never compare equal), so the produced
      // multiset is identical to the hash join's. NULL keys never join.
      // Output emits in key order — the planner only chooses this operator
      // for reorder-safe blocks.
      ++stats_->sort_merge_joins;
      std::vector<int> left_cols;
      left_cols.reserve(keys.size());
      for (const EquiKey& k : keys) left_cols.push_back(k.existing_col);
      std::vector<uint32_t> lidx;
      lidx.reserve(rows.size());
      for (uint32_t i = 0; i < rows.size(); ++i) {
        bool has_null = false;
        for (const EquiKey& k : keys) {
          if (rows[i][k.existing_col].is_null()) has_null = true;
        }
        if (!has_null) lidx.push_back(i);
      }
      std::vector<uint32_t> ridx;
      ridx.reserve(base_rows.size());
      for (uint32_t i = 0; i < base_rows.size(); ++i) {
        bool has_null = false;
        for (const EquiKey& k : keys) {
          if (base_rows[i][k.new_col].is_null()) has_null = true;
        }
        if (!has_null) ridx.push_back(i);
      }
      auto cmp_lr = [&](uint32_t l, uint32_t r) {
        for (const EquiKey& k : keys) {
          int c = rows[l][k.existing_col].Compare(base_rows[r][k.new_col]);
          if (c != 0) return c;
        }
        return 0;
      };
      auto cmp_ll = [&](uint32_t a, uint32_t b) {
        for (const EquiKey& k : keys) {
          int c = rows[a][k.existing_col].Compare(rows[b][k.existing_col]);
          if (c != 0) return c;
        }
        return 0;
      };
      auto cmp_rr = [&](uint32_t a, uint32_t b) {
        for (const EquiKey& k : keys) {
          int c = base_rows[a][k.new_col].Compare(base_rows[b][k.new_col]);
          if (c != 0) return c;
        }
        return 0;
      };
      // The accumulated side skips its sort when a previous sort-merge left
      // it ordered by exactly these columns (the "sorted output reusable"
      // case the cost model rewards).
      if (sorted_cols == left_cols) {
        ++stats_->merge_sorts_skipped;
      } else {
        std::stable_sort(lidx.begin(), lidx.end(),
                         [&](uint32_t a, uint32_t b) { return cmp_ll(a, b) < 0; });
      }
      std::stable_sort(ridx.begin(), ridx.end(),
                       [&](uint32_t a, uint32_t b) { return cmp_rr(a, b) < 0; });
      size_t li = 0, ri = 0;
      while (li < lidx.size() && ri < ridx.size()) {
        const int c = cmp_lr(lidx[li], ridx[ri]);
        if (c < 0) {
          ++li;
        } else if (c > 0) {
          ++ri;
        } else {
          size_t le = li + 1;
          while (le < lidx.size() && cmp_ll(lidx[li], lidx[le]) == 0) ++le;
          size_t re = ri + 1;
          while (re < ridx.size() && cmp_rr(ridx[ri], ridx[re]) == 0) ++re;
          for (size_t i = li; i < le; ++i) {
            for (size_t j = ri; j < re; ++j) {
              SFSQL_RETURN_IF_ERROR(
                  emit_if_passes(rows[lidx[i]], base_rows[ridx[j]]));
            }
          }
          li = le;
          ri = re;
        }
      }
      sorted_cols = std::move(left_cols);
    } else if (!keys.empty()) {
      // Hash join: build on the new (filtered) table, probe with the
      // accumulated rows. NULL keys never join. In parallel, workers slice
      // the build side into per-morsel per-partition key lists, then each
      // partition's table is assembled by one worker walking the morsels in
      // order — so every bucket's match list is in build-side row order,
      // exactly like serial insertion. Probe morsels then hit the partitions
      // directly (same RowHash picks the partition and the bucket) and stitch
      // their outputs in accumulated-row order. Serially the same code runs
      // inline as one morsel and one partition.
      ++stats_->hash_joins;
      using BuildMap =
          std::unordered_map<Row, std::vector<const Row*>, RowHash, RowEq>;
      const bool parallel =
          ParallelEnabled() &&
          (base_rows.size() > Grain() || rows.size() > Grain());
      const size_t partitions = parallel ? 64 : 1;
      const size_t grain =
          parallel ? Grain() : std::max<size_t>(1, base_rows.size());
      auto partition_of = [partitions](const Row& key) -> size_t {
        return partitions == 1 ? 0 : RowHash{}(key) % partitions;
      };
      auto for_morsels = [&](size_t count, size_t step,
                             const std::function<void(size_t, size_t)>& body) {
        if (parallel) {
          pool_->ParallelFor(count, step, body);
        } else {
          body(0, count);
        }
      };
      const size_t bmorsels =
          std::max<size_t>(1, (base_rows.size() + grain - 1) / grain);
      std::vector<std::vector<std::vector<std::pair<uint32_t, Row>>>> parts(
          bmorsels,
          std::vector<std::vector<std::pair<uint32_t, Row>>>(partitions));
      for_morsels(base_rows.size(), grain, [&](size_t b, size_t e) {
        auto& my = parts[b / grain];
        for (size_t i = b; i < e; ++i) {
          const Row& trow = base_rows[i];
          Row key;
          key.reserve(keys.size());
          bool has_null = false;
          for (const EquiKey& k : keys) {
            if (trow[k.new_col].is_null()) has_null = true;
            key.push_back(trow[k.new_col]);
          }
          if (has_null) continue;
          my[partition_of(key)].emplace_back(static_cast<uint32_t>(i),
                                             std::move(key));
        }
      });
      std::vector<BuildMap> build(partitions);
      for_morsels(partitions, 1, [&](size_t pb, size_t pe) {
        for (size_t p = pb; p < pe; ++p) {
          for (size_t m = 0; m < bmorsels; ++m) {
            for (std::pair<uint32_t, Row>& kv : parts[m][p]) {
              build[p][std::move(kv.second)].push_back(&base_rows[kv.first]);
            }
          }
        }
      });
      auto probe_body = [&](size_t b, size_t e, std::vector<Row>& out,
                            ExecStats&) -> Status {
        Env join_env = env;
        for (size_t i = b; i < e; ++i) {
          const Row& base = rows[i];
          Row probe;
          probe.reserve(keys.size());
          bool has_null = false;
          for (const EquiKey& k : keys) {
            if (base[k.existing_col].is_null()) has_null = true;
            probe.push_back(base[k.existing_col]);
          }
          if (has_null) continue;
          const BuildMap& part = build[partition_of(probe)];
          auto it = part.find(probe);
          if (it == part.end()) continue;
          for (const Row* trow : it->second) {
            SFSQL_RETURN_IF_ERROR(emit_row(base, *trow, out, join_env));
          }
        }
        return Status::OK();
      };
      SFSQL_RETURN_IF_ERROR(RowLoop(rows.size(), Grain(), probe_body, joined));
    } else {
      for (const Row& base : rows) {
        for (const Row& trow : base_rows) {
          SFSQL_RETURN_IF_ERROR(emit_if_passes(base, trow));
        }
      }
    }
    rows = std::move(joined);
  }
  return rows;
}

Result<QueryResult> BlockExecutor::ExecuteBlock(const BoundBlock& block,
                                                Env env) {
  const SelectStatement& stmt = *block.stmt;
  const bool root = block.level == 0;
  SFSQL_ASSIGN_OR_RETURN(const BlockPlan* planned, Plan(block));
  const BlockPlan& plan = *planned;
  if (root && info_ != nullptr) {
    info_->access_paths = ExplainPlan(*db_, plan);
  }
  // The block's own frame goes last; every row loop below repoints it.
  std::vector<int> offset_of(block.relation_ids.size(), -1);
  env.push_back(Frame{nullptr, offset_of.data(), nullptr});
  Frame& own = env.back();
  SFSQL_ASSIGN_OR_RETURN(std::vector<Row> rows,
                         FoldJoin(block, plan, env, offset_of));
  if (root && info_ != nullptr) {
    // Estimated vs actual rows out of the join fold, both pre-residual —
    // the q-error the cost model is judged on.
    info_->estimated_join_rows = plan.estimated_output_rows;
    info_->actual_join_rows = rows.size();
    info_->has_join_actuals = true;
  }

  // Final filter: conjuncts the fold did not consume (subqueries,
  // outer-correlated predicates, OR trees).
  if (!plan.residual.empty()) {
    std::vector<Row> filtered;
    for (Row& row : rows) {
      own.row = &row;
      bool pass = true;
      for (int ci : plan.residual) {
        SFSQL_ASSIGN_OR_RETURN(Value v, Eval(block.conjuncts[ci].expr, env));
        if (!Truthy(v)) {
          pass = false;
          break;
        }
      }
      if (pass) filtered.push_back(std::move(row));
    }
    rows = std::move(filtered);
  }

  QueryResult result;

  // Column labels.
  auto label_of = [&](const sql::SelectItem& item) {
    return item.alias.empty() ? sql::PrintExpr(*item.expr) : item.alias;
  };

  // Order keys computed alongside projection.
  struct OutRow {
    Row projected;
    Row order_keys;
  };
  std::vector<OutRow> out_rows;

  if (block.aggregates) {
    // Group rows.
    std::unordered_map<Row, Group, RowHash, RowEq> groups;
    std::vector<Group*> group_order;  // first-seen order
    for (const Row& row : rows) {
      own.row = &row;
      Row key;
      for (const BoundExpr& g : block.group_by) {
        SFSQL_ASSIGN_OR_RETURN(Value v, Eval(g, env));
        key.push_back(std::move(v));
      }
      auto [it, inserted] = groups.try_emplace(std::move(key));
      if (inserted) {
        it->second.key = it->first;
        group_order.push_back(&it->second);
      }
      it->second.rows.push_back(&row);
    }
    if (stmt.group_by.empty() && groups.empty()) {
      // Global aggregate over an empty input still yields one group.
      group_order.push_back(&groups[Row{}]);
    }

    for (Group* group : group_order) {
      group->aggregates.resize(block.aggregate_calls.size());
      own = Frame{group->rows.empty() ? nullptr : group->rows[0],
                  offset_of.data(), group};
      if (block.having) {
        SFSQL_ASSIGN_OR_RETURN(Value v, Eval(*block.having, env));
        if (!Truthy(v)) continue;
      }
      OutRow out;
      for (const BoundExpr& item : block.select_items) {
        if (item.expr->kind == ExprKind::kStar) {
          return Status::ExecutionError("'*' cannot appear in an aggregate query");
        }
        SFSQL_ASSIGN_OR_RETURN(Value v, Eval(item, env));
        out.projected.push_back(std::move(v));
      }
      for (const BoundExpr& o : block.order_by) {
        SFSQL_ASSIGN_OR_RETURN(Value v, Eval(o, env));
        out.order_keys.push_back(std::move(v));
      }
      out_rows.push_back(std::move(out));
    }
    for (const sql::SelectItem& item : stmt.select_items) {
      result.columns.push_back(label_of(item));
    }
  } else {
    // Plain projection; a star expands its FROM entries in FROM order.
    for (size_t i = 0; i < stmt.select_items.size(); ++i) {
      for (int f : block.select_items[i].star_entries) {
        for (const catalog::Attribute& a :
             db_->catalog().relation(block.relation_ids[f]).attributes) {
          result.columns.push_back(StrCat(block.bindings[f], ".", a.name));
        }
      }
      if (stmt.select_items[i].expr->kind != ExprKind::kStar) {
        result.columns.push_back(label_of(stmt.select_items[i]));
      }
    }
    for (const Row& row : rows) {
      own.row = &row;
      OutRow out;
      for (const BoundExpr& item : block.select_items) {
        if (item.expr->kind == ExprKind::kStar) {
          for (int f : item.star_entries) {
            const auto first = row.begin() + offset_of[f];
            out.projected.insert(out.projected.end(), first,
                                 first + db_->table(block.relation_ids[f])
                                             .num_attrs());
          }
        } else {
          SFSQL_ASSIGN_OR_RETURN(Value v, Eval(item, env));
          out.projected.push_back(std::move(v));
        }
      }
      for (size_t j = 0; j < block.order_by.size(); ++j) {
        // ORDER BY may name a select alias.
        if (block.order_alias[j] >= 0) {
          out.order_keys.push_back(out.projected[block.order_alias[j]]);
          continue;
        }
        SFSQL_ASSIGN_OR_RETURN(Value v, Eval(block.order_by[j], env));
        out.order_keys.push_back(std::move(v));
      }
      out_rows.push_back(std::move(out));
    }
  }

  if (stmt.distinct) {
    std::unordered_set<Row, RowHash, RowEq> seen;
    std::vector<OutRow> unique;
    for (OutRow& out : out_rows) {
      if (seen.insert(out.projected).second) unique.push_back(std::move(out));
    }
    out_rows = std::move(unique);
  }

  if (!stmt.order_by.empty()) {
    std::stable_sort(out_rows.begin(), out_rows.end(),
                     [&](const OutRow& a, const OutRow& b) {
                       for (size_t i = 0; i < stmt.order_by.size(); ++i) {
                         int cmp = a.order_keys[i].Compare(b.order_keys[i]);
                         if (cmp != 0) {
                           return stmt.order_by[i].ascending ? cmp < 0 : cmp > 0;
                         }
                       }
                       return false;
                     });
  }

  if (stmt.limit.has_value() &&
      static_cast<int64_t>(out_rows.size()) > *stmt.limit) {
    out_rows.resize(*stmt.limit);
  }

  result.rows.reserve(out_rows.size());
  for (OutRow& out : out_rows) result.rows.push_back(std::move(out.projected));
  return result;
}

}  // namespace

std::string QueryResult::ToString() const {
  std::vector<size_t> widths(columns.size());
  for (size_t i = 0; i < columns.size(); ++i) widths[i] = columns[i].size();
  std::vector<std::vector<std::string>> cells;
  for (const Row& row : rows) {
    std::vector<std::string> line;
    for (size_t i = 0; i < row.size(); ++i) {
      line.push_back(row[i].ToString());
      if (i < widths.size()) widths[i] = std::max(widths[i], line.back().size());
    }
    cells.push_back(std::move(line));
  }
  std::string out;
  for (size_t i = 0; i < columns.size(); ++i) {
    out += columns[i];
    out.append(widths[i] - columns[i].size() + 2, ' ');
  }
  out += "\n";
  for (const auto& line : cells) {
    for (size_t i = 0; i < line.size(); ++i) {
      out += line[i];
      if (i < widths.size()) out.append(widths[i] - line[i].size() + 2, ' ');
    }
    out += "\n";
  }
  return out;
}

bool QueryResult::SameRows(const QueryResult& other) const {
  if (rows.size() != other.rows.size()) return false;
  std::unordered_map<Row, int, RowHash, RowEq> counts;
  for (const Row& r : rows) counts[r]++;
  for (const Row& r : other.rows) {
    auto it = counts.find(r);
    if (it == counts.end() || it->second == 0) return false;
    it->second--;
  }
  return true;
}

Executor::Executor(const storage::Database* db) : db_(db) {}

Executor::Executor(const storage::Database* db, const ExecConfig& config)
    : db_(db), config_(config) {}

Executor::~Executor() = default;

TaskPool* Executor::EffectivePool() {
  if (config_.exec_threads <= 1) return nullptr;
  if (config_.pool != nullptr) return config_.pool;
  std::lock_guard<std::mutex> lk(pool_mu_);
  if (owned_pool_ == nullptr) {
    owned_pool_ =
        std::make_unique<TaskPool>(static_cast<size_t>(config_.exec_threads) - 1);
  }
  return owned_pool_.get();
}

void Executor::EnableMetrics(obs::MetricsRegistry* registry,
                             const obs::Clock* clock) {
  if (registry == nullptr) {
    clock_ = nullptr;
    execute_total_ = execute_errors_ = execute_rows_ = nullptr;
    execute_seconds_ = nullptr;
    for (obs::Counter*& m : counter_metrics_) m = nullptr;
    return;
  }
  clock_ = obs::ClockOrSteady(clock);
  execute_total_ = registry->GetCounter("sfsql_execute_total",
                                        "Executed SELECT statements");
  execute_errors_ = registry->GetCounter("sfsql_execute_errors_total",
                                         "Executions that returned an error");
  execute_rows_ = registry->GetCounter("sfsql_execute_rows_total",
                                       "Result rows materialized");
  execute_seconds_ = registry->GetHistogram(
      "sfsql_execute_seconds", "Execution wall time", obs::LatencyBuckets());
  for (size_t i = 0; i < kNumExecCounters; ++i) {
    counter_metrics_[i] = registry->GetCounter(
        StrCat("sfsql_exec_", kExecCounters[i].name, "_total"),
        kExecCounters[i].help);
  }
}

Result<QueryResult> Executor::Execute(const sql::SelectStatement& stmt,
                                      ExecInfo* info) {
  const bool slow_armed = config_.slow_execute_threshold_ms > 0.0;
  const bool timing =
      execute_seconds_ != nullptr || info != nullptr || slow_armed;
  const obs::Clock* clock =
      clock_ != nullptr ? clock_ : obs::ClockOrSteady(config_.clock);
  const uint64_t start = timing ? clock->NowNanos() : 0;
  ExecStats stats;
  Result<QueryResult> out = QueryResult{};
  {
    // Pin every table's row count for the whole execution: IndexScan row ids
    // stay exactly valid (column_index.h staleness contract) and concurrent
    // inserts wait instead of racing the row vectors.
    auto lock = db_->ReadLock();
    // Pool tasks spawned below run strictly within this lock scope (the
    // ParallelFor barrier completes before the executor returns), so morsel
    // workers see the same pinned row counts as the caller.
    const Binding binding = Bind(db_->catalog(), stmt);
    BlockExecutor block(db_, &config_, binding, &stats, info, EffectivePool());
    out = block.ExecuteBlock(binding.root(), Env{});
  }
  const double seconds =
      timing ? obs::NanosToSeconds(clock->NowNanos() - start) : 0.0;
  for (size_t i = 0; i < kNumExecCounters; ++i) {
    totals_[i].fetch_add(stats.*kExecCounters[i].field,
                         std::memory_order_relaxed);
  }
  if (execute_seconds_ != nullptr) {
    execute_seconds_->Observe(seconds);
    execute_total_->Increment();
    if (out.ok()) {
      execute_rows_->Increment(out->rows.size());
    } else {
      execute_errors_->Increment();
    }
    for (size_t i = 0; i < kNumExecCounters; ++i) {
      counter_metrics_[i]->Increment(stats.*kExecCounters[i].field);
    }
  }
  if (info != nullptr) {
    info->stats = stats;
    info->rows_returned = out.ok() ? out->rows.size() : 0;
    info->seconds = seconds;
  }
  if (slow_armed && seconds * 1e3 >= config_.slow_execute_threshold_ms) {
    // One structured line per event, machine-parseable (unlike the slow
    // translate dump, there is no span tree to render — the stats are the
    // whole story).
    obs::JsonWriter w(/*pretty=*/false);
    w.BeginObject();
    w.KV("event", "slow_execute");
    w.KV("ms", seconds * 1e3);
    w.KV("threshold_ms", config_.slow_execute_threshold_ms);
    w.KV("sql", sql::PrintSelect(stmt));
    w.KV("ok", out.ok());
    w.KV("rows_returned",
         static_cast<unsigned long long>(out.ok() ? out->rows.size() : 0));
    for (const ExecCounter& c : kExecCounters) {
      w.KV(c.name, static_cast<unsigned long long>(stats.*c.field));
    }
    w.EndObject();
    std::string line = w.TakeString();
    line += '\n';
    if (config_.slow_log_sink) {
      config_.slow_log_sink(line);
    } else {
      std::fputs(line.c_str(), stderr);
    }
  }
  return out;
}

ExecStats Executor::stats() const {
  ExecStats s;
  for (size_t i = 0; i < kNumExecCounters; ++i) {
    s.*kExecCounters[i].field = totals_[i].load(std::memory_order_relaxed);
  }
  return s;
}

std::vector<TableAccessExplain> Executor::ExplainAccessPaths(
    const sql::SelectStatement& stmt) const {
  auto lock = db_->ReadLock();
  const Binding binding = Bind(db_->catalog(), stmt);
  ExecStats unused;
  BlockExecutor planner(db_, &config_, binding, &unused);
  Result<const BlockPlan*> plan = planner.Plan(binding.root());
  if (!plan.ok()) return {};
  return ExplainPlan(*db_, **plan);
}

Result<QueryResult> Executor::ExecuteSql(std::string_view sql_text) {
  SFSQL_ASSIGN_OR_RETURN(sql::SelectPtr stmt, sql::ParseSelect(sql_text));
  return Execute(*stmt);
}

}  // namespace sfsql::exec
