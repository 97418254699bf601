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
  std::vector<const uint32_t*> rows;  ///< its tuples, first-seen first
  std::vector<std::optional<Value>> aggregates;
};

/// One block's current tuple as its bound expressions read it. A tuple is
/// one row id per FROM entry, in FROM order; nothing is copied out of the
/// chunks until an expression reads it. A block at nesting level L evaluates
/// under an Env of L + 1 frames, its own last; a column ref reads
/// tables[from]->at(ids[from], attr) of env[level].
struct Frame {
  const uint32_t* ids = nullptr;  ///< null: an empty group (columns read NULL)
  const storage::Table* const* tables = nullptr;  ///< per FROM entry
  Group* group = nullptr;  ///< group mode: what the group slots read
};
using Env = std::vector<Frame>;

/// Row ids per tuple of `block`'s join fold: one per FROM entry. A block
/// without FROM keeps one unread id, so its one tuple has an address.
size_t TupleWidth(const BoundBlock& block) {
  return std::max<size_t>(1, block.relation_ids.size());
}

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

/// Pins the versions of every relation some block of `binding` reads: the
/// one database state the whole execution reads.
storage::Snapshot PinRelations(const storage::Database& db,
                               const Binding& binding) {
  std::vector<int> read;
  for (const auto& block : binding.blocks) {
    read.insert(read.end(), block->relation_ids.begin(),
                block->relation_ids.end());
  }
  return db.Pin(read);
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
  BlockExecutor(const storage::Snapshot* snapshot, const ExecConfig* config,
                const Binding& binding, ExecStats* stats,
                ExecInfo* info = nullptr, TaskPool* pool = nullptr)
      : snapshot_(snapshot),
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
  /// are literals). Cached row ids stay valid because the snapshot one
  /// BlockExecutor reads outlives it. EXPLAIN plans through here too.
  Result<const BlockPlan*> Plan(const BoundBlock& block) {
    std::optional<Result<BlockPlan>>& plan = plans_[block.id];
    if (!plan.has_value()) plan = PlanBlock(*snapshot_, block, *config_);
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
        if (f.ids == nullptr) return Value::Null_();
        return f.tables[b.from]->at(f.ids[b.from], b.attr);
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

  /// The aggregate `b` over `group`, folded in one pass: its argument runs
  /// once per tuple of the group, in the group's own frame. Only DISTINCT
  /// keeps the values it has seen.
  Result<Value> ComputeAggregate(const BoundExpr& b, const Group& group,
                                 const Env& env) {
    const Expr& call = *b.expr;
    const std::string& name = call.function_name;
    if (call.args.size() != 1) {
      return Status::ExecutionError(
          StrCat("aggregate '", name, "' takes one argument"));
    }
    const bool count = EqualsIgnoreCase(name, "count");
    if (count && call.args[0]->kind == ExprKind::kStar) {
      return Value::Int(static_cast<int64_t>(group.rows.size()));
    }
    const bool min = EqualsIgnoreCase(name, "min");
    const bool max = EqualsIgnoreCase(name, "max");
    Env row_env = env;
    Frame& own = row_env[b.level];
    own.group = nullptr;
    std::unordered_set<Row, RowHash, RowEq> seen;
    int64_t n = 0;  // non-NULL (and, under DISTINCT, unique) values
    Value best;     // min / max
    bool all_int = true;
    bool int_overflow = false;
    bool non_numeric = false;  // sum / avg: reported after every Eval error
    double dsum = 0;
    int64_t isum = 0;
    for (const uint32_t* ids : group.rows) {
      own.ids = ids;
      SFSQL_ASSIGN_OR_RETURN(Value v, Eval(b.args[0], row_env));
      if (v.is_null()) continue;
      if (call.distinct && !seen.insert(Row{v}).second) continue;
      if (++n == 1 && (min || max)) {
        best = std::move(v);
      } else if (min || max) {
        const int cmp = v.Compare(best);
        if ((min && cmp < 0) || (max && cmp > 0)) best = std::move(v);
      } else if (!count) {
        if (!v.is_numeric()) {
          non_numeric = true;
          continue;
        }
        if (!v.is_int()) all_int = false;
        dsum += v.AsDouble();
        if (v.is_int() && __builtin_add_overflow(isum, v.AsInt(), &isum)) {
          int_overflow = true;
        }
      }
    }
    if (count) return Value::Int(n);
    if (n == 0) return Value::Null_();
    if (min || max) return best;
    if (non_numeric) {
      return Status::TypeError(StrCat(ToLower(name), " needs numeric values"));
    }
    if (EqualsIgnoreCase(name, "sum")) {
      if (all_int && int_overflow) return IntegerOverflow();
      return all_int ? Value::Int(isum) : Value::Double(dsum);
    }
    return Value::Double(dsum / static_cast<double>(n));
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

  /// A morsel's private copy of the frames, its own frame reading the
  /// scratch tuple `ids`.
  struct MorselEnv {
    MorselEnv(const Env& outer, size_t width) : ids(width, 0), env(outer) {
      env.back().ids = ids.data();
    }
    std::vector<uint32_t> ids;
    Env env;
  };

  /// True if base row `id` of `tp`'s table passes its pushed conjuncts. They
  /// read that one FROM entry only, so they run against the id parked in
  /// `m`'s scratch tuple instead of once per joined tuple.
  Result<bool> PassesPushed(const BoundBlock& block, const TablePlan& tp,
                            uint32_t id, MorselEnv& m) {
    m.ids[tp.from_index] = id;
    for (int ci : tp.pushed) {
      SFSQL_ASSIGN_OR_RETURN(Value v, Eval(block.conjuncts[ci].expr, m.env));
      if (!Truthy(v)) return false;
    }
    return true;
  }

  /// The ids of `tp`'s base rows that pass its pushed conjuncts, ascending.
  /// An IndexScan starts from the plan's row ids (its one index predicate
  /// already satisfied); a scan walks the chunks, skipping every chunk the
  /// plan's statistics pass pruned. Without pushed conjuncts nothing is
  /// evaluated.
  Result<std::vector<uint32_t>> ScanBase(const BoundBlock& block,
                                         const TablePlan& tp, const Env& env);

  /// Runs the plan's join fold: base row ids per table, joined in plan order
  /// into tuples of TupleWidth(block) ids stored flat. `env` holds the
  /// block's frames, its own last (its `tables` set).
  Result<std::vector<uint32_t>> FoldJoin(const BoundBlock& block,
                                         const BlockPlan& plan, const Env& env);

  // --- morsel-parallel row loops ---
  //
  // The hot operators of the planned fold (scan + pushed filter, hash build
  // and probe, index nested-loop probe) all reduce to "run body(b, e) over
  // [0, n) and append body's output ids in range order". RowLoop runs that
  // shape on the task pool when parallelism is on and the input is big
  // enough, and as one plain call otherwise — so exec_threads == 1 never
  // touches a thread. Parallel invariants:
  //  * outputs and stats go to per-morsel slots, stitched/merged in morsel
  //    order after the barrier — results are bit-identical to serial and no
  //    hot-path counter is shared between workers;
  //  * bodies only evaluate planner-pushed conjuncts and join filters, which
  //    are subquery-free by construction (the planner routes any conjunct
  //    containing a subquery or star to the residual filter), so Eval never
  //    recurses into ExecuteBlock — and never mutates this object — from a
  //    worker thread;
  //  * workers read the versions the caller's Execute pinned, which stay
  //    alive until the ParallelFor barrier has passed;
  //  * on error, the lowest-indexed failing morsel's status is returned —
  //    the same error serial execution would have hit first.
  Status RowLoop(size_t n, size_t grain,
                 const std::function<Status(size_t, size_t,
                                            std::vector<uint32_t>&,
                                            ExecStats&)>& body,
                 std::vector<uint32_t>& out) {
    if (!ParallelEnabled() || n <= grain || grain == 0) {
      return body(0, n, out, *stats_);
    }
    const size_t morsels = (n + grain - 1) / grain;
    std::vector<std::vector<uint32_t>> outs(morsels);
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
    for (const std::vector<uint32_t>& o : outs) total += o.size();
    out.reserve(total);
    for (size_t m = 0; m < morsels; ++m) {
      out.insert(out.end(), outs[m].begin(), outs[m].end());
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

  const storage::Snapshot* snapshot_;
  const ExecConfig* config_;
  ExecStats* stats_;
  ExecInfo* info_;
  TaskPool* pool_ = nullptr;
  /// Per BoundBlock::id: the block's plan, and an uncorrelated block's one
  /// result.
  std::vector<std::optional<Result<BlockPlan>>> plans_;
  std::vector<std::optional<Result<QueryResult>>> once_;
};

Result<std::vector<uint32_t>> BlockExecutor::ScanBase(const BoundBlock& block,
                                                      const TablePlan& tp,
                                                      const Env& env) {
  const storage::Table& table = *env.back().tables[tp.from_index];
  const size_t width = TupleWidth(block);
  std::vector<uint32_t> base;
  if (tp.index_scan) {
    ++stats_->index_scans;
    stats_->rows_scanned += tp.row_ids.size();
    if (tp.pushed.empty()) {
      base = tp.row_ids;
    } else {
      auto scan_ids = [&](size_t b, size_t e, std::vector<uint32_t>& out,
                          ExecStats&) -> Status {
        MorselEnv m(env, width);
        for (size_t i = b; i < e; ++i) {
          SFSQL_ASSIGN_OR_RETURN(bool ok,
                                 PassesPushed(block, tp, tp.row_ids[i], m));
          if (ok) out.push_back(tp.row_ids[i]);
        }
        return Status::OK();
      };
      SFSQL_RETURN_IF_ERROR(
          RowLoop(tp.row_ids.size(), Grain(), scan_ids, base));
    }
  } else {
    ++stats_->table_scans;
    // Morsels are whole chunks (a grain below chunk_capacity rounds up to
    // one chunk per morsel); workers prune locally against the plan's
    // per-chunk verdicts and the id runs concatenate in chunk order.
    auto scan_chunks = [&](size_t cb, size_t ce, std::vector<uint32_t>& out,
                           ExecStats& st) -> Status {
      MorselEnv m(env, width);
      for (size_t c = cb; c < ce; ++c) {
        if (c < tp.pruned_chunks.size() && tp.pruned_chunks[c]) {
          ++st.chunks_pruned;
          continue;
        }
        const size_t first = c * table.chunk_capacity();
        const size_t end = first + table.chunk(c).size();
        st.rows_scanned += end - first;
        for (auto id = static_cast<uint32_t>(first); id < end; ++id) {
          if (!tp.pushed.empty()) {
            SFSQL_ASSIGN_OR_RETURN(bool ok, PassesPushed(block, tp, id, m));
            if (!ok) continue;
          }
          out.push_back(id);
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
  stats_->pushed_predicates += tp.pushed.size() + (tp.index_scan ? 1 : 0);
  return base;
}

Result<std::vector<uint32_t>> BlockExecutor::FoldJoin(const BoundBlock& block,
                                                      const BlockPlan& plan,
                                                      const Env& env) {
  const size_t n = plan.tables.size();
  const size_t width = TupleWidth(block);
  const storage::Table* const* tables = env.back().tables;

  // Fold in plan order — equi edges key the join, join filters run at the
  // step where their last table is placed.
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

  std::vector<uint32_t> acc(width, 0);  // fold identity: one tuple
  // The (FROM entry, attribute) columns the accumulated tuples are currently
  // sorted by (the output of a sort-merge step). Hash, index nested-loop, and
  // nested-loop steps all iterate the accumulated side in order and emit
  // per-tuple blocks, so they preserve it; a later sort-merge on exactly
  // these columns can skip its accumulated-side sort.
  std::vector<std::pair<int, int>> sorted_cols;
  for (size_t t = 0; t < n; ++t) {
    const TablePlan& tp = plan.tables[t];
    const int from = tp.from_index;
    const storage::Table& table = *tables[from];
    const size_t count = acc.size() / width;
    auto tuple = [&](size_t i) { return acc.data() + i * width; };

    struct EquiKey {
      int from;      // placed FROM entry
      int attr;      // its attribute
      int new_attr;  // attribute of the table this step places
    };
    std::vector<EquiKey> keys;
    for (const PlannedEquiJoin& e : plan.equi_joins) {
      const int ts = static_cast<int>(t);
      if (step_of[e.left_from] == ts && step_of[e.right_from] < ts) {
        keys.push_back(EquiKey{e.right_from, e.right_attr, e.left_attr});
      } else if (step_of[e.right_from] == ts && step_of[e.left_from] < ts) {
        keys.push_back(EquiKey{e.left_from, e.left_attr, e.right_attr});
      }
    }
    auto placed = [&](const uint32_t* tup, const EquiKey& k) -> const Value& {
      return tables[k.from]->at(tup[k.from], k.attr);
    };
    auto placed_null = [&](const uint32_t* tup) {
      for (const EquiKey& k : keys) {
        if (placed(tup, k).is_null()) return true;
      }
      return false;
    };
    const std::vector<const BoundExpr*>& filters = step_filters[t];

    std::vector<uint32_t> joined;
    // Appends `tup` extended by `id` at this step's FROM entry to `out` if
    // the join filters pass. `out`-parameterized so the parallel probe loops
    // can emit into their morsel's private vector; the join filters are
    // subquery-free (see RowLoop), so concurrent evaluation is safe.
    // `join_env` is the caller's (per-morsel) copy of the frames.
    auto emit = [&](const uint32_t* tup, uint32_t id,
                    std::vector<uint32_t>& out, Env& join_env) -> Status {
      const size_t at = out.size();
      out.insert(out.end(), tup, tup + width);
      out[at + from] = id;
      join_env.back().ids = out.data() + at;
      for (const BoundExpr* p : filters) {
        SFSQL_ASSIGN_OR_RETURN(Value v, Eval(*p, join_env));
        if (!Truthy(v)) {
          out.resize(at);
          break;
        }
      }
      return Status::OK();
    };
    Env step_env = env;

    // Index nested-loop join (the cost model's pick when the accumulated side
    // is small relative to the table): probe the join column's index once
    // per accumulated tuple instead of scanning + hash-building the whole
    // table. The cost model only picks it for tables the planner marked with
    // an index_join_attr. Probe row ids come back ascending, so emission order
    // matches the hash join exactly (per accumulated tuple, matches in table
    // order). `=` probes use Value::Compare equality, which coincides with
    // the hash join's Equals for non-nulls.
    if (tp.join_algo == JoinAlgo::kIndexNestedLoop) {
      ++stats_->index_joins;
      stats_->pushed_predicates += tp.pushed.size();
      const storage::ColumnIndex* idx = &table.Index(tp.index_join_attr);
      size_t probe_key = 0;
      while (keys[probe_key].new_attr != tp.index_join_attr) ++probe_key;
      // Probe morsels run in parallel over the accumulated tuples; per probe
      // the index returns ids ascending, so stitching morsels in order
      // reproduces the serial emission order exactly. `idx` was fetched above
      // on this thread (Table::Index may lazily build under a mutex);
      // workers only call its const read API.
      auto probe_index = [&](size_t b, size_t e, std::vector<uint32_t>& out,
                             ExecStats& st) -> Status {
        MorselEnv m(env, width);
        Env join_env = env;
        auto eq = storage::ColumnPredicate::Compare("=", Value::Null_());
        for (size_t ri = b; ri < e; ++ri) {
          const uint32_t* tup = tuple(ri);
          if (placed_null(tup)) continue;
          eq.values[0] = placed(tup, keys[probe_key]);
          for (uint32_t id : idx->Rows(eq)) {
            ++st.rows_scanned;
            bool match = true;
            for (size_t k = 0; k < keys.size() && match; ++k) {
              if (k == probe_key) continue;
              const Value& v = table.at(id, keys[k].new_attr);
              match = !v.is_null() && v.Equals(placed(tup, keys[k]));
            }
            if (!match) continue;
            SFSQL_ASSIGN_OR_RETURN(bool ok, PassesPushed(block, tp, id, m));
            if (!ok) continue;
            SFSQL_RETURN_IF_ERROR(emit(tup, id, out, join_env));
          }
        }
        return Status::OK();
      };
      // A probe emits about `fanout` tuples (the cost model's estimate), so a
      // morsel of Grain() / fanout probes emits about Grain() tuples.
      const double placed_rows = plan.tables[t - 1].est_rows_cumulative;
      const double fanout = tp.est_rows_cumulative / std::max(1.0, placed_rows);
      const size_t grain = static_cast<size_t>(
          std::max(1.0, static_cast<double>(Grain()) / std::max(1.0, fanout)));
      SFSQL_RETURN_IF_ERROR(RowLoop(count, grain, probe_index, joined));
      acc = std::move(joined);
      continue;
    }

    SFSQL_ASSIGN_OR_RETURN(std::vector<uint32_t> base,
                           ScanBase(block, tp, env));
    if (t == 0) {
      // The identity tuple times the base ids: no keys, no join filters.
      acc.assign(base.size() * width, 0);
      for (size_t i = 0; i < base.size(); ++i) acc[i * width + from] = base[i];
      continue;
    }
    auto fresh = [&](uint32_t id, const EquiKey& k) -> const Value& {
      return table.at(id, k.new_attr);
    };
    auto fresh_null = [&](uint32_t id) {
      for (const EquiKey& k : keys) {
        if (fresh(id, k).is_null()) return true;
      }
      return false;
    };
    if (!keys.empty() && tp.join_algo == JoinAlgo::kSortMerge) {
      // Sort-merge join: order both sides by the key columns and walk equal-
      // key groups with two pointers. Value::Compare is a total order whose
      // zero coincides with the hash join's key equality (int/double coerce
      // in both; distinct type ranks never compare equal), so the produced
      // multiset is identical to the hash join's. NULL keys never join.
      // Output emits in key order — the planner only chooses this operator
      // for reorder-safe blocks.
      ++stats_->sort_merge_joins;
      std::vector<std::pair<int, int>> left_cols;
      left_cols.reserve(keys.size());
      for (const EquiKey& k : keys) left_cols.emplace_back(k.from, k.attr);
      std::vector<uint32_t> lidx;  // accumulated tuple indices
      lidx.reserve(count);
      for (uint32_t i = 0; i < count; ++i) {
        if (!placed_null(tuple(i))) lidx.push_back(i);
      }
      std::vector<uint32_t> ridx;  // base row ids
      ridx.reserve(base.size());
      for (uint32_t id : base) {
        if (!fresh_null(id)) ridx.push_back(id);
      }
      auto cmp_lr = [&](uint32_t l, uint32_t r) {
        for (const EquiKey& k : keys) {
          int c = placed(tuple(l), k).Compare(fresh(r, k));
          if (c != 0) return c;
        }
        return 0;
      };
      auto cmp_ll = [&](uint32_t a, uint32_t b) {
        for (const EquiKey& k : keys) {
          int c = placed(tuple(a), k).Compare(placed(tuple(b), k));
          if (c != 0) return c;
        }
        return 0;
      };
      auto cmp_rr = [&](uint32_t a, uint32_t b) {
        for (const EquiKey& k : keys) {
          int c = fresh(a, k).Compare(fresh(b, k));
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
                  emit(tuple(lidx[i]), ridx[j], joined, step_env));
            }
          }
          li = le;
          ri = re;
        }
      }
      sorted_cols = std::move(left_cols);
    } else if (!keys.empty()) {
      // Hash join: build on the new (filtered) table, probe with the
      // accumulated tuples. NULL keys never join. In parallel, workers slice
      // the build side into per-morsel per-partition id lists, then each
      // partition's table is assembled by one worker walking the morsels in
      // order — so every bucket's match list is in build-side row order,
      // exactly like serial insertion. Probe morsels then hit the partitions
      // directly (same RowHash picks the partition and the bucket) and stitch
      // their outputs in accumulated-tuple order. Serially the same code runs
      // inline as one morsel and one partition. Keys are read into one
      // buffer per morsel; only a distinct build key is copied into the map.
      ++stats_->hash_joins;
      using BuildMap =
          std::unordered_map<Row, std::vector<uint32_t>, RowHash, RowEq>;
      const bool parallel =
          ParallelEnabled() && (base.size() > Grain() || count > Grain());
      const size_t partitions = parallel ? 64 : 1;
      const size_t grain =
          parallel ? Grain() : std::max<size_t>(1, base.size());
      auto partition_of = [partitions](const Row& key) -> size_t {
        return partitions == 1 ? 0 : RowHash{}(key) % partitions;
      };
      auto fresh_key = [&](uint32_t id, Row& key) {
        for (size_t k = 0; k < keys.size(); ++k) key[k] = fresh(id, keys[k]);
      };
      auto for_morsels = [&](size_t total, size_t step,
                             const std::function<void(size_t, size_t)>& body) {
        if (parallel) {
          pool_->ParallelFor(total, step, body);
        } else {
          body(0, total);
        }
      };
      const size_t bmorsels =
          std::max<size_t>(1, (base.size() + grain - 1) / grain);
      std::vector<std::vector<std::vector<uint32_t>>> parts(
          bmorsels, std::vector<std::vector<uint32_t>>(partitions));
      for_morsels(base.size(), grain, [&](size_t b, size_t e) {
        std::vector<std::vector<uint32_t>>& my = parts[b / grain];
        Row key(keys.size());
        for (size_t i = b; i < e; ++i) {
          if (fresh_null(base[i])) continue;
          fresh_key(base[i], key);
          my[partition_of(key)].push_back(base[i]);
        }
      });
      std::vector<BuildMap> build(partitions);
      for_morsels(partitions, 1, [&](size_t pb, size_t pe) {
        Row key(keys.size());
        for (size_t p = pb; p < pe; ++p) {
          for (size_t m = 0; m < bmorsels; ++m) {
            for (uint32_t id : parts[m][p]) {
              fresh_key(id, key);
              auto it = build[p].find(key);
              if (it == build[p].end()) it = build[p].try_emplace(key).first;
              it->second.push_back(id);
            }
          }
        }
      });
      auto probe_body = [&](size_t b, size_t e, std::vector<uint32_t>& out,
                            ExecStats&) -> Status {
        Env join_env = env;
        Row probe(keys.size());
        for (size_t i = b; i < e; ++i) {
          const uint32_t* tup = tuple(i);
          if (placed_null(tup)) continue;
          for (size_t k = 0; k < keys.size(); ++k) {
            probe[k] = placed(tup, keys[k]);
          }
          const BuildMap& part = build[partition_of(probe)];
          auto it = part.find(probe);
          if (it == part.end()) continue;
          for (uint32_t id : it->second) {
            SFSQL_RETURN_IF_ERROR(emit(tup, id, out, join_env));
          }
        }
        return Status::OK();
      };
      SFSQL_RETURN_IF_ERROR(RowLoop(count, Grain(), probe_body, joined));
    } else {
      for (size_t i = 0; i < count; ++i) {
        for (uint32_t id : base) {
          SFSQL_RETURN_IF_ERROR(emit(tuple(i), id, joined, step_env));
        }
      }
    }
    acc = std::move(joined);
  }
  return acc;
}

Result<QueryResult> BlockExecutor::ExecuteBlock(const BoundBlock& block,
                                                Env env) {
  const SelectStatement& stmt = *block.stmt;
  const bool root = block.level == 0;
  SFSQL_ASSIGN_OR_RETURN(const BlockPlan* planned, Plan(block));
  const BlockPlan& plan = *planned;
  if (root && info_ != nullptr) {
    info_->access_paths = ExplainPlan(snapshot_->catalog(), plan);
  }
  // The block's own frame goes last; every tuple loop below repoints it.
  std::vector<const storage::Table*> tables;
  for (int rel : block.relation_ids) tables.push_back(&snapshot_->table(rel));
  env.push_back(Frame{nullptr, tables.data(), nullptr});
  Frame& own = env.back();
  SFSQL_ASSIGN_OR_RETURN(std::vector<uint32_t> tuples,
                         FoldJoin(block, plan, env));
  const size_t width = TupleWidth(block);
  if (root && info_ != nullptr) {
    // Estimated vs actual rows out of the join fold, both pre-residual —
    // the q-error the cost model is judged on.
    info_->estimated_join_rows = plan.estimated_output_rows;
    info_->actual_join_rows = tuples.size() / width;
    info_->has_join_actuals = true;
  }

  // Final filter: conjuncts the fold did not consume (subqueries,
  // outer-correlated predicates, OR trees). Survivors compact in place.
  if (!plan.residual.empty()) {
    size_t kept = 0;
    for (size_t at = 0; at < tuples.size(); at += width) {
      own.ids = tuples.data() + at;
      bool pass = true;
      for (int ci : plan.residual) {
        SFSQL_ASSIGN_OR_RETURN(Value v, Eval(block.conjuncts[ci].expr, env));
        if (!Truthy(v)) {
          pass = false;
          break;
        }
      }
      if (!pass) continue;
      if (kept != at) {
        std::copy_n(tuples.begin() + at, width, tuples.begin() + kept);
      }
      kept += width;
    }
    tuples.resize(kept);
  }

  QueryResult result;

  // Column labels, and where each select item's value lands in a result row
  // (a star before it expands to several columns).
  std::vector<size_t> position;
  auto label_of = [&](const sql::SelectItem& item) {
    return item.alias.empty() ? sql::PrintExpr(*item.expr) : item.alias;
  };
  for (size_t i = 0; i < stmt.select_items.size(); ++i) {
    for (int f : block.select_items[i].star_entries) {
      for (const catalog::Attribute& a :
           snapshot_->catalog().relation(block.relation_ids[f]).attributes) {
        result.columns.push_back(StrCat(block.bindings[f], ".", a.name));
      }
    }
    position.push_back(result.columns.size());
    if (stmt.select_items[i].expr->kind != ExprKind::kStar ||
        block.aggregates) {
      result.columns.push_back(label_of(stmt.select_items[i]));
    }
  }

  // Order keys computed alongside projection.
  struct OutRow {
    Row projected;
    Row order_keys;
  };
  std::vector<OutRow> out_rows;
  // Projects the current frame: the select items (a star expands its FROM
  // entries in FROM order), then the ORDER BY keys — one naming a select
  // alias reads that item's value.
  auto project = [&]() -> Status {
    OutRow out;
    for (const BoundExpr& item : block.select_items) {
      if (item.expr->kind == ExprKind::kStar) {
        if (block.aggregates) {
          return Status::ExecutionError(
              "'*' cannot appear in an aggregate query");
        }
        for (int f : item.star_entries) {
          for (size_t a = 0; a < tables[f]->num_attrs(); ++a) {
            out.projected.push_back(tables[f]->at(own.ids[f], a));
          }
        }
        continue;
      }
      SFSQL_ASSIGN_OR_RETURN(Value v, Eval(item, env));
      out.projected.push_back(std::move(v));
    }
    for (size_t j = 0; j < block.order_by.size(); ++j) {
      if (block.order_alias[j] >= 0) {
        out.order_keys.push_back(out.projected[position[block.order_alias[j]]]);
        continue;
      }
      SFSQL_ASSIGN_OR_RETURN(Value v, Eval(block.order_by[j], env));
      out.order_keys.push_back(std::move(v));
    }
    out_rows.push_back(std::move(out));
    return Status::OK();
  };

  if (block.aggregates) {
    // Group the tuples; without GROUP BY they form one group, empty or not.
    std::unordered_map<Row, Group, RowHash, RowEq> groups;
    std::vector<Group*> group_order;  // first-seen order
    if (block.group_by.empty()) {
      Group& all = groups[Row{}];
      all.rows.reserve(tuples.size() / width);
      for (size_t at = 0; at < tuples.size(); at += width) {
        all.rows.push_back(tuples.data() + at);
      }
      group_order.push_back(&all);
    } else {
      Row key;
      for (size_t at = 0; at < tuples.size(); at += width) {
        own.ids = tuples.data() + at;
        key.clear();
        for (const BoundExpr& g : block.group_by) {
          SFSQL_ASSIGN_OR_RETURN(Value v, Eval(g, env));
          key.push_back(std::move(v));
        }
        auto it = groups.find(key);
        if (it == groups.end()) {
          it = groups.try_emplace(key).first;
          it->second.key = key;
          group_order.push_back(&it->second);
        }
        it->second.rows.push_back(own.ids);
      }
    }

    for (Group* group : group_order) {
      group->aggregates.resize(block.aggregate_calls.size());
      own = Frame{group->rows.empty() ? nullptr : group->rows[0],
                  tables.data(), group};
      if (block.having) {
        SFSQL_ASSIGN_OR_RETURN(Value v, Eval(*block.having, env));
        if (!Truthy(v)) continue;
      }
      SFSQL_RETURN_IF_ERROR(project());
    }
  } else {
    for (size_t at = 0; at < tuples.size(); at += width) {
      own.ids = tuples.data() + at;
      SFSQL_RETURN_IF_ERROR(project());
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
    const Binding binding = Bind(db_->catalog(), stmt);
    const storage::Snapshot snapshot = PinRelations(*db_, binding);
    BlockExecutor block(&snapshot, &config_, binding, &stats, info,
                        EffectivePool());
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
  const Binding binding = Bind(db_->catalog(), stmt);
  const storage::Snapshot snapshot = PinRelations(*db_, binding);
  ExecStats unused;
  BlockExecutor planner(&snapshot, &config_, binding, &unused);
  Result<const BlockPlan*> plan = planner.Plan(binding.root());
  if (!plan.ok()) return {};
  return ExplainPlan(db_->catalog(), **plan);
}

Result<QueryResult> Executor::ExecuteSql(std::string_view sql_text) {
  SFSQL_ASSIGN_OR_RETURN(sql::SelectPtr stmt, sql::ParseSelect(sql_text));
  return Execute(*stmt);
}

}  // namespace sfsql::exec
