#include "exec/executor.h"

#include <algorithm>
#include <functional>
#include <limits>
#include <numeric>
#include <optional>
#include <unordered_map>
#include <unordered_set>

#include "common/macros.h"
#include "common/strings.h"
#include "exec/binder.h"
#include "exec/like.h"
#include "exec/task_pool.h"
#include "obs/clock.h"
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
/// values) followed by `aggregates`, each computed on first use. Its tuples,
/// first-seen first, are `rows`; a global aggregate's one group lists none
/// and reads the whole join fold output in place: `count` tuples of `width`
/// ids from `all`.
struct Group {
  Row key;
  std::vector<const uint32_t*> rows;
  const uint32_t* all = nullptr;
  size_t count = 0;
  size_t width = 0;
  std::vector<std::optional<Value>> aggregates;

  size_t size() const { return all != nullptr ? count : rows.size(); }
  const uint32_t* tuple(size_t i) const {
    return all != nullptr ? all + i * width : rows[i];
  }
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

/// True if no node of `b` is a subquery, so evaluating it never reenters
/// ExecuteBlock and a pool worker may run it (see RowLoop).
bool SubqueryFree(const BoundExpr& b) {
  if (b.subquery != nullptr) return false;
  if (b.lhs && !SubqueryFree(*b.lhs)) return false;
  if (b.rhs && !SubqueryFree(*b.rhs)) return false;
  return std::all_of(b.args.begin(), b.args.end(), SubqueryFree);
}

/// True if `b` is a bound column ref, which ColumnAt reads in place.
bool InPlace(const BoundExpr& b) {
  return b.group_slot < 0 && b.expr->kind == ExprKind::kColumnRef &&
         b.error.ok();
}

/// The value bound column ref `b` reads under `env`, in place in its chunk
/// (NULL in an empty group's frame).
const Value& ColumnAt(const BoundExpr& b, const Env& env) {
  static const Value kNull;
  const Frame& f = env[b.level];
  if (f.ids == nullptr) return kNull;
  return f.tables[b.from]->at(f.ids[b.from], b.attr);
}

// ---------------------------------------------------------------------------
// Aggregate folds
// ---------------------------------------------------------------------------

enum class AggFn { kCount, kSum, kAvg, kMin, kMax };

/// The function of an aggregate call (the binder only slots the five).
AggFn AggFnOf(const std::string& name) {
  if (EqualsIgnoreCase(name, "count")) return AggFn::kCount;
  if (EqualsIgnoreCase(name, "sum")) return AggFn::kSum;
  if (EqualsIgnoreCase(name, "min")) return AggFn::kMin;
  if (EqualsIgnoreCase(name, "max")) return AggFn::kMax;
  return AggFn::kAvg;
}

/// Integers up to this magnitude are exact as doubles: an integer AVG whose
/// values and running sums stay inside it has the exact sum as its double
/// sum, whatever the order of addition.
constexpr __int128 kExactDouble = __int128{1} << 53;

/// One aggregate's fold over a run of a group's tuples: a morsel's partial
/// state, or the one in-order pass. Partials merge in morsel order into the
/// serial state: counts add, the first-seen extreme wins under strict
/// comparison, and an integer sum is exact in 128 bits with its lowest and
/// highest running prefix, which tell an int64 overflow (SUM) and an
/// inexact double sum (AVG) just as the serial prefixes would. Only the
/// double sum `dsum` depends on the order of addition: a partial stops at
/// the first value that needs it (`reorder`), and the caller runs the
/// in-order pass instead.
struct AggState {
  int64_t n = 0;  ///< non-NULL values (under DISTINCT, distinct ones)
  Value best;     ///< MIN / MAX
  bool non_numeric = false;  ///< SUM / AVG: reported after every Eval error
  bool all_int = true;
  bool wide = false;  ///< AVG: an integer beyond kExactDouble
  __int128 sum = 0;
  __int128 low = 0;   ///< lowest running prefix of `sum`
  __int128 high = 0;  ///< highest running prefix of `sum`
  double dsum = 0;    ///< in-order double sum
  bool reorder = false;
  std::unordered_set<Row, RowHash, RowEq> seen;  ///< DISTINCT

  void Add(const Value& v, AggFn fn, bool distinct, bool in_order) {
    if (v.is_null()) return;
    if (distinct && !seen.insert(Row{v}).second) return;
    if (++n == 1 && (fn == AggFn::kMin || fn == AggFn::kMax)) {
      best = v;
      return;
    }
    switch (fn) {
      case AggFn::kCount:
        return;
      case AggFn::kMin:
        if (v.Compare(best) < 0) best = v;
        return;
      case AggFn::kMax:
        if (v.Compare(best) > 0) best = v;
        return;
      case AggFn::kSum:
      case AggFn::kAvg:
        break;
    }
    if (!v.is_numeric()) {
      non_numeric = true;
      return;
    }
    dsum += v.AsDouble();
    if (!v.is_int()) {
      all_int = false;
      reorder = !in_order;
      return;
    }
    const int64_t i = v.AsInt();
    sum += i;
    low = std::min(low, sum);
    high = std::max(high, sum);
    if (fn == AggFn::kAvg && (i > kExactDouble || i < -kExactDouble)) {
      wide = true;
      reorder = !in_order;
    }
  }

  /// Folds in the partial of the run right after this state's.
  void Merge(const AggState& later, AggFn fn) {
    if (later.n == 0) return;
    if (n == 0 || (fn == AggFn::kMin && later.best.Compare(best) < 0) ||
        (fn == AggFn::kMax && later.best.Compare(best) > 0)) {
      best = later.best;
    }
    n += later.n;
    non_numeric = non_numeric || later.non_numeric;
    all_int = all_int && later.all_int;
    wide = wide || later.wide;
    low = std::min(low, sum + later.low);
    high = std::max(high, sum + later.high);
    sum += later.sum;
  }

  /// True if an integer AVG's double sum equals its exact sum.
  bool ExactAvg() const {
    return all_int && !wide && low >= -kExactDouble && high <= kExactDouble;
  }

  /// True if the result reads `dsum`, which merged partials do not give.
  bool NeedsInOrder(AggFn fn) const {
    if (n == 0 || non_numeric) return false;
    return (fn == AggFn::kSum && !all_int) ||
           (fn == AggFn::kAvg && !ExactAvg());
  }

  Result<Value> Finish(AggFn fn, const std::string& name) const {
    if (fn == AggFn::kCount) return Value::Int(n);
    if (n == 0) return Value::Null_();
    if (fn == AggFn::kMin || fn == AggFn::kMax) return best;
    if (non_numeric) {
      return Status::TypeError(StrCat(ToLower(name), " needs numeric values"));
    }
    if (fn == AggFn::kSum) {
      if (!all_int) return Value::Double(dsum);
      if (low < std::numeric_limits<int64_t>::min() ||
          high > std::numeric_limits<int64_t>::max()) {
        return IntegerOverflow();
      }
      return Value::Int(static_cast<int64_t>(sum));
    }
    const double total = ExactAvg() ? static_cast<double>(sum) : dsum;
    return Value::Double(total / static_cast<double>(n));
  }
};

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
      case ExprKind::kColumnRef:
        if (!b.error.ok()) return b.error;
        return ColumnAt(b, env);
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

  /// The aggregate `b` over `group`. Its argument runs once per tuple in
  /// the group's own frame, and a column ref is read in place. The tuples
  /// fold in morsels of Grain() into partial AggStates merged in morsel
  /// order: on the pool when parallelism is on and the argument is
  /// subquery-free, inline otherwise. What partials cannot give runs the one
  /// in-order pass: DISTINCT, an argument with a subquery, and a SUM or AVG
  /// whose result is its double sum. The error returned is the one the
  /// in-order pass meets first.
  Result<Value> ComputeAggregate(const BoundExpr& b, const Group& group,
                                 const Env& env) {
    const Expr& call = *b.expr;
    const std::string& name = call.function_name;
    if (call.args.size() != 1) {
      return Status::ExecutionError(
          StrCat("aggregate '", name, "' takes one argument"));
    }
    const AggFn fn = AggFnOf(name);
    if (fn == AggFn::kCount && call.args[0]->kind == ExprKind::kStar) {
      return Value::Int(static_cast<int64_t>(group.size()));
    }
    const size_t n = group.size();
    const bool in_order = call.distinct || !SubqueryFree(b.args[0]);
    const size_t grain = in_order ? std::max<size_t>(1, n) : Grain();
    const size_t morsels = std::max<size_t>(1, (n + grain - 1) / grain);
    std::vector<AggState> parts(morsels);
    std::vector<Status> statuses(morsels);
    ForMorsels(n, grain, !in_order, [&](size_t m, size_t lo, size_t hi) {
      statuses[m] =
          FoldAggregate(b, fn, group, lo, hi, env, morsels == 1, parts[m]);
      return statuses[m].ok() && !parts[m].reorder;
    });
    bool redo = false;
    for (size_t m = 0; m < morsels && !redo; ++m) {
      redo = parts[m].reorder;
      if (!redo && !statuses[m].ok()) return statuses[m];
    }
    AggState total;
    if (morsels == 1) {
      total = std::move(parts[0]);
    } else if (!redo) {
      for (const AggState& part : parts) total.Merge(part, fn);
      redo = total.NeedsInOrder(fn);
    }
    if (redo) {
      total = AggState{};
      SFSQL_RETURN_IF_ERROR(FoldAggregate(b, fn, group, 0, n, env,
                                          /*in_order=*/true, total));
    }
    return total.Finish(fn, name);
  }

  /// Folds tuples [begin, end) of `group` into `st`, stopping early once a
  /// partial (not `in_order`) meets a value only the in-order pass sums.
  Status FoldAggregate(const BoundExpr& b, AggFn fn, const Group& group,
                       size_t begin, size_t end, const Env& env,
                       bool in_order, AggState& st) {
    const BoundExpr& arg = b.args[0];
    const bool distinct = b.expr->distinct;
    const bool in_place = InPlace(arg);
    Env row_env = env;
    Frame& own = row_env[b.level];
    own.group = nullptr;
    for (size_t i = begin; i < end && !st.reorder; ++i) {
      own.ids = group.tuple(i);
      if (in_place) {
        st.Add(ColumnAt(arg, row_env), fn, distinct, in_order);
        continue;
      }
      SFSQL_ASSIGN_OR_RETURN(Value v, Eval(arg, row_env));
      st.Add(v, fn, distinct, in_order);
    }
    return Status::OK();
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

  /// True if base row `id` of `tp`'s table passes its pushed conjuncts: the
  /// kernels' rules on its values, then the rest. They read that one FROM
  /// entry only, so they run against the id parked in `m`'s scratch tuple
  /// instead of once per joined tuple.
  Result<bool> PassesPushed(const BoundBlock& block, const TablePlan& tp,
                            uint32_t id, MorselEnv& m) {
    const storage::Table& table = *m.env.back().tables[tp.from_index];
    for (const PushedKernel& k : tp.kernels) {
      if (!k.filter.Keeps(table.at(id, k.attr_index))) return false;
    }
    return PassesEvaluated(block, tp, id, m);
  }

  /// PassesPushed without the kernels: Eval of the rest of `tp.pushed`.
  Result<bool> PassesEvaluated(const BoundBlock& block, const TablePlan& tp,
                               uint32_t id, MorselEnv& m) {
    m.ids[tp.from_index] = id;
    for (size_t i = tp.kernels.size(); i < tp.pushed.size(); ++i) {
      SFSQL_ASSIGN_OR_RETURN(
          Value v, Eval(block.conjuncts[tp.pushed[i]].expr, m.env));
      if (!Truthy(v)) return false;
    }
    return true;
  }

  /// Appends to `out`, ascending, the ids `first + sel[i]` of one chunk's
  /// candidate rows (`sel`: ascending offsets in `chunk`) that pass `tp`'s
  /// pushed conjuncts: each kernel narrows `sel` over its column, then the
  /// rest run row by row on the survivors.
  Status FilterChunk(const BoundBlock& block, const TablePlan& tp,
                     const storage::Chunk& chunk, uint32_t first,
                     std::vector<uint32_t>& sel, MorselEnv& m,
                     std::vector<uint32_t>& out) {
    size_t n = sel.size();
    for (const PushedKernel& k : tp.kernels) {
      n = k.filter.Narrow(chunk.column(k.attr_index), sel.data(), n);
    }
    const bool evaluated = tp.kernels.size() < tp.pushed.size();
    for (size_t i = 0; i < n; ++i) {
      const uint32_t id = first + sel[i];
      if (evaluated) {
        SFSQL_ASSIGN_OR_RETURN(bool ok, PassesEvaluated(block, tp, id, m));
        if (!ok) continue;
      }
      out.push_back(id);
    }
    return Status::OK();
  }

  /// Groups `tuples` (the block's own, TupleWidth(block) ids each) by the
  /// GROUP BY keys into `groups`, listing each new group in `order`. Morsels
  /// of Grain() tuples key into maps of their own, merged in morsel order,
  /// so the group order and each group's tuple order are the serial ones.
  Status GroupTuples(const BoundBlock& block,
                     const std::vector<uint32_t>& tuples, const Env& env,
                     std::unordered_map<Row, Group, RowHash, RowEq>& groups,
                     std::vector<Group*>& order);

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
  // touches a thread. The grouping pass and the aggregate folds run on
  // ForMorsels below, into per-morsel maps and partial states. Parallel
  // invariants:
  //  * outputs and stats go to per-morsel slots, stitched/merged in morsel
  //    order after the barrier — results are bit-identical to serial and no
  //    hot-path counter is shared between workers;
  //  * bodies only evaluate subquery-free expressions: planner-pushed
  //    conjuncts and join filters are so by construction (the planner
  //    routes any conjunct containing a subquery or star to the residual
  //    filter), and GROUP BY keys and aggregate arguments fan out only when
  //    SubqueryFree says so. So Eval never recurses into ExecuteBlock — and
  //    never mutates this object — from a worker thread;
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
    ForMorsels(n, grain, /*parallel_ok=*/true,
               [&](size_t m, size_t b, size_t e) {
                 statuses[m] = body(b, e, outs[m], deltas[m]);
                 return true;
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

  /// Runs body(m, begin, end) over the morsels of [0, n), the m-th being
  /// [m * grain, min(n, (m + 1) * grain)): on the pool when parallelism is
  /// on, `parallel_ok` holds and there are several morsels; inline in
  /// morsel order otherwise, stopping after the first body that returns
  /// false. Bodies write only their own morsel's slots.
  void ForMorsels(size_t n, size_t grain, bool parallel_ok,
                  const std::function<bool(size_t, size_t, size_t)>& body) {
    if (ParallelEnabled() && parallel_ok && n > grain) {
      pool_->ParallelFor(n, grain, [&](size_t b, size_t e) {
        body(b / grain, b, e);
      });
      return;
    }
    for (size_t b = 0; b < n; b += grain) {
      if (!body(b / grain, b, std::min(n, b + grain))) return;
    }
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
  const size_t capacity = table.chunk_capacity();
  std::vector<uint32_t> base;
  if (tp.index_scan) {
    ++stats_->index_scans;
    stats_->rows_scanned += tp.row_ids.size();
    if (tp.pushed.empty()) {
      base = tp.row_ids;
    } else {
      // The morsel's ids filter one chunk run at a time.
      auto scan_ids = [&](size_t b, size_t e, std::vector<uint32_t>& out,
                          ExecStats&) -> Status {
        MorselEnv m(env, width);
        std::vector<uint32_t> sel;
        for (size_t i = b; i < e;) {
          const size_t c = tp.row_ids[i] / capacity;
          const auto first = static_cast<uint32_t>(c * capacity);
          sel.clear();
          for (; i < e && tp.row_ids[i] / capacity == c; ++i) {
            sel.push_back(tp.row_ids[i] - first);
          }
          SFSQL_RETURN_IF_ERROR(
              FilterChunk(block, tp, table.chunk(c), first, sel, m, out));
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
      std::vector<uint32_t> sel;
      for (size_t c = cb; c < ce; ++c) {
        if (c < tp.pruned_chunks.size() && tp.pruned_chunks[c]) {
          ++st.chunks_pruned;
          continue;
        }
        const storage::Chunk& chunk = table.chunk(c);
        const auto first = static_cast<uint32_t>(c * capacity);
        st.rows_scanned += chunk.size();
        if (tp.pushed.empty()) {
          for (uint32_t id = first; id < first + chunk.size(); ++id) {
            out.push_back(id);
          }
          continue;
        }
        sel.resize(chunk.size());
        std::iota(sel.begin(), sel.end(), 0);
        SFSQL_RETURN_IF_ERROR(
            FilterChunk(block, tp, chunk, first, sel, m, out));
      }
      return Status::OK();
    };
    const size_t chunks_per_morsel = std::max<size_t>(1, Grain() / capacity);
    SFSQL_RETURN_IF_ERROR(
        RowLoop(table.num_chunks(), chunks_per_morsel, scan_chunks, base));
  }
  stats_->rows_pruned += table.num_rows() - base.size();
  stats_->pushed_predicates += tp.pushed.size() + (tp.index_scan ? 1 : 0);
  return base;
}

Status BlockExecutor::GroupTuples(
    const BoundBlock& block, const std::vector<uint32_t>& tuples,
    const Env& env, std::unordered_map<Row, Group, RowHash, RowEq>& groups,
    std::vector<Group*>& order) {
  using TupleLists =
      std::unordered_map<Row, std::vector<const uint32_t*>, RowHash, RowEq>;
  struct MorselGroups {
    TupleLists lists;
    std::vector<TupleLists::value_type*> order;  // first-seen
  };
  const size_t width = TupleWidth(block);
  const size_t n = tuples.size() / width;
  const size_t grain = Grain();
  const bool parallel_ok = std::all_of(block.group_by.begin(),
                                       block.group_by.end(), SubqueryFree);
  std::vector<MorselGroups> parts((n + grain - 1) / grain);
  std::vector<Status> statuses(parts.size());
  auto key_morsel = [&](size_t m, size_t lo, size_t hi) -> Status {
    MorselGroups& my = parts[m];
    Env key_env = env;
    Frame& own = key_env.back();
    Row key(block.group_by.size());
    for (size_t i = lo; i < hi; ++i) {
      own.ids = tuples.data() + i * width;
      for (size_t k = 0; k < key.size(); ++k) {
        const BoundExpr& g = block.group_by[k];
        if (InPlace(g)) {
          key[k] = ColumnAt(g, key_env);
        } else {
          SFSQL_ASSIGN_OR_RETURN(key[k], Eval(g, key_env));
        }
      }
      auto [it, fresh] = my.lists.try_emplace(key);
      if (fresh) my.order.push_back(&*it);
      it->second.push_back(own.ids);
    }
    return Status::OK();
  };
  ForMorsels(n, grain, parallel_ok, [&](size_t m, size_t lo, size_t hi) {
    statuses[m] = key_morsel(m, lo, hi);
    return statuses[m].ok();
  });
  for (const Status& s : statuses) SFSQL_RETURN_IF_ERROR(s);
  for (MorselGroups& part : parts) {
    for (TupleLists::value_type* list : part.order) {
      auto [it, fresh] = groups.try_emplace(list->first);
      Group& group = it->second;
      if (fresh) {
        group.key = list->first;
        order.push_back(&group);
      }
      if (group.rows.empty()) {
        group.rows = std::move(list->second);
      } else {
        group.rows.insert(group.rows.end(), list->second.begin(),
                          list->second.end());
      }
    }
  }
  return Status::OK();
}

Result<std::vector<uint32_t>> BlockExecutor::FoldJoin(const BoundBlock& block,
                                                      const BlockPlan& plan,
                                                      const Env& env) {
  const size_t n = plan.tables.size();
  const size_t width = TupleWidth(block);
  const storage::Table* const* tables = env.back().tables;

  // Fold in plan order. Each step reads its keys, join filters, algorithm
  // and presort from its TablePlan; the planner decided them all.
  std::vector<uint32_t> acc(width, 0);  // fold identity: one tuple
  for (size_t t = 0; t < n; ++t) {
    const TablePlan& tp = plan.tables[t];
    const int from = tp.from_index;
    const storage::Table& table = *tables[from];
    const size_t count = acc.size() / width;
    auto tuple = [&](size_t i) { return acc.data() + i * width; };

    const std::vector<JoinKey>& keys = tp.keys;
    auto placed = [&](const uint32_t* tup, const JoinKey& k) -> const Value& {
      return tables[k.placed_from]->at(tup[k.placed_from], k.placed_attr);
    };
    auto placed_null = [&](const uint32_t* tup) {
      for (const JoinKey& k : keys) {
        if (placed(tup, k).is_null()) return true;
      }
      return false;
    };

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
      for (int ci : tp.join_filters) {
        SFSQL_ASSIGN_OR_RETURN(Value v,
                               Eval(block.conjuncts[ci].expr, join_env));
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
    // table. The probe column is keys[0]; the other keys are verified per
    // probed row. Probe row ids come back ascending, so emission order
    // matches the hash join exactly (per accumulated tuple, matches in table
    // order). `=` probes use Value::Compare equality, which coincides with
    // the hash join's Equals for non-nulls.
    if (tp.join_algo == JoinAlgo::kIndexNestedLoop) {
      ++stats_->index_joins;
      stats_->pushed_predicates += tp.pushed.size();
      const storage::ColumnIndex* idx = &table.Index(keys[0].attr);
      // Probe morsels run in parallel over the accumulated tuples; per probe
      // the index returns ids ascending, so stitching morsels in order
      // reproduces the serial emission order exactly. `idx` was fetched above
      // on this thread (Table::Index may lazily build under a mutex);
      // workers only call its const read API.
      auto probe_index = [&](size_t b, size_t e, std::vector<uint32_t>& out,
                             ExecStats& st) -> Status {
        MorselEnv m(env, width);
        Env join_env = env;
        auto eq = storage::ColumnPredicate::Compare(
            storage::ColumnPredicate::Op::kEq, Value::Null_());
        for (size_t ri = b; ri < e; ++ri) {
          const uint32_t* tup = tuple(ri);
          if (placed_null(tup)) continue;
          eq.values[0] = placed(tup, keys[0]);
          for (uint32_t id : idx->Rows(eq)) {
            ++st.rows_scanned;
            bool match = true;
            for (size_t k = 1; k < keys.size() && match; ++k) {
              const Value& v = table.at(id, keys[k].attr);
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
    auto fresh = [&](uint32_t id, const JoinKey& k) -> const Value& {
      return table.at(id, k.attr);
    };
    auto fresh_null = [&](uint32_t id) {
      for (const JoinKey& k : keys) {
        if (fresh(id, k).is_null()) return true;
      }
      return false;
    };
    if (tp.join_algo == JoinAlgo::kSortMerge) {
      // Sort-merge join: order both sides by the key columns and walk equal-
      // key groups with two pointers. Value::Compare is a total order whose
      // zero coincides with the hash join's key equality (int/double coerce
      // in both; distinct type ranks never compare equal), so the produced
      // multiset is identical to the hash join's. NULL keys never join.
      // Output emits in key order — the planner only chooses this operator
      // for reorder-safe blocks.
      ++stats_->sort_merge_joins;
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
        for (const JoinKey& k : keys) {
          int c = placed(tuple(l), k).Compare(fresh(r, k));
          if (c != 0) return c;
        }
        return 0;
      };
      auto cmp_ll = [&](uint32_t a, uint32_t b) {
        for (const JoinKey& k : keys) {
          int c = placed(tuple(a), k).Compare(placed(tuple(b), k));
          if (c != 0) return c;
        }
        return 0;
      };
      auto cmp_rr = [&](uint32_t a, uint32_t b) {
        for (const JoinKey& k : keys) {
          int c = fresh(a, k).Compare(fresh(b, k));
          if (c != 0) return c;
        }
        return 0;
      };
      // The accumulated side skips its sort when a previous sort-merge left
      // it ordered by exactly these columns (the "sorted output reusable"
      // case the cost model rewards).
      if (tp.presorted) {
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
    } else if (tp.join_algo == JoinAlgo::kHash) {
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
      const size_t bmorsels =
          std::max<size_t>(1, (base.size() + grain - 1) / grain);
      std::vector<std::vector<std::vector<uint32_t>>> parts(
          bmorsels, std::vector<std::vector<uint32_t>>(partitions));
      ForMorsels(base.size(), grain, parallel,
                 [&](size_t m, size_t b, size_t e) {
                   Row key(keys.size());
                   for (size_t i = b; i < e; ++i) {
                     if (fresh_null(base[i])) continue;
                     fresh_key(base[i], key);
                     parts[m][partition_of(key)].push_back(base[i]);
                   }
                   return true;
                 });
      std::vector<BuildMap> build(partitions);
      ForMorsels(partitions, 1, parallel, [&](size_t p, size_t, size_t) {
        Row key(keys.size());
        for (size_t m = 0; m < bmorsels; ++m) {
          for (uint32_t id : parts[m][p]) {
            fresh_key(id, key);
            auto it = build[p].find(key);
            if (it == build[p].end()) it = build[p].try_emplace(key).first;
            it->second.push_back(id);
          }
        }
        return true;
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
      all.all = tuples.data();
      all.count = tuples.size() / width;
      all.width = width;
      group_order.push_back(&all);
    } else {
      SFSQL_RETURN_IF_ERROR(
          GroupTuples(block, tuples, env, groups, group_order));
    }

    for (Group* group : group_order) {
      group->aggregates.resize(block.aggregate_calls.size());
      own = Frame{group->size() == 0 ? nullptr : group->tuple(0),
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

Result<QueryResult> Executor::Execute(const sql::SelectStatement& stmt,
                                      ExecInfo* info) {
  const obs::Clock* clock = obs::ClockOrSteady(config_.clock);
  const uint64_t start = info != nullptr ? clock->NowNanos() : 0;
  ExecStats stats;
  Result<QueryResult> out = QueryResult{};
  {
    const Binding binding = Bind(db_->catalog(), stmt);
    const storage::Snapshot snapshot = PinRelations(*db_, binding);
    BlockExecutor block(&snapshot, &config_, binding, &stats, info,
                        config_.pool);
    out = block.ExecuteBlock(binding.root(), Env{});
  }
  for (size_t i = 0; i < kNumExecCounters; ++i) {
    totals_[i].fetch_add(stats.*kExecCounters[i].field,
                         std::memory_order_relaxed);
  }
  if (info != nullptr) {
    info->stats = stats;
    info->rows_returned = out.ok() ? out->rows.size() : 0;
    info->seconds = obs::NanosToSeconds(clock->NowNanos() - start);
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
