#include "exec/executor.h"

#include <algorithm>
#include <cstdio>
#include <functional>
#include <limits>
#include <unordered_map>
#include <unordered_set>

#include "common/macros.h"
#include "common/strings.h"
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
using sql::ExprPtr;
using sql::NameKind;
using sql::SelectStatement;
using sql::UnaryOp;
using storage::Row;
using storage::RowEq;
using storage::RowHash;
using storage::Value;

namespace {

// ---------------------------------------------------------------------------
// Schemas and environments
// ---------------------------------------------------------------------------

/// One FROM entry materialized into the block's flat tuple layout.
struct Slot {
  std::string binding_lower;  // alias or relation name, lower-cased
  int relation_id = -1;
  int offset = 0;  // first column of this slot in the flat row
  int width = 0;
};

struct BlockSchema {
  std::vector<Slot> slots;
  int width = 0;
  /// Slot visit order for star expansion. The fold places slots in join
  /// order; stars must still expand in the original FROM order.
  std::vector<int> star_order;
};

/// A row bound to its schema; environments chain outward for correlated
/// subqueries (innermost frame last).
struct Frame {
  const BlockSchema* schema;
  const Row* row;
};
using Env = std::vector<Frame>;

/// Where a column reference resolved to.
struct ColumnLoc {
  int frame = -1;   // index into Env, or -1 = the "local candidate" schema
  int column = -1;  // flat column index within the frame's row
};

// IsAggregateName / ContainsAggregate / SplitConjuncts live in
// exec/access_path.{h,cc} now — the planner classifies with the exact same
// rules the executor evaluates with.

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
                ExecStats* stats, ExecInfo* info = nullptr,
                TaskPool* pool = nullptr)
      : db_(db), config_(config), stats_(stats), info_(info), pool_(pool) {}

  Result<QueryResult> ExecuteBlock(const SelectStatement& stmt, const Env& outer);

 private:
  // --- name resolution ---

  /// Looks up [relation.]attribute in `schema` only (no outer frames). Returns
  /// flat column index, kNotFound if absent, other errors on ambiguity.
  Result<int> ResolveInSchema(const sql::NameRef& relation,
                              const sql::NameRef& attribute,
                              const BlockSchema& schema) const {
    if (!attribute.exact() || (relation.specified() && !relation.exact())) {
      return Status::ExecutionError(
          StrCat("unresolved schema-free element '", relation.ToString(),
                 relation.specified() ? "." : "", attribute.ToString(),
                 "'; translate the query first"));
    }
    if (relation.specified()) {
      std::string want = ToLower(relation.name);
      for (const Slot& slot : schema.slots) {
        if (slot.binding_lower != want) continue;
        const catalog::Relation& rel = db_->catalog().relation(slot.relation_id);
        int idx = rel.AttributeIndex(attribute.name);
        if (idx < 0) {
          return Status::ExecutionError(
              StrCat("relation '", relation.name, "' has no attribute '",
                     attribute.name, "'"));
        }
        return slot.offset + idx;
      }
      return Status::NotFound(relation.name);
    }
    int found = -1;
    for (const Slot& slot : schema.slots) {
      const catalog::Relation& rel = db_->catalog().relation(slot.relation_id);
      int idx = rel.AttributeIndex(attribute.name);
      if (idx < 0) continue;
      if (found >= 0) {
        return Status::ExecutionError(
            StrCat("ambiguous attribute '", attribute.name, "'"));
      }
      found = slot.offset + idx;
    }
    if (found < 0) return Status::NotFound(attribute.name);
    return found;
  }

  /// Resolves against the environment, innermost frame first.
  Result<ColumnLoc> ResolveColumn(const sql::NameRef& relation,
                                  const sql::NameRef& attribute,
                                  const Env& env) const {
    for (int f = static_cast<int>(env.size()) - 1; f >= 0; --f) {
      Result<int> r = ResolveInSchema(relation, attribute, *env[f].schema);
      if (r.ok()) return ColumnLoc{f, *r};
      if (r.status().code() != StatusCode::kNotFound) return r.status();
    }
    return Status::ExecutionError(
        StrCat("cannot resolve column '",
               relation.specified() ? relation.ToString() + "." : "",
               attribute.ToString(), "'"));
  }

  // --- scalar evaluation (row mode) ---

  Result<Value> Eval(const Expr& e, const Env& env) {
    switch (e.kind) {
      case ExprKind::kLiteral:
        return e.literal;
      case ExprKind::kColumnRef: {
        SFSQL_ASSIGN_OR_RETURN(ColumnLoc loc,
                               ResolveColumn(e.relation, e.attribute, env));
        return (*env[loc.frame].row)[loc.column];
      }
      case ExprKind::kStar:
        return Status::ExecutionError("'*' is only valid in SELECT or COUNT(*)");
      case ExprKind::kUnary: {
        SFSQL_ASSIGN_OR_RETURN(Value v, Eval(*e.lhs, env));
        if (e.uop == UnaryOp::kNot) {
          return Value::Bool(!Truthy(v));
        }
        return Negate(v);
      }
      case ExprKind::kBinary:
        return EvalBinary(e, env);
      case ExprKind::kFunctionCall:
        if (IsAggregateName(e.function_name)) {
          return Status::ExecutionError(
              StrCat("aggregate '", e.function_name,
                     "' used outside of an aggregated query block"));
        }
        return EvalScalarFunction(e, env);
      case ExprKind::kInList: {
        SFSQL_ASSIGN_OR_RETURN(Value subject, Eval(*e.lhs, env));
        if (subject.is_null()) return Value::Bool(e.negated ? true : false);
        for (const ExprPtr& item : e.args) {
          SFSQL_ASSIGN_OR_RETURN(Value v, Eval(*item, env));
          if (subject.Equals(v)) return Value::Bool(!e.negated);
        }
        return Value::Bool(e.negated);
      }
      case ExprKind::kInSubquery: {
        SFSQL_ASSIGN_OR_RETURN(Value subject, Eval(*e.lhs, env));
        // Two-valued logic: a NULL subject matches nothing.
        if (subject.is_null()) return Value::Bool(e.negated);
        SFSQL_ASSIGN_OR_RETURN(QueryResult sub, ExecuteBlock(*e.subquery, env));
        if (sub.columns.size() != 1) {
          return Status::ExecutionError("IN subquery must return one column");
        }
        for (const Row& row : sub.rows) {
          if (subject.Equals(row[0])) return Value::Bool(!e.negated);
        }
        return Value::Bool(e.negated);
      }
      case ExprKind::kExistsSubquery: {
        SFSQL_ASSIGN_OR_RETURN(QueryResult sub, ExecuteBlock(*e.subquery, env));
        bool exists = !sub.rows.empty();
        return Value::Bool(e.negated ? !exists : exists);
      }
      case ExprKind::kScalarSubquery: {
        SFSQL_ASSIGN_OR_RETURN(QueryResult sub, ExecuteBlock(*e.subquery, env));
        if (sub.columns.size() != 1) {
          return Status::ExecutionError("scalar subquery must return one column");
        }
        if (sub.rows.empty()) return Value::Null_();
        if (sub.rows.size() > 1) {
          return Status::ExecutionError("scalar subquery returned several rows");
        }
        return sub.rows[0][0];
      }
      case ExprKind::kBetween: {
        SFSQL_ASSIGN_OR_RETURN(Value subject, Eval(*e.lhs, env));
        SFSQL_ASSIGN_OR_RETURN(Value low, Eval(*e.args[0], env));
        SFSQL_ASSIGN_OR_RETURN(Value high, Eval(*e.args[1], env));
        if (subject.is_null() || low.is_null() || high.is_null()) {
          return Value::Bool(false);
        }
        bool in = subject.Compare(low) >= 0 && subject.Compare(high) <= 0;
        return Value::Bool(e.negated ? !in : in);
      }
      case ExprKind::kIsNull: {
        SFSQL_ASSIGN_OR_RETURN(Value subject, Eval(*e.lhs, env));
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

  Result<Value> EvalBinary(const Expr& e, const Env& env) {
    if (e.bop == BinaryOp::kAnd) {
      SFSQL_ASSIGN_OR_RETURN(Value a, Eval(*e.lhs, env));
      if (!Truthy(a)) return Value::Bool(false);
      SFSQL_ASSIGN_OR_RETURN(Value b, Eval(*e.rhs, env));
      return Value::Bool(Truthy(b));
    }
    if (e.bop == BinaryOp::kOr) {
      SFSQL_ASSIGN_OR_RETURN(Value a, Eval(*e.lhs, env));
      if (Truthy(a)) return Value::Bool(true);
      SFSQL_ASSIGN_OR_RETURN(Value b, Eval(*e.rhs, env));
      return Value::Bool(Truthy(b));
    }
    SFSQL_ASSIGN_OR_RETURN(Value a, Eval(*e.lhs, env));
    SFSQL_ASSIGN_OR_RETURN(Value b, Eval(*e.rhs, env));
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

  Result<Value> EvalScalarFunction(const Expr& e, const Env& env) {
    // Small scalar function library; extend as needed.
    if (EqualsIgnoreCase(e.function_name, "abs") && e.args.size() == 1) {
      SFSQL_ASSIGN_OR_RETURN(Value v, Eval(*e.args[0], env));
      if (v.is_null()) return v;
      if (v.is_int()) return v.AsInt() < 0 ? Negate(v) : v;
      if (v.is_double()) {
        return Value::Double(v.AsDouble() < 0 ? -v.AsDouble() : v.AsDouble());
      }
      return Status::TypeError("abs needs a numeric argument");
    }
    if (EqualsIgnoreCase(e.function_name, "lower") && e.args.size() == 1) {
      SFSQL_ASSIGN_OR_RETURN(Value v, Eval(*e.args[0], env));
      if (v.is_null()) return v;
      if (!v.is_string()) return Status::TypeError("lower needs a string");
      return Value::String(ToLower(v.AsString()));
    }
    if (EqualsIgnoreCase(e.function_name, "upper") && e.args.size() == 1) {
      SFSQL_ASSIGN_OR_RETURN(Value v, Eval(*e.args[0], env));
      if (v.is_null()) return v;
      if (!v.is_string()) return Status::TypeError("upper needs a string");
      return Value::String(ToUpper(v.AsString()));
    }
    if (EqualsIgnoreCase(e.function_name, "length") && e.args.size() == 1) {
      SFSQL_ASSIGN_OR_RETURN(Value v, Eval(*e.args[0], env));
      if (v.is_null()) return v;
      if (!v.is_string()) return Status::TypeError("length needs a string");
      return Value::Int(static_cast<int64_t>(v.AsString().size()));
    }
    return Status::ExecutionError(
        StrCat("unknown function '", e.function_name, "'"));
  }

  // --- aggregation ---

  struct Group {
    Row key;
    std::vector<const Row*> rows;
  };

  Result<Value> ComputeAggregate(const Expr& call, const Group& group,
                                 const BlockSchema& schema, const Env& outer) {
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
    for (const Row* row : group.rows) {
      Env env = outer;
      env.push_back(Frame{&schema, row});
      SFSQL_ASSIGN_OR_RETURN(Value v, Eval(*call.args[0], env));
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

  /// Evaluates a select/having/order expression in group mode: group-by
  /// expressions are matched textually, aggregates computed over the group, and
  /// bare columns fall back to the group's representative (first) row.
  Result<Value> EvalGrouped(const Expr& e, const Group& group,
                            const std::vector<std::string>& group_by_text,
                            const std::vector<Value>& group_key,
                            const BlockSchema& schema, const Env& outer) {
    std::string text = sql::PrintExpr(e);
    for (size_t i = 0; i < group_by_text.size(); ++i) {
      if (text == group_by_text[i]) return group_key[i];
    }
    if (e.kind == ExprKind::kFunctionCall && IsAggregateName(e.function_name)) {
      return ComputeAggregate(e, group, schema, outer);
    }
    switch (e.kind) {
      case ExprKind::kLiteral:
        return e.literal;
      case ExprKind::kColumnRef: {
        if (group.rows.empty()) return Value::Null_();
        Env env = outer;
        env.push_back(Frame{&schema, group.rows[0]});
        return Eval(e, env);
      }
      case ExprKind::kUnary: {
        SFSQL_ASSIGN_OR_RETURN(
            Value v, EvalGrouped(*e.lhs, group, group_by_text, group_key, schema,
                                 outer));
        if (e.uop == UnaryOp::kNot) return Value::Bool(!Truthy(v));
        return Negate(v);
      }
      case ExprKind::kBinary: {
        // Rebuild a tiny two-literal expression and reuse scalar eval.
        SFSQL_ASSIGN_OR_RETURN(
            Value a, EvalGrouped(*e.lhs, group, group_by_text, group_key, schema,
                                 outer));
        SFSQL_ASSIGN_OR_RETURN(
            Value b, EvalGrouped(*e.rhs, group, group_by_text, group_key, schema,
                                 outer));
        ExprPtr tmp = Expr::Binary(e.bop, Expr::Literal(std::move(a)),
                                   Expr::Literal(std::move(b)));
        return Eval(*tmp, outer);
      }
      default: {
        // Subqueries and other constructs: evaluate against the representative
        // row (correlated aggregate subqueries over groups are out of scope).
        Env env = outer;
        if (!group.rows.empty()) env.push_back(Frame{&schema, group.rows[0]});
        return Eval(e, env);
      }
    }
  }

  // --- join pipeline ---

  /// Runs the plan's join fold: filtered base rows per table, joined in
  /// plan order. Marks every conjunct the fold consumed in `conjunct_used`.
  Result<std::vector<Row>> FoldJoin(const BlockPlan& plan, BlockSchema& schema,
                                    const Env& outer,
                                    const std::vector<const Expr*>& conjuncts,
                                    std::vector<bool>& conjunct_used);

  /// The cached access-path plan for a block, keyed by statement identity —
  /// correlated subqueries re-execute the same SelectStatement many times,
  /// and plans are environment-independent (sargable operands are literals).
  /// Cached row ids stay valid because one BlockExecutor lives within one
  /// Execute, which holds the database read lock throughout.
  const Result<BlockPlan>& GetPlan(const SelectStatement& stmt,
                                   const std::vector<const Expr*>& conjuncts) {
    auto it = plans_.find(&stmt);
    if (it == plans_.end()) {
      it = plans_.emplace(&stmt, PlanBlock(*db_, stmt, conjuncts, *config_))
               .first;
    }
    return it->second;
  }

  // --- referenced-column analysis ---
  //
  // The planned fold copies only columns the statement can read out of the
  // chunks; everything else stays a NULL placeholder in the flat row. The
  // analysis is conservative and name-based over the whole root statement
  // (subqueries included): a bare name can resolve into any slot carrying
  // it and correlated refs cross blocks, so per-binding precision is not
  // attempted. A star or a non-exact name forces full materialization.

  void CollectReferences(const SelectStatement& stmt) {
    std::function<void(const Expr&)> walk = [&](const Expr& e) {
      if (refs_all_) return;
      switch (e.kind) {
        case ExprKind::kStar:
          refs_all_ = true;
          return;
        case ExprKind::kColumnRef:
          if (!e.attribute.exact()) {
            refs_all_ = true;
            return;
          }
          ref_names_.insert(ToLower(e.attribute.name));
          break;
        default:
          break;
      }
      if (e.lhs) walk(*e.lhs);
      if (e.rhs) walk(*e.rhs);
      for (const ExprPtr& a : e.args) walk(*a);
      if (e.subquery) CollectReferences(*e.subquery);
    };
    for (const sql::SelectItem& item : stmt.select_items) walk(*item.expr);
    if (stmt.where) walk(*stmt.where);
    for (const ExprPtr& g : stmt.group_by) walk(*g);
    if (stmt.having) walk(*stmt.having);
    for (const sql::OrderItem& o : stmt.order_by) walk(*o.expr);
  }

  /// Per-attribute "must materialize" flags for one relation.
  const std::vector<char>& ReferencedAttrs(int relation_id) {
    auto it = referenced_cache_.find(relation_id);
    if (it != referenced_cache_.end()) return it->second;
    const catalog::Relation& rel = db_->catalog().relation(relation_id);
    std::vector<char> wanted(rel.attributes.size(), 1);
    if (!refs_all_) {
      for (size_t a = 0; a < rel.attributes.size(); ++a) {
        wanted[a] = ref_names_.count(ToLower(rel.attributes[a].name)) ? 1 : 0;
      }
    }
    return referenced_cache_.emplace(relation_id, std::move(wanted))
        .first->second;
  }

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
  std::unordered_map<const SelectStatement*, Result<BlockPlan>> plans_;
  bool analyzed_ = false;
  bool refs_all_ = false;
  std::unordered_set<std::string> ref_names_;
  std::unordered_map<int, std::vector<char>> referenced_cache_;
};

Result<std::vector<Row>> BlockExecutor::FoldJoin(
    const BlockPlan& plan, BlockSchema& schema, const Env& outer,
    const std::vector<const Expr*>& conjuncts,
    std::vector<bool>& conjunct_used) {
  // Everything the plan routed below or into the join is consumed here; the
  // residual conjuncts stay unused for the caller's post-join filter.
  for (const TablePlan& tp : plan.tables) {
    for (int ci : tp.pushed) conjunct_used[ci] = true;
    for (const SargablePredicate& p : tp.sargable) {
      conjunct_used[p.conjunct] = true;
    }
  }
  for (const PlannedEquiJoin& e : plan.equi_joins) {
    conjunct_used[e.conjunct] = true;
  }
  for (const PlannedJoinFilter& f : plan.join_filters) {
    conjunct_used[f.conjunct] = true;
  }

  // Single-slot frame for evaluating a table's pushed conjuncts against one
  // base row (instead of once per joined tuple).
  const size_t n = plan.tables.size();
  auto slot_for = [&](const TablePlan& tp, int offset) {
    Slot slot;
    slot.binding_lower = tp.binding_lower;
    slot.relation_id = tp.relation_id;
    slot.offset = offset;
    slot.width = static_cast<int>(
        db_->catalog().relation(tp.relation_id).attributes.size());
    return slot;
  };
  auto passes_pushed = [&](const TablePlan& tp, const BlockSchema& local,
                           const Row& row) -> Result<bool> {
    Env env = outer;
    env.push_back(Frame{&local, &row});
    for (int ci : tp.pushed) {
      SFSQL_ASSIGN_OR_RETURN(Value v, Eval(*conjuncts[ci], env));
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
    const std::vector<char>& wanted = ReferencedAttrs(tp.relation_id);
    const size_t width = table.num_attrs();
    BlockSchema local;
    local.slots.push_back(slot_for(tp, 0));
    local.width = local.slots[0].width;
    std::vector<Row> base;
    if (tp.index_scan) {
      ++stats_->index_scans;
      stats_->rows_scanned += tp.row_ids.size();
      auto scan_ids = [&](size_t b, size_t e, std::vector<Row>& out,
                          ExecStats&) -> Status {
        out.reserve(out.size() + (e - b));
        for (size_t i = b; i < e; ++i) {
          Row row(width);
          for (size_t a = 0; a < width; ++a) {
            if (wanted[a]) row[a] = table.at(tp.row_ids[i], a);
          }
          SFSQL_ASSIGN_OR_RETURN(bool ok, passes_pushed(tp, local, row));
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
            SFSQL_ASSIGN_OR_RETURN(bool ok, passes_pushed(tp, local, row));
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
  std::vector<int> step_of(n, -1);    // FROM position -> fold step
  std::vector<int> offset_of(n, -1);  // FROM position -> flat offset
  for (size_t t = 0; t < n; ++t) {
    step_of[plan.tables[t].from_index] = static_cast<int>(t);
  }
  std::vector<std::vector<const Expr*>> step_filters(n);
  for (const PlannedJoinFilter& f : plan.join_filters) {
    int last = 0;
    for (int tab : f.tables) last = std::max(last, step_of[tab]);
    step_filters[last].push_back(conjuncts[f.conjunct]);
  }

  std::vector<Row> rows;
  rows.push_back(Row{});  // fold identity
  // Flat columns the accumulated rows are currently sorted by (the output of
  // a sort-merge step). Hash, index nested-loop, and nested-loop steps all
  // iterate the accumulated side in order and emit per-base-row blocks, so
  // they preserve it; a later sort-merge on exactly these columns can skip
  // its accumulated-side sort.
  std::vector<int> sorted_cols;
  for (size_t t = 0; t < n; ++t) {
    const TablePlan& tp = plan.tables[t];
    Slot slot;
    slot.binding_lower = tp.binding_lower;
    slot.relation_id = tp.relation_id;
    slot.offset = schema.width;
    slot.width = static_cast<int>(
        db_->catalog().relation(tp.relation_id).attributes.size());
    BlockSchema next = schema;
    next.slots.push_back(slot);
    next.width += slot.width;
    offset_of[tp.from_index] = slot.offset;

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
    const std::vector<const Expr*>& filters = step_filters[t];

    std::vector<Row> joined;
    // `out`-parameterized so the parallel probe loops can emit into their
    // morsel's private vector; the join filters are subquery-free (see
    // RowLoop), so concurrent evaluation is safe.
    auto emit_row = [&](const Row& base, const Row& extra,
                        std::vector<Row>& out) -> Status {
      Row combined;
      combined.reserve(base.size() + extra.size());
      combined.insert(combined.end(), base.begin(), base.end());
      combined.insert(combined.end(), extra.begin(), extra.end());
      Env env = outer;
      env.push_back(Frame{&next, &combined});
      for (const Expr* p : filters) {
        SFSQL_ASSIGN_OR_RETURN(Value v, Eval(*p, env));
        if (!Truthy(v)) return Status::OK();
      }
      out.push_back(std::move(combined));
      return Status::OK();
    };
    auto emit_if_passes = [&](const Row& base, const Row& extra) -> Status {
      return emit_row(base, extra, joined);
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
      const std::vector<char>& wanted = ReferencedAttrs(tp.relation_id);
      const size_t width = table.num_attrs();
      BlockSchema local;
      local.slots.push_back(slot_for(tp, 0));
      local.width = local.slots[0].width;
      size_t probe_key = 0;
      while (keys[probe_key].new_col != tp.index_join_attr) ++probe_key;
      // Probe morsels run in parallel over the accumulated rows; per probe
      // row the index returns ids ascending, so stitching morsels in order
      // reproduces the serial emission order exactly. `idx` was fetched above
      // on this thread (ColumnIndexFor may lazily build under a mutex);
      // workers only call its const read API.
      auto probe_index = [&](size_t b, size_t e, std::vector<Row>& out,
                             ExecStats& st) -> Status {
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
            SFSQL_ASSIGN_OR_RETURN(bool ok, passes_pushed(tp, local, trow));
            if (!ok) continue;
            SFSQL_RETURN_IF_ERROR(emit_row(base, trow, out));
          }
        }
        return Status::OK();
      };
      SFSQL_RETURN_IF_ERROR(RowLoop(rows.size(), Grain(), probe_index, joined));
      schema = std::move(next);
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
            SFSQL_RETURN_IF_ERROR(emit_row(base, *trow, out));
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
    schema = std::move(next);
    rows = std::move(joined);
  }

  // Stars expand in the original FROM order regardless of the fold order:
  // slot step_of[f] holds FROM entry f.
  schema.star_order.assign(step_of.begin(), step_of.end());
  return rows;
}

Result<QueryResult> BlockExecutor::ExecuteBlock(const SelectStatement& stmt,
                                                const Env& outer) {
  const bool root = !analyzed_;
  if (!analyzed_) {
    // First call = the root statement; subquery blocks recurse through here
    // with the analysis already in place.
    analyzed_ = true;
    CollectReferences(stmt);
  }
  std::vector<const Expr*> conjuncts;
  SplitConjuncts(stmt.where.get(), conjuncts);
  // An OR at the top level is a single conjunct; fine — it lands in the final
  // filter below.
  std::vector<bool> conjunct_used(conjuncts.size(), false);

  BlockSchema schema;
  const Result<BlockPlan>& planned = GetPlan(stmt, conjuncts);
  if (!planned.ok()) return planned.status();
  const BlockPlan& plan = *planned;
  if (root && info_ != nullptr) {
    info_->access_paths = ExplainPlan(*db_, plan);
  }
  SFSQL_ASSIGN_OR_RETURN(std::vector<Row> rows,
                         FoldJoin(plan, schema, outer, conjuncts, conjunct_used));
  if (root && info_ != nullptr) {
    // Estimated vs actual rows out of the join fold, both pre-residual —
    // the q-error the cost model is judged on.
    info_->estimated_join_rows = plan.estimated_output_rows;
    info_->actual_join_rows = rows.size();
    info_->has_join_actuals = true;
  }

  // Final filter: conjuncts not consumed by the pipeline (subqueries,
  // outer-correlated predicates, OR trees).
  {
    std::vector<Row> filtered;
    for (Row& row : rows) {
      Env env = outer;
      env.push_back(Frame{&schema, &row});
      bool pass = true;
      for (size_t ci = 0; ci < conjuncts.size(); ++ci) {
        if (conjunct_used[ci]) continue;
        SFSQL_ASSIGN_OR_RETURN(Value v, Eval(*conjuncts[ci], env));
        if (!Truthy(v)) {
          pass = false;
          break;
        }
      }
      if (pass) filtered.push_back(std::move(row));
    }
    rows = std::move(filtered);
  }

  bool has_aggregate = !stmt.group_by.empty();
  for (const sql::SelectItem& item : stmt.select_items) {
    if (ContainsAggregate(*item.expr)) has_aggregate = true;
  }
  if (stmt.having && ContainsAggregate(*stmt.having)) has_aggregate = true;
  for (const sql::OrderItem& o : stmt.order_by) {
    if (ContainsAggregate(*o.expr)) has_aggregate = true;
  }

  QueryResult result;

  // Column labels.
  auto label_of = [&](const sql::SelectItem& item) {
    return item.alias.empty() ? sql::PrintExpr(*item.expr) : item.alias;
  };

  // Expand stars for the non-aggregate path.
  auto expand_star = [&](const Expr& star, Row& out_row, const Row& src,
                         bool label_pass) {
    for (size_t si = 0; si < schema.slots.size(); ++si) {
      const Slot& slot = schema.slots[schema.star_order[si]];
      if (star.relation.specified() &&
          ToLower(star.relation.name) != slot.binding_lower) {
        continue;
      }
      const catalog::Relation& rel = db_->catalog().relation(slot.relation_id);
      for (int a = 0; a < slot.width; ++a) {
        if (label_pass) {
          result.columns.push_back(
              StrCat(slot.binding_lower, ".", rel.attributes[a].name));
        } else {
          out_row.push_back(src[slot.offset + a]);
        }
      }
    }
  };

  // Order keys computed alongside projection.
  struct OutRow {
    Row projected;
    Row order_keys;
  };
  std::vector<OutRow> out_rows;

  if (has_aggregate) {
    // Group rows.
    std::vector<std::string> group_by_text;
    for (const ExprPtr& g : stmt.group_by) {
      group_by_text.push_back(sql::PrintExpr(*g));
    }
    std::unordered_map<Row, Group, RowHash, RowEq> groups;
    std::vector<Row> group_order;  // first-seen order
    for (const Row& row : rows) {
      Env env = outer;
      env.push_back(Frame{&schema, &row});
      Row key;
      for (const ExprPtr& g : stmt.group_by) {
        SFSQL_ASSIGN_OR_RETURN(Value v, Eval(*g, env));
        key.push_back(std::move(v));
      }
      auto [it, inserted] = groups.try_emplace(key);
      if (inserted) {
        it->second.key = key;
        group_order.push_back(key);
      }
      it->second.rows.push_back(&row);
    }
    if (stmt.group_by.empty() && groups.empty()) {
      // Global aggregate over an empty input still yields one group.
      groups.try_emplace(Row{});
      group_order.push_back(Row{});
    }

    for (const Row& key : group_order) {
      const Group& group = groups[key];
      if (stmt.having) {
        SFSQL_ASSIGN_OR_RETURN(
            Value v, EvalGrouped(*stmt.having, group, group_by_text, group.key,
                                 schema, outer));
        if (!Truthy(v)) continue;
      }
      OutRow out;
      for (const sql::SelectItem& item : stmt.select_items) {
        if (item.expr->kind == ExprKind::kStar) {
          return Status::ExecutionError("'*' cannot appear in an aggregate query");
        }
        SFSQL_ASSIGN_OR_RETURN(
            Value v, EvalGrouped(*item.expr, group, group_by_text, group.key,
                                 schema, outer));
        out.projected.push_back(std::move(v));
      }
      for (const sql::OrderItem& o : stmt.order_by) {
        SFSQL_ASSIGN_OR_RETURN(
            Value v, EvalGrouped(*o.expr, group, group_by_text, group.key,
                                 schema, outer));
        out.order_keys.push_back(std::move(v));
      }
      out_rows.push_back(std::move(out));
    }
    for (const sql::SelectItem& item : stmt.select_items) {
      result.columns.push_back(label_of(item));
    }
  } else {
    // Plain projection. Resolve ORDER BY aliases to select items up front.
    for (const sql::SelectItem& item : stmt.select_items) {
      if (item.expr->kind == ExprKind::kStar) {
        Row dummy;
        expand_star(*item.expr, dummy, dummy, /*label_pass=*/true);
      } else {
        result.columns.push_back(label_of(item));
      }
    }
    for (const Row& row : rows) {
      Env env = outer;
      env.push_back(Frame{&schema, &row});
      OutRow out;
      for (const sql::SelectItem& item : stmt.select_items) {
        if (item.expr->kind == ExprKind::kStar) {
          expand_star(*item.expr, out.projected, row, /*label_pass=*/false);
        } else {
          SFSQL_ASSIGN_OR_RETURN(Value v, Eval(*item.expr, env));
          out.projected.push_back(std::move(v));
        }
      }
      for (const sql::OrderItem& o : stmt.order_by) {
        // ORDER BY may name a select alias.
        bool is_alias = false;
        if (o.expr->kind == ExprKind::kColumnRef && !o.expr->relation.specified()) {
          for (size_t i = 0; i < stmt.select_items.size(); ++i) {
            if (!stmt.select_items[i].alias.empty() &&
                EqualsIgnoreCase(stmt.select_items[i].alias,
                                 o.expr->attribute.name)) {
              out.order_keys.push_back(out.projected[i]);
              is_alias = true;
              break;
            }
          }
        }
        if (is_alias) continue;
        SFSQL_ASSIGN_OR_RETURN(Value v, Eval(*o.expr, env));
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
    BlockExecutor block(db_, &config_, &stats, info, EffectivePool());
    out = block.ExecuteBlock(stmt, Env{});
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
  std::vector<const Expr*> conjuncts;
  SplitConjuncts(stmt.where.get(), conjuncts);
  Result<BlockPlan> plan = PlanBlock(*db_, stmt, conjuncts, config_);
  if (!plan.ok()) return {};
  return ExplainPlan(*db_, *plan);
}

Result<QueryResult> Executor::ExecuteSql(std::string_view sql_text) {
  SFSQL_ASSIGN_OR_RETURN(sql::SelectPtr stmt, sql::ParseSelect(sql_text));
  return Execute(*stmt);
}

}  // namespace sfsql::exec
