#ifndef SFSQL_STORAGE_PREDICATE_H_
#define SFSQL_STORAGE_PREDICATE_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "storage/value.h"

namespace sfsql::storage {

/// One predicate over a single column with literal operands: `col op v`,
/// `col IN (v, ...)`, `col BETWEEN low AND high` or `col LIKE pattern
/// [ESCAPE c]`. ColumnIndex answers its row count, its row ids and whether
/// any row satisfies it; ChunkStats tells when a chunk holds no match.
///
/// The rows it keeps are the ones the executor's two-valued evaluation keeps:
/// a NULL row value or a NULL operand keeps nothing, and
///  * kEq keeps values Equal to the literal; kNe keeps every other non-null
///    value, values of another type class (bool < numeric < string)
///    included; kLt, kLe, kGt, kGe compare inside the literal's type class;
///  * kNone (an unknown comparison operator) keeps nothing;
///  * kIn: values Equal to some non-null list element;
///  * kBetween: low <= value <= high in the Value::Compare total order (no
///    class check, like the executor's BETWEEN; low > high keeps nothing);
///  * kLike: string values matching the pattern (exec::LikeMatch).
/// ValueFilter below is these rules, value by value.
struct ColumnPredicate {
  enum class Op { kNone, kEq, kNe, kLt, kLe, kGt, kGe, kIn, kBetween, kLike };

  Op op = Op::kNone;
  /// Comparisons (kNone..kGe): {v}; kIn: the list; kBetween: {low, high}.
  std::vector<Value> values;
  std::string pattern;        ///< kLike only
  char escape = '\0';         ///< kLike only; '\0' = no escape character

  /// True for `col op v` (kNone..kGe), whose operand is values[0].
  bool is_compare() const { return op <= Op::kGe; }

  static ColumnPredicate Compare(Op op, Value v) {
    ColumnPredicate p;
    p.op = op;
    p.values.push_back(std::move(v));
    return p;
  }
  /// Decodes "=", "<>" (or "!="), "<", "<=", ">" and ">="; any other `op`
  /// is kNone.
  static ColumnPredicate Compare(std::string_view op, Value v);
  static ColumnPredicate In(std::vector<Value> items) {
    ColumnPredicate p;
    p.op = Op::kIn;
    p.values = std::move(items);
    return p;
  }
  static ColumnPredicate Between(Value low, Value high) {
    ColumnPredicate p;
    p.op = Op::kBetween;
    p.values.push_back(std::move(low));
    p.values.push_back(std::move(high));
    return p;
  }
  static ColumnPredicate Like(std::string pattern, char escape) {
    ColumnPredicate p;
    p.op = Op::kLike;
    p.pattern = std::move(pattern);
    p.escape = escape;
    return p;
  }
};

/// A ColumnPredicate decoded once into the per-value rules above: Keeps(v)
/// is true for exactly the values they keep, and Narrow applies them to a
/// selection vector over one chunk column. Neither can fail. The executor's
/// interpreter raises "cannot compare" on an inequality across type classes,
/// so it runs a filter only where every operand lies in the column's
/// declared class (InDeclaredClass): there the two keep the same rows.
class ValueFilter {
 public:
  explicit ValueFilter(const ColumnPredicate& pred);

  bool Keeps(const Value& v) const;

  /// Keeps those of the `n` ascending offsets in `sel` whose `column` value
  /// passes, compacted to the front in order; returns how many.
  size_t Narrow(const std::vector<Value>& column, uint32_t* sel,
                size_t n) const;

 private:
  using Op = ColumnPredicate::Op;

  /// Calls fn(keep) with the operator's per-value rule, so Keeps and Narrow
  /// share one rule per operator and Narrow's loop has no dispatch in it.
  template <typename Fn>
  auto Dispatch(Fn&& fn) const;

  /// Runs `keep` over `sel` with the operator already dispatched.
  template <typename Keep>
  static size_t NarrowBy(const std::vector<Value>& column, uint32_t* sel,
                         size_t n, Keep keep);

  /// v.Compare(literal) into `cmp` when `v` is non-null and in the
  /// literal's type class; false otherwise (an inequality keeps nothing
  /// there). An int against an int literal skips Value::Compare.
  bool Ordered(const Value& v, int* cmp) const;
  bool Equal(const Value& v) const;
  bool InList(const Value& v) const;
  bool InRange(const Value& v) const;
  bool Like(const Value& v) const;

  Op op_ = Op::kNone;
  /// kEq..kGe: {literal}; kIn: the non-null items; kBetween: {low, high}.
  std::vector<Value> values_;
  bool int_literal_ = false;  ///< kEq..kGe with an int literal
  int64_t literal_int_ = 0;
  std::string pattern_;
  char escape_ = '\0';
};

}  // namespace sfsql::storage

#endif  // SFSQL_STORAGE_PREDICATE_H_
