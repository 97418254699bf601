#ifndef SFSQL_STORAGE_PREDICATE_H_
#define SFSQL_STORAGE_PREDICATE_H_

#include <string>
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
///  * kCompare: "=" keeps values Equal to the literal; "<>"/"!=" keeps every
///    other non-null value, values of another type class (bool < numeric <
///    string) included; "<", "<=", ">", ">=" compare inside the literal's
///    type class. Any other op keeps nothing;
///  * kIn: values Equal to some non-null list element;
///  * kBetween: low <= value <= high in the Value::Compare total order (no
///    class check, like the executor's BETWEEN; low > high keeps nothing);
///  * kLike: string values matching the pattern (exec::LikeMatch).
struct ColumnPredicate {
  enum class Kind { kCompare, kIn, kBetween, kLike };

  Kind kind = Kind::kCompare;
  std::string op;             ///< kCompare only
  /// kCompare: {v}; kIn: the list; kBetween: {low, high}.
  std::vector<Value> values;
  std::string pattern;        ///< kLike only
  char escape = '\0';         ///< kLike only; '\0' = no escape character

  static ColumnPredicate Compare(std::string op, Value v) {
    ColumnPredicate p;
    p.op = std::move(op);
    p.values.push_back(std::move(v));
    return p;
  }
  static ColumnPredicate In(std::vector<Value> items) {
    ColumnPredicate p;
    p.kind = Kind::kIn;
    p.values = std::move(items);
    return p;
  }
  static ColumnPredicate Between(Value low, Value high) {
    ColumnPredicate p;
    p.kind = Kind::kBetween;
    p.values.push_back(std::move(low));
    p.values.push_back(std::move(high));
    return p;
  }
  static ColumnPredicate Like(std::string pattern, char escape) {
    ColumnPredicate p;
    p.kind = Kind::kLike;
    p.pattern = std::move(pattern);
    p.escape = escape;
    return p;
  }
};

}  // namespace sfsql::storage

#endif  // SFSQL_STORAGE_PREDICATE_H_
