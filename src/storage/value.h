#ifndef SFSQL_STORAGE_VALUE_H_
#define SFSQL_STORAGE_VALUE_H_

#include <cstdint>
#include <string>
#include <utility>
#include <variant>
#include <vector>

#include "catalog/catalog.h"
#include "common/result.h"

namespace sfsql::storage {

/// A dynamically typed SQL value. Numeric comparisons coerce int64 and double;
/// string comparisons are case-sensitive; NULL compares equal only to NULL via
/// `Equals` and orders before everything via `Compare` (the engine uses
/// two-valued logic: predicates over NULL evaluate to false, see exec/).
class Value {
 public:
  Value() : data_(Null{}) {}

  static Value Null_() { return Value(); }
  static Value Bool(bool b) { return Value(std::in_place_type<bool>, b); }
  static Value Int(int64_t v) { return Value(std::in_place_type<int64_t>, v); }
  static Value Double(double v) { return Value(std::in_place_type<double>, v); }
  static Value String(std::string s) {
    return Value(std::in_place_type<std::string>, std::move(s));
  }

  bool is_null() const { return std::holds_alternative<Null>(data_); }
  bool is_bool() const { return std::holds_alternative<bool>(data_); }
  bool is_int() const { return std::holds_alternative<int64_t>(data_); }
  bool is_double() const { return std::holds_alternative<double>(data_); }
  bool is_string() const { return std::holds_alternative<std::string>(data_); }
  bool is_numeric() const { return is_int() || is_double(); }

  bool AsBool() const { return std::get<bool>(data_); }
  int64_t AsInt() const { return std::get<int64_t>(data_); }
  double AsDouble() const {
    return is_int() ? static_cast<double>(std::get<int64_t>(data_))
                    : std::get<double>(data_);
  }
  const std::string& AsString() const { return std::get<std::string>(data_); }

  catalog::ValueType type() const;

  /// SQL equality with int/double coercion; NULL == NULL is true here (used for
  /// grouping and DISTINCT, which treat NULLs as one group, like SQL does).
  bool Equals(const Value& other) const;

  /// Total order for sorting: NULL < bool < numeric < string; numerics compare by
  /// value across int/double. Returns <0, 0, >0.
  int Compare(const Value& other) const;

  /// Renders the value as a SQL literal ("'abc'", "42", "3.5", "TRUE", "NULL").
  std::string ToSqlLiteral() const;

  /// Renders the bare value (no string quoting), for result tables.
  std::string ToString() const;

  /// Hash consistent with Equals (ints and integral doubles hash alike).
  size_t Hash() const;

 private:
  struct Null {
    bool operator==(const Null&) const { return true; }
  };
  using Data = std::variant<Null, bool, int64_t, double, std::string>;
  /// Builds the alternative in place. Moving a temporary Data instead makes
  /// GCC 12 warn -Wmaybe-uninitialized on its string alternative under ASan.
  template <typename T, typename Arg>
  Value(std::in_place_type_t<T> type, Arg&& arg)
      : data_(type, std::forward<Arg>(arg)) {}

  Data data_;
};

/// True if non-null `v` lies in the type class (bool, numeric, string) of
/// the values Insert admits into a column declared `declared`, so comparing
/// them with `v` cannot type-error.
bool InDeclaredClass(catalog::ValueType declared, const Value& v);

/// One tuple.
using Row = std::vector<Value>;

/// Hash functor for composite keys (group-by, hash join, DISTINCT).
struct RowHash {
  size_t operator()(const Row& row) const {
    size_t h = 0x9e3779b97f4a7c15ull;
    for (const Value& v : row) h = h * 1099511628211ull ^ v.Hash();
    return h;
  }
};

/// Equality functor matching RowHash (Value::Equals element-wise).
struct RowEq {
  bool operator()(const Row& a, const Row& b) const {
    if (a.size() != b.size()) return false;
    for (size_t i = 0; i < a.size(); ++i) {
      if (!a[i].Equals(b[i])) return false;
    }
    return true;
  }
};

}  // namespace sfsql::storage

#endif  // SFSQL_STORAGE_VALUE_H_
