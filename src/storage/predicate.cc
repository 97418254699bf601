#include "storage/predicate.h"

#include "exec/like.h"

namespace sfsql::storage {

ColumnPredicate ColumnPredicate::Compare(std::string_view op, Value v) {
  static constexpr std::pair<std::string_view, Op> kOps[] = {
      {"=", Op::kEq}, {"<>", Op::kNe}, {"!=", Op::kNe}, {"<", Op::kLt},
      {"<=", Op::kLe}, {">", Op::kGt}, {">=", Op::kGe}};
  for (const auto& [text, decoded] : kOps) {
    if (op == text) return Compare(decoded, std::move(v));
  }
  return Compare(Op::kNone, std::move(v));
}

ValueFilter::ValueFilter(const ColumnPredicate& pred) {
  switch (pred.op) {
    case Op::kNone:
      return;  // keeps nothing
    case Op::kIn:
      op_ = Op::kIn;
      for (const Value& item : pred.values) {
        if (!item.is_null()) values_.push_back(item);
      }
      return;
    case Op::kBetween:
      if (pred.values[0].is_null() || pred.values[1].is_null()) return;
      op_ = Op::kBetween;
      values_ = pred.values;
      return;
    case Op::kLike:
      op_ = Op::kLike;
      pattern_ = pred.pattern;
      escape_ = pred.escape;
      return;
    default: {  // kEq..kGe
      const Value& v = pred.values[0];
      if (v.is_null()) return;  // keeps nothing
      op_ = pred.op;
      values_.push_back(v);
      int_literal_ = v.is_int();
      if (int_literal_) literal_int_ = v.AsInt();
      return;
    }
  }
}

template <typename Keep>
size_t ValueFilter::NarrowBy(const std::vector<Value>& column, uint32_t* sel,
                             size_t n, Keep keep) {
  size_t kept = 0;
  for (size_t i = 0; i < n; ++i) {
    const uint32_t at = sel[i];
    sel[kept] = at;
    kept += keep(column[at]) ? 1 : 0;
  }
  return kept;
}

inline bool ValueFilter::Ordered(const Value& v, int* cmp) const {
  if (int_literal_ && v.is_int()) {
    const int64_t a = v.AsInt();
    *cmp = a < literal_int_ ? -1 : (a > literal_int_ ? 1 : 0);
    return true;
  }
  const Value& lit = values_[0];
  if (v.is_null() ||
      !((v.is_numeric() && lit.is_numeric()) || v.type() == lit.type())) {
    return false;
  }
  *cmp = v.Compare(lit);
  return true;
}

inline bool ValueFilter::Equal(const Value& v) const {
  if (int_literal_ && v.is_int()) return v.AsInt() == literal_int_;
  return !v.is_null() && v.Equals(values_[0]);
}

bool ValueFilter::InList(const Value& v) const {
  if (v.is_null()) return false;
  for (const Value& item : values_) {
    if (v.Equals(item)) return true;
  }
  return false;
}

bool ValueFilter::InRange(const Value& v) const {
  return !v.is_null() && v.Compare(values_[0]) >= 0 &&
         v.Compare(values_[1]) <= 0;
}

bool ValueFilter::Like(const Value& v) const {
  return v.is_string() && exec::LikeMatch(v.AsString(), pattern_, escape_);
}

template <typename Fn>
auto ValueFilter::Dispatch(Fn&& fn) const {
  switch (op_) {
    case Op::kNone:
      break;
    case Op::kEq:
      return fn([this](const Value& v) { return Equal(v); });
    case Op::kNe:
      return fn([this](const Value& v) { return !v.is_null() && !Equal(v); });
    case Op::kLt:
      return fn([this](const Value& v) {
        int c = 0;
        return Ordered(v, &c) && c < 0;
      });
    case Op::kLe:
      return fn([this](const Value& v) {
        int c = 0;
        return Ordered(v, &c) && c <= 0;
      });
    case Op::kGt:
      return fn([this](const Value& v) {
        int c = 0;
        return Ordered(v, &c) && c > 0;
      });
    case Op::kGe:
      return fn([this](const Value& v) {
        int c = 0;
        return Ordered(v, &c) && c >= 0;
      });
    case Op::kIn:
      return fn([this](const Value& v) { return InList(v); });
    case Op::kBetween:
      return fn([this](const Value& v) { return InRange(v); });
    case Op::kLike:
      return fn([this](const Value& v) { return Like(v); });
  }
  return fn([](const Value&) { return false; });
}

bool ValueFilter::Keeps(const Value& v) const {
  return Dispatch([&](auto keep) -> bool { return keep(v); });
}

size_t ValueFilter::Narrow(const std::vector<Value>& column, uint32_t* sel,
                           size_t n) const {
  return Dispatch(
      [&](auto keep) -> size_t { return NarrowBy(column, sel, n, keep); });
}

}  // namespace sfsql::storage
