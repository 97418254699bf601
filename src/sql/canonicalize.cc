#include "sql/canonicalize.h"

#include <utility>

#include "sql/printer.h"

namespace sfsql::sql {

namespace {

void WalkExpr(Expr& e, const std::function<void(Expr&)>& fn);

void WalkStatement(SelectStatement& stmt, const std::function<void(Expr&)>& fn) {
  ForEachTopLevelExpr(stmt, [&](ExprPtr& e) { WalkExpr(*e, fn); });
}

void WalkExpr(Expr& e, const std::function<void(Expr&)>& fn) {
  if (e.kind == ExprKind::kLiteral) fn(e);
  if (e.lhs) WalkExpr(*e.lhs, fn);
  if (e.rhs) WalkExpr(*e.rhs, fn);
  for (ExprPtr& a : e.args) WalkExpr(*a, fn);
  if (e.subquery) WalkStatement(*e.subquery, fn);
}

}  // namespace

void ForEachLiteral(SelectStatement& stmt,
                    const std::function<void(Expr&)>& fn) {
  WalkStatement(stmt, fn);
}

void ForEachLiteral(const SelectStatement& stmt,
                    const std::function<void(const Expr&)>& fn) {
  // The walk never mutates unless `fn` does; const-casting here avoids a
  // duplicate walker for the read-only overload.
  WalkStatement(const_cast<SelectStatement&>(stmt),
                [&](Expr& e) { fn(e); });
}

uint64_t FingerprintBytes(std::string_view bytes) {
  uint64_t h = 1469598103934665603ull;  // FNV offset basis
  for (unsigned char c : bytes) {
    h ^= c;
    h *= 1099511628211ull;  // FNV prime
  }
  return h;
}

int DecodeSlot(const storage::Value& v) {
  if (v.is_int()) {
    return v.AsInt() >= 0 && v.AsInt() <= 1 << 20
               ? static_cast<int>(v.AsInt())
               : -1;
  }
  if (v.is_double()) {
    double d = v.AsDouble() - 0.5;
    if (d >= 0.0 && d <= 1 << 20 && d == static_cast<double>(static_cast<int>(d))) {
      return static_cast<int>(d);
    }
    return -1;
  }
  if (v.is_string()) {
    const std::string& s = v.AsString();
    if (s.size() < 2 || s[0] != '$') return -1;
    int slot = 0;
    for (size_t i = 1; i < s.size(); ++i) {
      if (s[i] < '0' || s[i] > '9') return -1;
      slot = slot * 10 + (s[i] - '0');
      if (slot > 1 << 20) return -1;
    }
    return slot;
  }
  return -1;
}

CanonicalQuery Canonicalize(const SelectStatement& stmt) {
  CanonicalQuery out;
  out.statement = stmt.Clone();
  ForEachLiteral(*out.statement, [&](Expr& e) {
    const int slot = static_cast<int>(out.literals.size());
    if (!e.literal.is_string() && !e.literal.is_numeric()) {
      return;  // bools and NULLs stay structural
    }
    out.literals.push_back(std::move(e.literal));
    const storage::Value& literal = out.literals.back();
    if (literal.is_string()) {
      std::string name = "$";
      name += std::to_string(slot);
      e.literal = storage::Value::String(std::move(name));
    } else if (literal.is_int()) {
      e.literal = storage::Value::Int(slot);
    } else {
      e.literal = storage::Value::Double(slot + 0.5);
    }
  });
  out.text = PrintSelect(*out.statement);
  out.fingerprint = FingerprintBytes(out.text);
  return out;
}

}  // namespace sfsql::sql
