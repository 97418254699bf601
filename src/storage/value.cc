#include "storage/value.h"

#include <cmath>
#include <functional>
#include <sstream>

namespace sfsql::storage {

catalog::ValueType Value::type() const {
  if (is_null()) return catalog::ValueType::kNull;
  if (is_bool()) return catalog::ValueType::kBool;
  if (is_int()) return catalog::ValueType::kInt64;
  if (is_double()) return catalog::ValueType::kDouble;
  return catalog::ValueType::kString;
}

bool Value::Equals(const Value& other) const {
  if (is_null() || other.is_null()) return is_null() && other.is_null();
  if (is_numeric() && other.is_numeric()) {
    if (is_int() && other.is_int()) return AsInt() == other.AsInt();
    return AsDouble() == other.AsDouble();
  }
  if (type() != other.type()) return false;
  return data_ == other.data_;
}

namespace {
int TypeRank(const Value& v) {
  if (v.is_null()) return 0;
  if (v.is_bool()) return 1;
  if (v.is_numeric()) return 2;
  return 3;
}
}  // namespace

int Value::Compare(const Value& other) const {
  int ra = TypeRank(*this);
  int rb = TypeRank(other);
  if (ra != rb) return ra < rb ? -1 : 1;
  switch (ra) {
    case 0:
      return 0;
    case 1:
      return (AsBool() == other.AsBool()) ? 0 : (AsBool() ? 1 : -1);
    case 2: {
      if (is_int() && other.is_int()) {
        int64_t a = AsInt();
        int64_t b = other.AsInt();
        return a == b ? 0 : (a < b ? -1 : 1);
      }
      double a = AsDouble();
      double b = other.AsDouble();
      return a == b ? 0 : (a < b ? -1 : 1);
    }
    default: {
      int cmp = AsString().compare(other.AsString());
      return cmp == 0 ? 0 : (cmp < 0 ? -1 : 1);
    }
  }
}

std::string Value::ToSqlLiteral() const {
  if (is_null()) return "NULL";
  if (is_bool()) return AsBool() ? "TRUE" : "FALSE";
  if (is_string()) {
    std::string out = "'";
    for (char c : AsString()) {
      if (c == '\'') out += "''";
      else out += c;
    }
    out += "'";
    return out;
  }
  if (is_double()) {
    // Keep the literal double-typed on re-parse: a bare "8" would come back
    // as an int and break the printer/parser round trip the plan cache's
    // canonical keys rely on.
    std::string out = ToString();
    if (out.find_first_of(".eE") == std::string::npos) out += ".0";
    return out;
  }
  return ToString();
}

std::string Value::ToString() const {
  if (is_null()) return "NULL";
  if (is_bool()) return AsBool() ? "TRUE" : "FALSE";
  if (is_int()) return std::to_string(AsInt());
  if (is_double()) {
    std::ostringstream os;
    os << AsDouble();
    return os.str();
  }
  return AsString();
}

size_t Value::Hash() const {
  if (is_null()) return 0x7f7f7f7f;
  if (is_bool()) return AsBool() ? 2 : 1;
  if (is_numeric()) {
    // Ints and integral doubles must hash alike because Equals coerces.
    double d = AsDouble();
    double rounded = std::nearbyint(d);
    if (d == rounded && std::abs(d) < 9.0e18) {
      return std::hash<int64_t>{}(static_cast<int64_t>(rounded));
    }
    return std::hash<double>{}(d);
  }
  return std::hash<std::string>{}(AsString());
}

bool InDeclaredClass(catalog::ValueType declared, const Value& v) {
  switch (declared) {
    case catalog::ValueType::kBool: return v.is_bool();
    case catalog::ValueType::kInt64:
    case catalog::ValueType::kDouble: return v.is_numeric();
    case catalog::ValueType::kString: return v.is_string();
    default: return false;
  }
}

}  // namespace sfsql::storage
