#include "storage/chunk.h"

#include <algorithm>
#include <bit>
#include <cmath>

namespace sfsql::storage {

size_t DistinctSketch::Estimate() const {
  size_t zeros = 0;
  for (uint64_t word : words) zeros += 64 - std::popcount(word);
  if (zeros == 0) return kBuckets;
  const double m = static_cast<double>(kBuckets);
  return static_cast<size_t>(
      std::lround(-m * std::log(static_cast<double>(zeros) / m)));
}

void ChunkStats::Add(const Value& v) {
  if (v.is_null()) {
    ++null_count_;
    return;
  }
  ++non_null_count_;
  if (!has_values_) {
    min_ = v;
    max_ = v;
    has_values_ = true;
  } else {
    if (v.Compare(min_) < 0) min_ = v;
    if (v.Compare(max_) > 0) max_ = v;
  }
  sketch_.Add(v.Hash());
}

size_t ChunkStats::DistinctEstimate() const {
  return std::min(sketch_.Estimate(), non_null_count_);
}

bool ChunkStats::CanPrune(const ColumnPredicate& pred) const {
  if (!has_values_) return true;  // all-NULL chunk
  switch (pred.kind) {
    case ColumnPredicate::Kind::kCompare:
      return CanPruneCompare(pred.op, pred.values[0]);
    case ColumnPredicate::Kind::kIn:
      return std::all_of(
          pred.values.begin(), pred.values.end(),
          [&](const Value& item) { return CanPruneCompare("=", item); });
    case ColumnPredicate::Kind::kBetween: {
      const Value& low = pred.values[0];
      const Value& high = pred.values[1];
      if (low.is_null() || high.is_null()) return true;
      if (!Comparable(low) || !Comparable(high)) return false;
      return max_.Compare(low) < 0 || min_.Compare(high) > 0;
    }
    case ColumnPredicate::Kind::kLike:
      return false;  // min/max say nothing about pattern matches
  }
  return false;
}

bool ChunkStats::CanPruneCompare(std::string_view op, const Value& lit) const {
  if (lit.is_null()) return true;  // NULL comparisons never hold
  if (!Comparable(lit)) return false;
  if (op == "=") {
    return lit.Compare(min_) < 0 || lit.Compare(max_) > 0;
  }
  if (op == "<>" || op == "!=") {
    // Prunable only when every non-NULL value equals the literal. Compare and
    // Equals agree on int/double coercion, so Compare == 0 is exact here.
    return min_.Compare(lit) == 0 && max_.Compare(lit) == 0;
  }
  if (op == "<") return min_.Compare(lit) >= 0;
  if (op == "<=") return min_.Compare(lit) > 0;
  if (op == ">") return max_.Compare(lit) <= 0;
  if (op == ">=") return max_.Compare(lit) < 0;
  return false;
}

}  // namespace sfsql::storage
