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
  using Op = ColumnPredicate::Op;
  if (!has_values_) return true;  // all-NULL chunk
  switch (pred.op) {
    case Op::kIn:
      return std::all_of(
          pred.values.begin(), pred.values.end(),
          [&](const Value& item) { return CanPruneCompare(Op::kEq, item); });
    case Op::kBetween: {
      const Value& low = pred.values[0];
      const Value& high = pred.values[1];
      if (low.is_null() || high.is_null()) return true;
      if (!Comparable(low) || !Comparable(high)) return false;
      return max_.Compare(low) < 0 || min_.Compare(high) > 0;
    }
    case Op::kLike:
      return false;  // min/max say nothing about pattern matches
    default:
      return CanPruneCompare(pred.op, pred.values[0]);
  }
}

bool ChunkStats::CanPruneCompare(ColumnPredicate::Op op,
                                 const Value& lit) const {
  using Op = ColumnPredicate::Op;
  if (lit.is_null()) return true;  // NULL comparisons never hold
  if (!Comparable(lit)) return false;
  switch (op) {
    case Op::kEq:
      return lit.Compare(min_) < 0 || lit.Compare(max_) > 0;
    case Op::kNe:
      // Prunable only when every non-NULL value equals the literal. Compare
      // and Equals agree on int/double coercion, so Compare == 0 is exact.
      return min_.Compare(lit) == 0 && max_.Compare(lit) == 0;
    case Op::kLt: return min_.Compare(lit) >= 0;
    case Op::kLe: return min_.Compare(lit) > 0;
    case Op::kGt: return max_.Compare(lit) <= 0;
    case Op::kGe: return max_.Compare(lit) < 0;
    default: return false;
  }
}

}  // namespace sfsql::storage
