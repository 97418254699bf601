#ifndef SFSQL_STORAGE_CHUNK_H_
#define SFSQL_STORAGE_CHUNK_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "storage/predicate.h"
#include "storage/value.h"

namespace sfsql::storage {

/// Linear-counting bitmap over Value::Hash estimating a distinct count.
/// 4096 buckets keep the estimate useful up to a full default-capacity chunk
/// (16384 rows ≈ load factor 4; the old 256-bit bitmap saturated at a few
/// hundred distinct values). Sketches over the same hash function OR
/// together, so the union's estimate is the distinct count of the combined
/// value set — table-level NDV merges the per-chunk sketches this way.
struct DistinctSketch {
  static constexpr size_t kBuckets = 4096;
  uint64_t words[kBuckets / 64] = {};

  void Add(size_t hash) {
    // Finalize before bucketing: std::hash over integers is the identity on
    // common standard libraries, so an affine int sequence (sequential ids,
    // strided keys) sweeps the low bits and hits every bucket by n = m —
    // linear counting then saturates at a fraction of the true count. The
    // splitmix64/murmur3 finalizer makes bucket occupancy Bernoulli, which
    // is what the -m·ln(empty/m) estimator assumes.
    uint64_t h = hash;
    h ^= h >> 33;
    h *= 0xff51afd7ed558ccdULL;
    h ^= h >> 33;
    h *= 0xc4ceb9fe1a85ec53ULL;
    h ^= h >> 33;
    const size_t b = h & (kBuckets - 1);
    words[b >> 6] |= uint64_t{1} << (b & 63);
  }

  void Union(const DistinctSketch& other) {
    for (size_t i = 0; i < kBuckets / 64; ++i) words[i] |= other.words[i];
  }

  /// Linear-counting estimate: n ≈ -m·ln(empty/m). Returns kBuckets when
  /// every bucket is hit (the estimate is unbounded there); callers clamp to
  /// their exact non-null add count, which both caps saturation and keeps
  /// small inputs exact.
  size_t Estimate() const;
};

/// Per-column statistics of one chunk, maintained incrementally on append:
/// min/max (Value::Compare order), NULL count, and a linear-counting sketch
/// (over Value::Hash) estimating the distinct count. The planner prunes
/// whole chunks against sargable predicates with `CanPrune` before it ever
/// consults a column index.
class ChunkStats {
 public:
  /// Folds one appended value into the stats.
  void Add(const Value& v);

  /// True if every value seen so far was NULL (or nothing was appended).
  bool all_null() const { return !has_values_; }
  size_t null_count() const { return null_count_; }
  /// Non-NULL values appended so far (an exact upper bound on the distinct
  /// count, used to clamp the sketch estimate).
  size_t non_null_count() const { return non_null_count_; }
  /// Smallest / largest non-NULL value; meaningless while all_null().
  const Value& min() const { return min_; }
  const Value& max() const { return max_; }

  /// Estimated number of distinct non-NULL values: the sketch's linear
  /// count, clamped to the exact non-null count (so few-valued chunks are
  /// exact and a saturated sketch can never exceed the truth).
  size_t DistinctEstimate() const;

  /// The raw sketch, for cross-chunk unions (table-level NDV).
  const DistinctSketch& distinct_sketch() const { return sketch_; }

  /// True when no row of the chunk can satisfy `pred`: the column is all
  /// NULL (every predicate over NULL is false under two-valued logic), or
  /// [min, max] lies where the predicate's operands cannot reach. A LIKE
  /// prunes only an all-NULL chunk. Conservative: an operand of another type
  /// class than the column never prunes.
  bool CanPrune(const ColumnPredicate& pred) const;

 private:
  bool Comparable(const Value& lit) const {
    return (min_.is_numeric() && lit.is_numeric()) || min_.type() == lit.type();
  }
  /// CanPrune for `col op lit` on a chunk with values.
  bool CanPruneCompare(ColumnPredicate::Op op, const Value& lit) const;

  bool has_values_ = false;
  Value min_;
  Value max_;
  size_t null_count_ = 0;
  size_t non_null_count_ = 0;
  DistinctSketch sketch_;
};

/// A fixed-capacity columnar segment: one value vector per attribute, all the
/// same length, plus per-attribute ChunkStats. Appends are row-at-a-time (the
/// write path stays tuple-oriented); reads are column-at-a-time.
class Chunk {
 public:
  explicit Chunk(size_t num_attrs) : columns_(num_attrs), stats_(num_attrs) {}

  size_t size() const { return columns_.empty() ? 0 : columns_[0].size(); }
  size_t num_attrs() const { return columns_.size(); }

  const std::vector<Value>& column(size_t attr) const { return columns_[attr]; }
  const ChunkStats& stats(size_t attr) const { return stats_[attr]; }

  /// Splits `row` (already arity-checked) across the column vectors and folds
  /// each value into its column's stats.
  void Append(Row row) {
    for (size_t a = 0; a < columns_.size(); ++a) {
      stats_[a].Add(row[a]);
      columns_[a].push_back(std::move(row[a]));
    }
  }

 private:
  std::vector<std::vector<Value>> columns_;
  std::vector<ChunkStats> stats_;
};

}  // namespace sfsql::storage

#endif  // SFSQL_STORAGE_CHUNK_H_
