#ifndef SFSQL_STORAGE_COLUMN_INDEX_H_
#define SFSQL_STORAGE_COLUMN_INDEX_H_

#include <atomic>
#include <cstdint>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "storage/predicate.h"
#include "storage/value.h"

namespace sfsql::storage {

class Table;

/// Counters of the per-column index layer: cumulative per database via
/// ColumnIndexCounters::stats() (sys_* relations, bench metadata), and per
/// calling thread via ColumnIndexCounters::ThreadStats(), whose before/after
/// differences give one Translate's own probes and builds.
struct ColumnIndexStats {
  uint64_t builds = 0;          ///< column indexes (re)built
  double build_seconds = 0.0;   ///< wall time spent building
  uint64_t value_probes = 0;    ///< comparison probes answered by an index
  uint64_t like_probes = 0;     ///< LIKE probes answered via the trigram index
  uint64_t like_candidates_verified = 0;  ///< distinct strings LikeMatch-checked
                                          ///< after trigram pre-filtering
};

/// Immutable content summary of one (relation, attribute) column, built in one
/// pass over the table:
///
///  * the distinct non-null values, sorted by Value::Compare — the total order
///    groups values into type classes (bool < numeric < string) and coincides
///    with Value::Equals inside a class, so every predicate but LIKE reduces
///    to binary searches for the ranges of distinct values it keeps;
///  * a trigram posting-list index over the distinct strings: a string
///    matching a LIKE pattern must contain every literal run of the pattern,
///    hence every trigram of every run, so intersecting posting lists leaves
///    only a few candidates for exact LikeMatch verification;
///  * per distinct value, the ascending list of row positions holding that
///    value (CSR layout), so the same structure answers both the §4.3
///    existence probes and the executor's IndexScan row retrieval.
///
/// Instances are immutable after Build and safe to share across threads. An
/// index belongs to the one table version it was built over (see Table in
/// database.h): its row ids are global row positions of that version, valid
/// for as long as the version is pinned, and it is freed with the version.
class ColumnIndex {
 public:
  /// Scans `table`'s column `attr_index` once and builds the summary.
  static ColumnIndex Build(const Table& table, int attr_index);

  /// Row count of the table version the index was built over.
  size_t built_rows() const { return built_rows_; }

  // --- predicate answers. Each computes once which distinct-value ranges
  // satisfy `pred` (see ColumnPredicate for the semantics) and derives its
  // answer from them. `*verified` (optional) is incremented per distinct
  // string a LIKE hands to LikeMatch, i.e. the work the trigram pre-filter
  // could not eliminate.

  /// Exact number of rows satisfying `pred`, from the CSR offsets — no row
  /// id is touched.
  size_t Count(const ColumnPredicate& pred, uint64_t* verified = nullptr) const;

  /// Ascending row positions of the rows satisfying `pred` (the executor's
  /// IndexScan).
  std::vector<uint32_t> Rows(const ColumnPredicate& pred,
                             uint64_t* verified = nullptr) const;

  /// True if some row satisfies `pred`; a LIKE stops at the first verified
  /// match.
  bool Exists(const ColumnPredicate& pred, uint64_t* verified = nullptr) const;

  size_t num_distinct() const { return values_.size(); }
  size_t num_distinct_strings() const { return values_.size() - string_begin_; }

 private:
  ColumnIndex() = default;

  /// Calls visit(first, last) for each [first, last) range of values_ whose
  /// distinct values satisfy `pred` — non-empty, disjoint and ascending —
  /// until visit returns false (a LIKE then stops verifying). Defined and
  /// instantiated in column_index.cc only.
  template <typename Visit>
  void Match(const ColumnPredicate& pred, uint64_t* verified,
             Visit&& visit) const;

  /// [first, last) range of values_ holding the probe's type class; empty for
  /// NULL probes.
  std::pair<size_t, size_t> ClassRange(const Value& probe) const;

  /// [first, last) equal range of `value` across the whole Compare order.
  std::pair<size_t, size_t> EqualRange(const Value& value) const;

  /// Match for LIKE: one one-value range per matching distinct string.
  template <typename Visit>
  void MatchLike(std::string_view pattern, char escape, uint64_t* verified,
                 Visit&& visit) const;

  std::vector<Value> values_;  ///< distinct non-null values, Compare-sorted
  size_t numeric_begin_ = 0;   ///< bools live in [0, numeric_begin_)
  size_t string_begin_ = 0;    ///< numerics in [numeric_begin_, string_begin_)
  /// Trigram -> ascending offsets into values_ (absolute, all >= string_begin_)
  /// of the distinct strings containing that gram.
  std::unordered_map<std::string, std::vector<uint32_t>> postings_;
  /// CSR row-id storage: row_ids_[row_id_begin_[i], row_id_begin_[i+1]) are
  /// the ascending row positions holding distinct value i.
  std::vector<uint32_t> row_ids_;
  std::vector<uint32_t> row_id_begin_;  ///< values_.size() + 1 offsets
  size_t built_rows_ = 0;
};

/// Summary of one built column index (the sys_indexes virtual relation).
struct ColumnIndexInfo {
  int relation_id = -1;
  int attr_index = -1;
  size_t built_rows = 0;
  size_t num_distinct = 0;
  size_t num_distinct_strings = 0;
};

/// The counters of one Database's column indexes, shared by all its table
/// versions: cumulative totals in atomics, plus the calling thread's share
/// in thread-local tallies (ThreadStats).
class ColumnIndexCounters {
 public:
  /// Each Count* adds to both the shared totals and the calling thread's.
  void CountBuild(uint64_t nanos) const;
  void CountValueProbe() const;
  void CountLikeProbe() const;
  void CountVerified(uint64_t n) const;

  /// Cumulative counters of this database, across every thread.
  ColumnIndexStats stats() const;
  /// The calling thread's counters, summed over every database. Before/after
  /// differences count exactly the probes and builds the caller made in
  /// between, whatever other threads do meanwhile.
  static ColumnIndexStats ThreadStats();

 private:
  static constexpr auto kRelaxed = std::memory_order_relaxed;

  mutable std::atomic<uint64_t> builds_{0};
  mutable std::atomic<uint64_t> build_nanos_{0};
  mutable std::atomic<uint64_t> value_probes_{0};
  mutable std::atomic<uint64_t> like_probes_{0};
  mutable std::atomic<uint64_t> like_verified_{0};
};

}  // namespace sfsql::storage

#endif  // SFSQL_STORAGE_COLUMN_INDEX_H_
