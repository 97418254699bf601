#ifndef SFSQL_STORAGE_COLUMN_INDEX_H_
#define SFSQL_STORAGE_COLUMN_INDEX_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "storage/predicate.h"
#include "storage/value.h"

namespace sfsql::storage {

class Table;

/// Counters of the per-column index layer: cumulative per manager via
/// ColumnIndexManager::stats() (sys_* relations, bench metadata), and per
/// calling thread via ColumnIndexManager::ThreadStats(), whose before/after
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
/// Instances are immutable after Build and safe to share across threads.
///
/// Staleness contract for the row-id path: every row id returned by Rows is a
/// global row position (as accepted by Table::at) *as of built_rows()*.
/// Tables are append-only, so the ids stay valid while the table still has
/// exactly built_rows() rows; once NumRows advances, the ids are merely
/// incomplete (they miss the appended rows), and ColumnIndexManager::Get —
/// whose stamp check compares built_rows() against the live size — rebuilds
/// before handing the index out again. A consumer that plans an IndexScan must
/// therefore either (a) hold Database::ReadLock() across both the Get and
/// every row access, so the size cannot advance in between (what the executor
/// does), or (b) re-check built_rows() == num_rows() at use time and replan
/// on mismatch.
class ColumnIndex {
 public:
  /// Scans `table`'s column `attr_index` once and builds the summary. `ngram`
  /// is the LIKE gram size (3 everywhere in practice).
  static ColumnIndex Build(const Table& table, int attr_index, int ngram);

  /// Row count of the table at build time; the index is valid while the table
  /// still has exactly this many rows (tables are append-only, so a row-count
  /// match proves nothing was added since the build).
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
  /// IndexScan; see the staleness contract above).
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
  int ngram_ = 3;
};

/// Lazily builds and caches one ColumnIndex per (relation, attribute) column,
/// thread-safe for concurrent readers: the first probe of a column builds its
/// index under a per-relation mutex (concurrent probes of the same relation
/// wait; other relations proceed), later probes take a lock-free fast path —
/// an atomic published pointer, release-stored by the builder and
/// acquire-loaded per probe. Appending rows invalidates implicitly — every
/// lookup compares the index's built_rows stamp against the current table
/// size and rebuilds on mismatch, which is exact because tables only grow.
/// Superseded indexes are retired, not freed, so a pointer obtained before a
/// rebuild stays valid for the manager's lifetime (rebuilds are rare: one per
/// append burst per column). Writers must still be externally exclusive with
/// readers (the Database has no row-level synchronization either way).
class ColumnIndexManager {
 public:
  explicit ColumnIndexManager(int ngram = 3) : ngram_(ngram) {}

  // Movable so Database stays movable. The atomic counters block the default;
  // moves only happen while the owning Database is being moved, which already
  // requires no concurrent probes, so plain counter copies are safe.
  ColumnIndexManager(ColumnIndexManager&& other) noexcept
      : ngram_(other.ngram_),
        relations_(std::move(other.relations_)),
        builds_(other.builds_.load(kRelaxed)),
        build_nanos_(other.build_nanos_.load(kRelaxed)),
        value_probes_(other.value_probes_.load(kRelaxed)),
        like_probes_(other.like_probes_.load(kRelaxed)),
        like_verified_(other.like_verified_.load(kRelaxed)) {}
  ColumnIndexManager& operator=(ColumnIndexManager&& other) noexcept {
    ngram_ = other.ngram_;
    relations_ = std::move(other.relations_);
    builds_ = other.builds_.load(kRelaxed);
    build_nanos_ = other.build_nanos_.load(kRelaxed);
    value_probes_ = other.value_probes_.load(kRelaxed);
    like_probes_ = other.like_probes_.load(kRelaxed);
    like_verified_ = other.like_verified_.load(kRelaxed);
    return *this;
  }

  /// Declares the column layout (one slot vector per relation); called once by
  /// the Database constructor before any probe.
  void Reset(const std::vector<size_t>& attrs_per_relation);

  /// The current index for the column, building or rebuilding as needed.
  /// The hot path is one atomic acquire-load plus the built_rows stamp check.
  /// The returned pointer stays valid for the manager's lifetime even if a
  /// later append triggers a rebuild (superseded indexes are retired).
  const ColumnIndex* Get(const Table& table, int attr_index) const;

  /// Each Count* adds to both the shared totals and the calling thread's.
  void CountValueProbe() const;
  void CountLikeProbe() const;
  void CountVerified(uint64_t n) const;

  /// Cumulative counters of this manager, across every thread.
  ColumnIndexStats stats() const;
  /// The calling thread's counters, summed over every manager. Before/after
  /// differences count exactly the probes and builds the caller made in
  /// between, whatever other threads do meanwhile.
  static ColumnIndexStats ThreadStats();

  /// Summary of one built column index (the sys_indexes virtual relation).
  struct ColumnIndexInfo {
    int relation_id = -1;
    int attr_index = -1;
    size_t built_rows = 0;
    size_t num_distinct = 0;
    size_t num_distinct_strings = 0;
  };

  /// Every currently published index, without building anything: reads each
  /// slot's published pointer (acquire) and summarizes it. An index whose
  /// built_rows stamp trails the live table size is still listed — callers
  /// (introspection) compare against Table::num_rows to flag staleness.
  std::vector<ColumnIndexInfo> BuiltIndexes() const;

 private:
  static constexpr auto kRelaxed = std::memory_order_relaxed;

  struct Slot {
    Slot() = default;
    // Moves only happen while the whole Database moves (no concurrent
    // probes), so a plain relaxed copy of the published pointer is safe.
    Slot(Slot&& other) noexcept
        : index(std::move(other.index)),
          retired(std::move(other.retired)),
          published(other.published.load(std::memory_order_relaxed)) {}
    /// The live index; replaced under the relation mutex on rebuild.
    std::unique_ptr<const ColumnIndex> index;
    /// Indexes superseded by rebuilds, kept alive so that pointers handed out
    /// through the lock-free fast path never dangle (bounded by the number of
    /// append bursts, not by probe count).
    std::vector<std::unique_ptr<const ColumnIndex>> retired;
    /// Lock-free publication point: release-stored after a build, so an
    /// acquire-load sees the index fully constructed.
    std::atomic<const ColumnIndex*> published{nullptr};
  };
  struct RelationSlots {
    std::mutex mu;
    std::vector<Slot> columns;
  };

  int ngram_;
  /// unique_ptr keeps RelationSlots (whose mutex pins it) address-stable.
  std::vector<std::unique_ptr<RelationSlots>> relations_;
  mutable std::atomic<uint64_t> builds_{0};
  mutable std::atomic<uint64_t> build_nanos_{0};
  mutable std::atomic<uint64_t> value_probes_{0};
  mutable std::atomic<uint64_t> like_probes_{0};
  mutable std::atomic<uint64_t> like_verified_{0};
};

}  // namespace sfsql::storage

#endif  // SFSQL_STORAGE_COLUMN_INDEX_H_
