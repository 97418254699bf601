#ifndef SFSQL_STORAGE_DATABASE_H_
#define SFSQL_STORAGE_DATABASE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <shared_mutex>
#include <string_view>
#include <vector>

#include "catalog/catalog.h"
#include "common/result.h"
#include "storage/chunk.h"
#include "storage/column_index.h"
#include "storage/value.h"

namespace sfsql::storage {

/// Default rows per chunk. Tests pass a tiny capacity through the Database
/// constructor to exercise chunk boundaries without millions of rows.
inline constexpr size_t kDefaultChunkCapacity = 16384;

/// Table-level per-column statistics, merged across every chunk's ChunkStats:
/// row/null counts, Compare-order min/max, and a distinct estimate from the
/// union of the per-chunk linear-counting sketches (clamped to the non-null
/// count). Feeds the cost model's selectivity estimates and the
/// sys_column_stats introspection relation. Read the table under
/// Database::ReadLock() if inserts may be concurrent.
struct ColumnStats {
  size_t rows = 0;
  size_t null_count = 0;
  size_t non_null_count = 0;
  size_t distinct_estimate = 0;
  bool has_values = false;  ///< false when every value is NULL (min/max unset)
  Value min;
  Value max;

  double null_fraction() const {
    return rows == 0 ? 0.0
                     : static_cast<double>(null_count) /
                           static_cast<double>(rows);
  }
};

/// Columnar store for one relation: rows live in a sequence of fixed-capacity
/// chunks (see chunk.h), each holding one value vector per attribute plus
/// per-attribute min/max/null/distinct statistics. Scans touch only the
/// columns they reference, and sargable predicates prune whole chunks via the
/// stats before any index is consulted.
/// Append-only — the column-index layer relies on
/// this: an index built at row count n is exactly valid while num_rows() == n.
class Table {
 public:
  Table(int relation_id, size_t num_attrs,
        size_t chunk_capacity = kDefaultChunkCapacity)
      : relation_id_(relation_id),
        num_attrs_(num_attrs),
        chunk_capacity_(chunk_capacity == 0 ? 1 : chunk_capacity) {}

  int relation_id() const { return relation_id_; }
  size_t num_attrs() const { return num_attrs_; }
  size_t num_rows() const { return num_rows_; }

  size_t chunk_capacity() const { return chunk_capacity_; }
  size_t num_chunks() const { return chunks_.size(); }
  const Chunk& chunk(size_t i) const { return chunks_[i]; }

  /// Value of attribute `attr` in global row `row`. Row ids are stable
  /// (append-only), so `row / chunk_capacity()` is the chunk and the remainder
  /// the offset within it — the same arithmetic consumers use to walk one
  /// column chunk-at-a-time.
  const Value& at(size_t row, size_t attr) const {
    return chunks_[row / chunk_capacity_].column(attr)[row % chunk_capacity_];
  }

  void Append(Row row) {
    if (chunks_.empty() || chunks_.back().size() == chunk_capacity_) {
      chunks_.emplace_back(num_attrs_);
    }
    chunks_.back().Append(std::move(row));
    ++num_rows_;
  }

  /// Pre-sizes the chunk directory for a bulk load of `total` rows.
  void Reserve(size_t total) {
    chunks_.reserve((total + chunk_capacity_ - 1) / chunk_capacity_);
  }

  /// Merges every chunk's statistics for attribute `attr` into table-level
  /// ColumnStats (see the struct for the estimate semantics).
  ColumnStats ColumnStatsFor(size_t attr) const;

 private:
  int relation_id_;
  size_t num_attrs_;
  size_t chunk_capacity_;
  size_t num_rows_ = 0;
  std::vector<Chunk> chunks_;
};

/// An in-memory relational database: a catalog plus one table per relation.
/// This is the substrate the composed full SQL runs on, and the source of the
/// condition-satisfiability signal in the attribute-level similarity (§4.3).
class Database {
 public:
  /// Takes ownership of the catalog and creates an empty table per relation.
  /// `chunk_capacity` sets the rows-per-chunk of every table; tests pass a
  /// small value to hit chunk boundaries cheaply.
  explicit Database(catalog::Catalog catalog,
                    size_t chunk_capacity = kDefaultChunkCapacity);

  // Movable (test fixtures build databases by value). The mutex and the
  // atomic epoch block the defaults; a move already requires that no reader
  // or writer is concurrent, so a fresh mutex and a plain epoch copy are
  // safe — same reasoning as ColumnIndexManager's moves.
  Database(Database&& other) noexcept
      : catalog_(std::move(other.catalog_)),
        tables_(std::move(other.tables_)),
        indexes_(std::move(other.indexes_)),
        relation_epochs_(std::move(other.relation_epochs_)),
        epoch_(other.epoch_.load(std::memory_order_relaxed)) {}
  Database& operator=(Database&& other) noexcept {
    catalog_ = std::move(other.catalog_);
    tables_ = std::move(other.tables_);
    indexes_ = std::move(other.indexes_);
    relation_epochs_ = std::move(other.relation_epochs_);
    epoch_ = other.epoch_.load(std::memory_order_relaxed);
    return *this;
  }

  const catalog::Catalog& catalog() const { return catalog_; }

  const Table& table(int relation_id) const { return tables_[relation_id]; }

  /// Row count of one relation, read under the data lock — safe against
  /// concurrent Insert (table(r).num_rows() without the lock races with the
  /// chunk directory growing). The sys_relations and sys_indexes relations
  /// read it.
  size_t NumRows(int relation_id) const;

  /// Appends `row` to relation `relation_id` after checking arity and that each
  /// value is NULL or matches the declared attribute type. Appending
  /// invalidates the relation's column indexes (they rebuild lazily on the
  /// next probe — see ColumnIndexManager).
  Status Insert(int relation_id, Row row);

  /// Bulk variant of Insert: one relation lookup and one capacity reservation
  /// for the whole batch. All-or-nothing — the entire batch is validated up
  /// front, and on any arity/type error nothing is inserted and neither the
  /// global nor the relation epoch moves (cached plans stay valid).
  Status InsertRows(int relation_id, std::vector<Row> rows);

  /// Total tuples across all relations.
  size_t TotalRows() const;

  /// Monotonic data-change stamp: bumped once per successful Insert /
  /// InsertRows call, across all relations. The catalog is immutable after
  /// construction, so this stamp versions everything a translation can read
  /// from the database. Failed inserts leave it untouched.
  uint64_t epoch() const { return epoch_.load(std::memory_order_acquire); }

  /// Per-relation data-change stamp: bumped only by successful inserts into
  /// `relation_id`. The plan cache stamps tier-2 entries with the epochs of
  /// just the relations a plan reads, so writes elsewhere don't evict them.
  uint64_t RelationEpoch(int relation_id) const;

  /// Consistent snapshot of every relation's epoch (index = relation id).
  std::vector<uint64_t> RelationEpochs() const;

  /// True if (relation_id, attr_index) names a column of the catalog.
  bool HasColumn(int relation_id, int attr_index) const {
    return relation_id >= 0 && relation_id < catalog_.num_relations() &&
           attr_index >= 0 &&
           static_cast<size_t>(attr_index) <
               catalog_.relation(relation_id).attributes.size();
  }

  /// True if some tuple's `attr` value satisfies `op value` (used by the mapper's
  /// (m+1)/(n+1) condition factor). `op` is one of "=", "<>", "<", "<=", ">", ">=".
  /// Type-incompatible comparisons are unsatisfied. Answered from the lazily
  /// built per-column index in O(log distinct).
  bool AnyTupleSatisfies(int relation_id, int attr_index, std::string_view op,
                         const Value& value) const;

  /// True if some tuple's `attr` string value matches the LIKE pattern (the
  /// LIKE arm of the mapper's condition-satisfiability check). The probe
  /// pre-filters through the column index's trigram posting lists and verifies
  /// only the surviving distinct strings with exec::LikeMatch.
  bool AnyStringMatchesLike(int relation_id, int attr_index,
                            std::string_view pattern, char escape) const;

  /// Counters of the column-index layer (builds, probes by kind); cumulative
  /// over the database's lifetime, shared by all engines probing it. One
  /// caller's own share comes from ColumnIndexManager::ThreadStats().
  ColumnIndexStats column_index_stats() const { return indexes_.stats(); }

  /// Summaries of every currently built column index (nothing is built by
  /// this call); feeds the sys_indexes virtual relation.
  std::vector<ColumnIndexManager::ColumnIndexInfo> BuiltColumnIndexes() const {
    return indexes_.BuiltIndexes();
  }

  /// Shared data lock for executors. Holding it pins every table's row count,
  /// which (tables being append-only) freezes row contents too — so a column
  /// index fetched under the lock stays exactly valid for every row id it
  /// returns until the lock is released (see the staleness contract in
  /// column_index.h). Inserts block for the duration; probes and other
  /// readers proceed. Callers must not re-acquire (std::shared_mutex is not
  /// recursive) — the executor takes it once per top-level Execute, and the
  /// satisfiability probes take it internally only on their own call paths.
  std::shared_lock<std::shared_mutex> ReadLock() const {
    return std::shared_lock<std::shared_mutex>(data_mu_);
  }

  /// The current column index for (relation, attribute), building lazily on
  /// first use. Callers planning an IndexScan must hold ReadLock() across
  /// this call and every access to the returned row ids (otherwise a
  /// concurrent insert makes the ids incomplete — column_index.h documents
  /// the full contract). The pointer itself stays valid for the database's
  /// lifetime.
  const ColumnIndex* ColumnIndexFor(int relation_id, int attr_index) const {
    return indexes_.Get(tables_[relation_id], attr_index);
  }

 private:
  /// Arity + per-value type check of Insert, shared with the bulk path.
  static Status ValidateRow(const catalog::Relation& rel, const Row& row);

  catalog::Catalog catalog_;
  std::vector<Table> tables_;
  /// Lazily built per-column satisfiability indexes; mutable because probing
  /// (a logically const read) may build, and ColumnIndexManager is internally
  /// synchronized for concurrent readers.
  mutable ColumnIndexManager indexes_;
  /// Guards the row stores against concurrent mutation: inserts take it
  /// exclusively, satisfiability probes (which may read rows to build an
  /// index) take it shared. Query execution over result rows is a
  /// separate, coarser concern and is not guarded here — the serving path
  /// this protects is Translate, which touches rows only through the probes.
  mutable std::shared_mutex data_mu_;
  /// Per-relation insert stamps, guarded by data_mu_ (plain integers, not
  /// atomics, so Database stays movable).
  std::vector<uint64_t> relation_epochs_;
  std::atomic<uint64_t> epoch_{0};
};

}  // namespace sfsql::storage

#endif  // SFSQL_STORAGE_DATABASE_H_
