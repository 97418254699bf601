#ifndef SFSQL_STORAGE_DATABASE_H_
#define SFSQL_STORAGE_DATABASE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
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
/// sys_column_stats introspection relation.
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

/// One immutable version of one relation's rows. Rows live in a sequence of
/// fixed-capacity chunks (see chunk.h), each holding one value vector per
/// attribute plus per-attribute min/max/null/distinct statistics. Scans touch
/// only the columns they reference, and sargable predicates prune whole
/// chunks via the stats before any index is consulted.
///
/// An insert never changes a version: Append makes the next one, which
/// shares every sealed chunk by pointer and copies only the chunk directory
/// and the open (last, partly filled) chunk. So a reader that pins a version
/// (Database::Pin) reads the same rows, chunk statistics and column indexes
/// however many inserts land meanwhile. Row ids are global positions:
/// `row / chunk_capacity()` is the chunk and the remainder the offset in it.
class Table {
 public:
  /// `counters` (the owning database's) count this version's index builds.
  Table(size_t num_attrs, size_t chunk_capacity,
        const ColumnIndexCounters* counters)
      : num_attrs_(num_attrs),
        chunk_capacity_(chunk_capacity == 0 ? 1 : chunk_capacity),
        counters_(counters),
        indexes_(num_attrs) {}

  size_t num_attrs() const { return num_attrs_; }
  size_t num_rows() const { return num_rows_; }

  size_t chunk_capacity() const { return chunk_capacity_; }
  size_t num_chunks() const { return chunks_.size(); }
  const Chunk& chunk(size_t i) const { return *chunks_[i]; }

  /// Value of attribute `attr` in global row `row`.
  const Value& at(size_t row, size_t attr) const {
    return chunks_[row / chunk_capacity_]->column(attr)[row % chunk_capacity_];
  }

  /// Merges every chunk's statistics for attribute `attr` into table-level
  /// ColumnStats (see the struct for the estimate semantics).
  ColumnStats ColumnStatsFor(size_t attr) const;

  /// This version's column index over `attr`, built on first use under a
  /// per-version mutex (concurrent callers wait for the one build); later
  /// calls take a lock-free fast path, one acquire-load of the published
  /// pointer. The index lives as long as the version.
  const ColumnIndex& Index(int attr) const;

  /// The index over `attr` if some caller already built it, else null;
  /// builds nothing.
  const ColumnIndex* BuiltIndex(int attr) const {
    return indexes_[attr].published.load(std::memory_order_acquire);
  }

  /// The next version: this one's rows followed by `rows` (already
  /// validated). Sealed chunks are shared with this version; the open chunk
  /// is copied before the first append to it.
  std::shared_ptr<const Table> Append(std::vector<Row> rows) const;

 private:
  struct IndexSlot {
    std::unique_ptr<const ColumnIndex> index;  ///< set once, under index_mu_
    /// Release-stored after the build, so an acquire-load sees the index
    /// fully constructed.
    std::atomic<const ColumnIndex*> published{nullptr};
  };

  size_t num_attrs_;
  size_t chunk_capacity_;
  const ColumnIndexCounters* counters_;
  size_t num_rows_ = 0;
  std::vector<std::shared_ptr<const Chunk>> chunks_;
  mutable std::mutex index_mu_;
  mutable std::vector<IndexSlot> indexes_;  ///< one per attribute
};

/// The versions one reader pinned: one database state over the relations it
/// reads. Copies share the pins; the versions stay alive while a copy does.
class Snapshot {
 public:
  const catalog::Catalog& catalog() const { return *catalog_; }

  /// The pinned version of `relation_id`, which must be one of the pinned
  /// relations.
  const Table& table(int relation_id) const { return *tables_[relation_id]; }

 private:
  friend class Database;
  const catalog::Catalog* catalog_ = nullptr;
  std::vector<std::shared_ptr<const Table>> tables_;  ///< by relation id
};

/// An in-memory relational database: a catalog plus one current table
/// version per relation. This is the substrate the composed full SQL runs
/// on, and the source of the condition-satisfiability signal in the
/// attribute-level similarity (§4.3).
///
/// Readers never block writers and writers never block readers: an insert
/// builds the relation's next version under one writer mutex and publishes
/// it with one pointer swap; a reader pins the current version (one
/// shared_ptr copy) and reads it without a lock. A version is freed when the
/// last pin on it goes, with the column indexes built over it.
class Database {
 public:
  /// Takes ownership of the catalog and creates an empty table per relation.
  /// `chunk_capacity` sets the rows-per-chunk of every table; tests pass a
  /// small value to hit chunk boundaries cheaply.
  explicit Database(catalog::Catalog catalog,
                    size_t chunk_capacity = kDefaultChunkCapacity);

  // Movable (test fixtures build databases by value). The writer mutex and
  // the atomic epoch block the defaults; a move already requires that no
  // reader or writer is concurrent, so a fresh mutex and a plain epoch copy
  // are safe.
  Database(Database&& other) noexcept
      : catalog_(std::move(other.catalog_)),
        counters_(std::move(other.counters_)),
        tables_(std::move(other.tables_)),
        relation_epochs_(std::move(other.relation_epochs_)),
        epoch_(other.epoch_.load(std::memory_order_relaxed)) {}
  Database& operator=(Database&& other) noexcept {
    catalog_ = std::move(other.catalog_);
    counters_ = std::move(other.counters_);
    tables_ = std::move(other.tables_);
    relation_epochs_ = std::move(other.relation_epochs_);
    epoch_ = other.epoch_.load(std::memory_order_relaxed);
    return *this;
  }

  const catalog::Catalog& catalog() const { return catalog_; }

  /// The current version of `relation_id`, valid until the next insert into
  /// it. For callers with no concurrent writer (loaders, benches); a reader
  /// racing inserts pins instead.
  const Table& table(int relation_id) const { return *Pin(relation_id); }

  /// Pins the current version of `relation_id`: it stays valid, and
  /// unchanged, for as long as the returned pointer lives.
  std::shared_ptr<const Table> Pin(int relation_id) const {
    const VersionSlot& slot = tables_[relation_id];
    std::lock_guard<std::mutex> lock(slot.mu);
    return slot.current;
  }

  /// Pins the current versions of `relation_ids` as one database state: if
  /// an insert lands while they are pinned, they are pinned again.
  Snapshot Pin(const std::vector<int>& relation_ids) const;

  /// Appends `row` to relation `relation_id` after checking arity and that each
  /// value is NULL or matches the declared attribute type (InsertRows of one
  /// row).
  Status Insert(int relation_id, Row row);

  /// Appends a batch as one new version of the relation. All-or-nothing —
  /// the entire batch is validated up front, and on any arity/type error
  /// nothing is inserted and neither the global nor the relation epoch moves
  /// (cached plans stay valid). The new version starts with no column
  /// indexes; they build lazily on the next probe.
  Status InsertRows(int relation_id, std::vector<Row> rows);

  /// Total tuples across all relations.
  size_t TotalRows() const;

  /// Monotonic data-change stamp: bumped once per successful Insert /
  /// InsertRows call, across all relations, after the new version is
  /// published. The catalog is immutable after construction, so this stamp
  /// versions everything a translation can read from the database. Failed
  /// inserts leave it untouched.
  uint64_t epoch() const { return epoch_.load(std::memory_order_acquire); }

  /// Per-relation data-change stamp: bumped only by successful inserts into
  /// `relation_id`. The plan cache stamps tier-2 entries with the epochs of
  /// just the relations a plan reads, so writes elsewhere don't evict them.
  uint64_t RelationEpoch(int relation_id) const {
    return relation_epochs_[relation_id].load(std::memory_order_acquire);
  }

  /// Every relation's epoch (index = relation id).
  std::vector<uint64_t> RelationEpochs() const;

  /// True if (relation_id, attr_index) names a column of the catalog.
  bool HasColumn(int relation_id, int attr_index) const {
    return relation_id >= 0 && relation_id < catalog_.num_relations() &&
           attr_index >= 0 &&
           static_cast<size_t>(attr_index) <
               catalog_.relation(relation_id).attributes.size();
  }

  /// True if some tuple's `attr` value satisfies `pred` — the condition
  /// satisfiability of the mapper's (m+1)/(n+1) factor (§4.3), answered from
  /// the column index of the relation's current version. Bad ordinals are
  /// unsatisfied. It differs from SQL in one place: a comparison against a
  /// literal outside the column's declared type class is unsatisfied, where
  /// SQL's `<>` keeps every non-null row.
  bool AnyTupleSatisfies(int relation_id, int attr_index,
                         const ColumnPredicate& pred) const;

  /// Counters of the column-index layer (builds, probes by kind); cumulative
  /// over the database's lifetime, shared by all engines probing it. One
  /// caller's own share comes from ColumnIndexCounters::ThreadStats().
  ColumnIndexStats column_index_stats() const { return counters_->stats(); }

  /// Summaries of the column indexes built over each relation's current
  /// version (nothing is built by this call); feeds the sys_indexes virtual
  /// relation.
  std::vector<ColumnIndexInfo> BuiltColumnIndexes() const;

 private:
  /// Arity + per-value type check of Insert, shared with the bulk path.
  static Status ValidateRow(const catalog::Relation& rel, const Row& row);

  catalog::Catalog catalog_;
  /// Heap-held so that versions keep a stable pointer across moves.
  std::unique_ptr<ColumnIndexCounters> counters_;
  /// One relation's current version, replaced (never modified) by inserts.
  /// The mutex guards only the pointer copy of a pin or the swap of a
  /// publish, never a read of the rows. (libstdc++ 12's
  /// atomic<shared_ptr>::load releases its lock bit with a relaxed store, so
  /// the next store's write of the pointer is not ordered after a load's
  /// read of it — a data race under the memory model, reported by TSan.)
  struct VersionSlot {
    mutable std::mutex mu;
    std::shared_ptr<const Table> current;
  };
  std::vector<VersionSlot> tables_;  ///< by relation id
  /// Per-relation insert stamps, bumped after the version is published.
  std::vector<std::atomic<uint64_t>> relation_epochs_;
  std::atomic<uint64_t> epoch_{0};
  /// Serializes inserts: one next version per relation at a time.
  std::mutex write_mu_;
};

}  // namespace sfsql::storage

#endif  // SFSQL_STORAGE_DATABASE_H_
