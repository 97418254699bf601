#include "storage/database.h"

#include <algorithm>
#include <chrono>

#include "common/macros.h"
#include "common/strings.h"

namespace sfsql::storage {

ColumnStats Table::ColumnStatsFor(size_t attr) const {
  ColumnStats out;
  out.rows = num_rows_;
  DistinctSketch merged;
  size_t chunk_ndv_sum = 0;
  for (const auto& chunk : chunks_) {
    const ChunkStats& st = chunk->stats(attr);
    out.null_count += st.null_count();
    out.non_null_count += st.non_null_count();
    if (st.all_null()) continue;
    merged.Union(st.distinct_sketch());
    chunk_ndv_sum += st.DistinctEstimate();
    if (!out.has_values) {
      out.has_values = true;
      out.min = st.min();
      out.max = st.max();
    } else {
      if (st.min().Compare(out.min) < 0) out.min = st.min();
      if (st.max().Compare(out.max) > 0) out.max = st.max();
    }
  }
  // Past ~2/3 of the buckets the union's zero count is too small for linear
  // counting (a multi-chunk union saturates long before the per-chunk
  // sketches do). Fall back to the sum of per-chunk estimates: an
  // overestimate when values repeat across chunks, but overestimating NDV
  // only understates join fan-out — far safer for planning than the
  // saturated sketch's hard cap at the bucket count.
  size_t est = merged.Estimate();
  if (est * 3 >= DistinctSketch::kBuckets * 2) {
    est = std::max(est, chunk_ndv_sum);
  }
  out.distinct_estimate = std::min(est, out.non_null_count);
  return out;
}

const ColumnIndex& Table::Index(int attr) const {
  IndexSlot& slot = indexes_[attr];
  if (const ColumnIndex* built =
          slot.published.load(std::memory_order_acquire)) {
    return *built;
  }
  std::lock_guard<std::mutex> lock(index_mu_);
  if (slot.index == nullptr) {
    const auto start = std::chrono::steady_clock::now();
    slot.index =
        std::make_unique<const ColumnIndex>(ColumnIndex::Build(*this, attr));
    counters_->CountBuild(static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - start)
            .count()));
    slot.published.store(slot.index.get(), std::memory_order_release);
  }
  return *slot.index;
}

std::shared_ptr<const Table> Table::Append(std::vector<Row> rows) const {
  auto next = std::make_shared<Table>(num_attrs_, chunk_capacity_, counters_);
  next->num_rows_ = num_rows_;
  next->chunks_.reserve((num_rows_ + rows.size() + chunk_capacity_ - 1) /
                        chunk_capacity_);
  next->chunks_.assign(chunks_.begin(), chunks_.end());
  std::shared_ptr<Chunk> open;  // the chunk appended to, private to `next`
  if (!rows.empty() && num_rows_ % chunk_capacity_ != 0) {
    open = std::make_shared<Chunk>(*chunks_.back());
    next->chunks_.back() = open;
  }
  for (Row& row : rows) {
    if (next->num_rows_ % chunk_capacity_ == 0) {
      open = std::make_shared<Chunk>(num_attrs_);
      next->chunks_.push_back(open);
    }
    open->Append(std::move(row));
    ++next->num_rows_;
  }
  return next;
}

Database::Database(catalog::Catalog catalog, size_t chunk_capacity)
    : catalog_(std::move(catalog)),
      counters_(std::make_unique<ColumnIndexCounters>()),
      tables_(catalog_.num_relations()),
      relation_epochs_(catalog_.num_relations()) {
  for (int i = 0; i < catalog_.num_relations(); ++i) {
    tables_[i].current = std::make_shared<const Table>(
        catalog_.relation(i).attributes.size(), chunk_capacity,
        counters_.get());
  }
}

Snapshot Database::Pin(const std::vector<int>& relation_ids) const {
  Snapshot snapshot;
  snapshot.catalog_ = &catalog_;
  snapshot.tables_.resize(catalog_.num_relations());
  // Inserts are serialized, and each publishes its version before it bumps
  // the epoch. If the epoch did not move while the pins were taken, they saw
  // every insert before the first read and at most the one that followed:
  // one database state.
  uint64_t before = 0;
  do {
    before = epoch();
    for (int r : relation_ids) snapshot.tables_[r] = Pin(r);
  } while (epoch() != before);
  return snapshot;
}

Status Database::ValidateRow(const catalog::Relation& rel, const Row& row) {
  if (row.size() != rel.attributes.size()) {
    return Status::InvalidArgument(
        StrCat("insert into '", rel.name, "': expected ", rel.attributes.size(),
               " values, got ", row.size()));
  }
  for (size_t i = 0; i < row.size(); ++i) {
    if (row[i].is_null()) continue;
    catalog::ValueType declared = rel.attributes[i].type;
    catalog::ValueType actual = row[i].type();
    bool ok = declared == actual ||
              (declared == catalog::ValueType::kDouble &&
               actual == catalog::ValueType::kInt64);
    if (!ok) {
      return Status::TypeError(
          StrCat("insert into '", rel.name, "': attribute '",
                 rel.attributes[i].name, "' expects ",
                 catalog::ValueTypeToString(declared), ", got ",
                 catalog::ValueTypeToString(actual)));
    }
  }
  return Status::OK();
}

Status Database::Insert(int relation_id, Row row) {
  std::vector<Row> rows;
  rows.push_back(std::move(row));
  return InsertRows(relation_id, std::move(rows));
}

Status Database::InsertRows(int relation_id, std::vector<Row> rows) {
  if (relation_id < 0 || relation_id >= catalog_.num_relations()) {
    return Status::InvalidArgument("insert into unknown relation");
  }
  const catalog::Relation& rel = catalog_.relation(relation_id);
  // Validate the whole batch before touching the table: a mid-batch error
  // must leave row counts and both epochs exactly as they were.
  for (const Row& row : rows) {
    SFSQL_RETURN_IF_ERROR(ValidateRow(rel, row));
  }
  VersionSlot& slot = tables_[relation_id];
  // The new version, then the replaced one: declared before the lock, so
  // that the replaced version (and its indexes, unless a reader still pins
  // it) is freed after the unlock.
  std::shared_ptr<const Table> version;
  std::lock_guard<std::mutex> lock(write_mu_);
  version = slot.current->Append(std::move(rows));
  {
    std::lock_guard<std::mutex> publish(slot.mu);
    slot.current.swap(version);
  }
  relation_epochs_[relation_id].fetch_add(1, std::memory_order_acq_rel);
  epoch_.fetch_add(1, std::memory_order_acq_rel);
  return Status::OK();
}

size_t Database::TotalRows() const {
  size_t total = 0;
  for (int r = 0; r < catalog_.num_relations(); ++r) {
    total += Pin(r)->num_rows();
  }
  return total;
}

std::vector<uint64_t> Database::RelationEpochs() const {
  std::vector<uint64_t> out;
  out.reserve(relation_epochs_.size());
  for (const auto& e : relation_epochs_) {
    out.push_back(e.load(std::memory_order_acquire));
  }
  return out;
}

std::vector<ColumnIndexInfo> Database::BuiltColumnIndexes() const {
  std::vector<ColumnIndexInfo> out;
  for (int r = 0; r < catalog_.num_relations(); ++r) {
    const std::shared_ptr<const Table> version = Pin(r);
    for (size_t a = 0; a < version->num_attrs(); ++a) {
      const ColumnIndex* idx = version->BuiltIndex(static_cast<int>(a));
      if (idx == nullptr) continue;
      ColumnIndexInfo info;
      info.relation_id = r;
      info.attr_index = static_cast<int>(a);
      info.built_rows = idx->built_rows();
      info.num_distinct = idx->num_distinct();
      info.num_distinct_strings = idx->num_distinct_strings();
      out.push_back(info);
    }
  }
  return out;
}

bool Database::AnyTupleSatisfies(int relation_id, int attr_index,
                                 const ColumnPredicate& pred) const {
  if (!HasColumn(relation_id, attr_index)) return false;
  const bool compare = pred.is_compare();
  if (compare && pred.values[0].is_null()) return false;
  if (pred.op == ColumnPredicate::Op::kLike) {
    counters_->CountLikeProbe();
  } else {
    counters_->CountValueProbe();
  }
  const std::shared_ptr<const Table> version = Pin(relation_id);
  const ColumnIndex& index = version->Index(attr_index);
  const catalog::ValueType declared =
      catalog_.relation(relation_id).attributes[attr_index].type;
  if (compare && !InDeclaredClass(declared, pred.values[0])) return false;
  uint64_t verified = 0;
  const bool found = index.Exists(pred, &verified);
  counters_->CountVerified(verified);
  return found;
}

}  // namespace sfsql::storage
