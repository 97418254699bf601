#include "storage/database.h"

#include <algorithm>

#include "common/macros.h"
#include "common/strings.h"

namespace sfsql::storage {

ColumnStats Table::ColumnStatsFor(size_t attr) const {
  ColumnStats out;
  out.rows = num_rows_;
  DistinctSketch merged;
  size_t chunk_ndv_sum = 0;
  for (const Chunk& chunk : chunks_) {
    const ChunkStats& st = chunk.stats(attr);
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

Database::Database(catalog::Catalog catalog, size_t chunk_capacity)
    : catalog_(std::move(catalog)) {
  tables_.reserve(catalog_.num_relations());
  std::vector<size_t> attrs;
  attrs.reserve(catalog_.num_relations());
  for (int i = 0; i < catalog_.num_relations(); ++i) {
    tables_.emplace_back(i, catalog_.relation(i).attributes.size(),
                         chunk_capacity);
    attrs.push_back(catalog_.relation(i).attributes.size());
  }
  indexes_.Reset(attrs);
  relation_epochs_.assign(catalog_.num_relations(), 0);
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
  if (relation_id < 0 || relation_id >= catalog_.num_relations()) {
    return Status::InvalidArgument("insert into unknown relation");
  }
  SFSQL_RETURN_IF_ERROR(ValidateRow(catalog_.relation(relation_id), row));
  {
    std::unique_lock<std::shared_mutex> lock(data_mu_);
    tables_[relation_id].Append(std::move(row));
    ++relation_epochs_[relation_id];
  }
  epoch_.fetch_add(1, std::memory_order_acq_rel);
  return Status::OK();
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
  {
    std::unique_lock<std::shared_mutex> lock(data_mu_);
    Table& table = tables_[relation_id];
    table.Reserve(table.num_rows() + rows.size());
    for (Row& row : rows) table.Append(std::move(row));
    ++relation_epochs_[relation_id];
  }
  epoch_.fetch_add(1, std::memory_order_acq_rel);
  return Status::OK();
}

size_t Database::TotalRows() const {
  std::shared_lock<std::shared_mutex> lock(data_mu_);
  size_t total = 0;
  for (const Table& t : tables_) total += t.num_rows();
  return total;
}

size_t Database::NumRows(int relation_id) const {
  if (relation_id < 0 || relation_id >= catalog_.num_relations()) return 0;
  std::shared_lock<std::shared_mutex> lock(data_mu_);
  return tables_[relation_id].num_rows();
}

uint64_t Database::RelationEpoch(int relation_id) const {
  if (relation_id < 0 || relation_id >= catalog_.num_relations()) return 0;
  std::shared_lock<std::shared_mutex> lock(data_mu_);
  return relation_epochs_[relation_id];
}

std::vector<uint64_t> Database::RelationEpochs() const {
  std::shared_lock<std::shared_mutex> lock(data_mu_);
  return relation_epochs_;
}

bool Database::AnyTupleSatisfies(int relation_id, int attr_index,
                                 std::string_view op,
                                 const Value& value) const {
  // NULL satisfies no comparison.
  if (value.is_null() || !HasColumn(relation_id, attr_index)) return false;
  // Shared-lock the row store: a probe may build an index over the rows, and
  // a concurrent Insert grows the chunk directory.
  std::shared_lock<std::shared_mutex> lock(data_mu_);
  indexes_.CountValueProbe();
  return indexes_.Get(tables_[relation_id], attr_index)
      ->AnySatisfies(op, value);
}

bool Database::AnyStringMatchesLike(int relation_id, int attr_index,
                                    std::string_view pattern,
                                    char escape) const {
  if (!HasColumn(relation_id, attr_index)) return false;
  std::shared_lock<std::shared_mutex> lock(data_mu_);
  indexes_.CountLikeProbe();
  uint64_t verified = 0;
  bool found = indexes_.Get(tables_[relation_id], attr_index)
                   ->AnyLikeMatch(pattern, escape, &verified);
  indexes_.CountVerified(verified);
  return found;
}

}  // namespace sfsql::storage
