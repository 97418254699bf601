#include "storage/column_index.h"

#include <algorithm>
#include <chrono>

#include "exec/like.h"
#include "storage/database.h"
#include "text/similarity.h"

namespace sfsql::storage {

ColumnIndex ColumnIndex::Build(const Table& table, int attr_index, int ngram) {
  ColumnIndex idx;
  idx.ngram_ = ngram;
  idx.built_rows_ = table.num_rows();

  // Columnar build: every pass walks just this attribute's chunk segments —
  // the other columns are never touched.
  idx.values_.reserve(table.num_rows());
  for (size_t c = 0; c < table.num_chunks(); ++c) {
    for (const Value& v : table.chunk(c).column(attr_index)) {
      if (!v.is_null()) idx.values_.push_back(v);
    }
  }
  std::sort(idx.values_.begin(), idx.values_.end(),
            [](const Value& a, const Value& b) { return a.Compare(b) < 0; });
  // Compare == 0 coincides with Equals for non-null values (numerics coerce
  // identically in both), so deduping by Compare keeps exactly one witness per
  // equality class — all the satisfiability probes need.
  idx.values_.erase(std::unique(idx.values_.begin(), idx.values_.end(),
                                [](const Value& a, const Value& b) {
                                  return a.Compare(b) == 0;
                                }),
                    idx.values_.end());

  // Compare's total order is bool < numeric < string, so the type classes are
  // contiguous ranges.
  auto first_not = [&](size_t from, auto pred) {
    size_t i = from;
    while (i < idx.values_.size() && pred(idx.values_[i])) ++i;
    return i;
  };
  idx.numeric_begin_ = first_not(0, [](const Value& v) { return v.is_bool(); });
  idx.string_begin_ = first_not(idx.numeric_begin_,
                                [](const Value& v) { return v.is_numeric(); });

  for (size_t i = idx.string_begin_; i < idx.values_.size(); ++i) {
    for (std::string& g :
         text::LiteralNGrams(idx.values_[i].AsString(), ngram)) {
      idx.postings_[std::move(g)].push_back(static_cast<uint32_t>(i));
    }
  }

  // Second pass: CSR row-id lists per distinct value. Counting first and
  // filling in row order keeps each bucket ascending without a per-bucket
  // sort.
  auto bucket_of = [&](const Value& v) {
    return static_cast<size_t>(
        std::lower_bound(idx.values_.begin(), idx.values_.end(), v,
                         [](const Value& a, const Value& b) {
                           return a.Compare(b) < 0;
                         }) -
        idx.values_.begin());
  };
  idx.row_id_begin_.assign(idx.values_.size() + 1, 0);
  size_t non_null = 0;
  for (size_t c = 0; c < table.num_chunks(); ++c) {
    for (const Value& v : table.chunk(c).column(attr_index)) {
      if (v.is_null()) continue;
      ++idx.row_id_begin_[bucket_of(v) + 1];
      ++non_null;
    }
  }
  for (size_t i = 1; i < idx.row_id_begin_.size(); ++i) {
    idx.row_id_begin_[i] += idx.row_id_begin_[i - 1];
  }
  idx.row_ids_.resize(non_null);
  std::vector<uint32_t> cursor(idx.row_id_begin_.begin(),
                               idx.row_id_begin_.end() - 1);
  for (size_t c = 0; c < table.num_chunks(); ++c) {
    const std::vector<Value>& column = table.chunk(c).column(attr_index);
    const size_t base = c * table.chunk_capacity();
    for (size_t o = 0; o < column.size(); ++o) {
      const Value& v = column[o];
      if (v.is_null()) continue;
      idx.row_ids_[cursor[bucket_of(v)]++] = static_cast<uint32_t>(base + o);
    }
  }
  return idx;
}

std::pair<size_t, size_t> ColumnIndex::ClassRange(const Value& probe) const {
  if (probe.is_bool()) return {0, numeric_begin_};
  if (probe.is_numeric()) return {numeric_begin_, string_begin_};
  if (probe.is_string()) return {string_begin_, values_.size()};
  return {0, 0};  // NULL probes satisfy nothing
}

namespace {
bool ValueLess(const Value& a, const Value& b) { return a.Compare(b) < 0; }
}  // namespace

std::pair<size_t, size_t> ColumnIndex::EqualRange(const Value& value) const {
  auto [lo, hi] =
      std::equal_range(values_.begin(), values_.end(), value, ValueLess);
  return {static_cast<size_t>(lo - values_.begin()),
          static_cast<size_t>(hi - values_.begin())};
}

void ColumnIndex::CollectRows(size_t first, size_t last,
                              std::vector<uint32_t>* out) const {
  if (first >= last) return;
  const size_t old = out->size();
  out->insert(out->end(), row_ids_.begin() + row_id_begin_[first],
              row_ids_.begin() + row_id_begin_[last]);
  if (last - first > 1) std::sort(out->begin() + old, out->end());
}

std::vector<uint32_t> ColumnIndex::RowsSatisfying(std::string_view op,
                                                  const Value& value) const {
  std::vector<uint32_t> out;
  if (value.is_null()) return out;  // two-valued logic: NULL probe keeps nothing
  if (op == "=") {
    auto [lo, hi] = EqualRange(value);
    CollectRows(lo, hi, &out);
    return out;
  }
  if (op == "<>" || op == "!=") {
    // Equals-complement over the whole domain: values of other type classes
    // compare unequal, hence satisfy '<>', exactly like the scan.
    auto [lo, hi] = EqualRange(value);
    CollectRows(0, lo, &out);
    CollectRows(hi, values_.size(), &out);
    std::sort(out.begin(), out.end());
    return out;
  }
  // Inequalities stay inside the probe's type class; callers gate on the
  // declared column type so a scan would not have raised a TypeError.
  auto [lo, hi] = ClassRange(value);
  if (lo == hi) return out;
  size_t first = lo, last = hi;
  if (op == "<") {
    last = static_cast<size_t>(std::lower_bound(values_.begin() + lo,
                                                values_.begin() + hi, value,
                                                ValueLess) -
                               values_.begin());
  } else if (op == "<=") {
    last = static_cast<size_t>(std::upper_bound(values_.begin() + lo,
                                                values_.begin() + hi, value,
                                                ValueLess) -
                               values_.begin());
  } else if (op == ">") {
    first = static_cast<size_t>(std::upper_bound(values_.begin() + lo,
                                                 values_.begin() + hi, value,
                                                 ValueLess) -
                                values_.begin());
  } else if (op == ">=") {
    first = static_cast<size_t>(std::lower_bound(values_.begin() + lo,
                                                 values_.begin() + hi, value,
                                                 ValueLess) -
                                values_.begin());
  } else {
    return out;  // unrecognized op: the scan keeps nothing either
  }
  CollectRows(first, last, &out);
  return out;
}

std::vector<uint32_t> ColumnIndex::RowsIn(
    const std::vector<Value>& values) const {
  std::vector<uint32_t> out;
  for (const Value& v : values) {
    if (v.is_null()) continue;
    auto [lo, hi] = EqualRange(v);
    CollectRows(lo, hi, &out);
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

std::vector<uint32_t> ColumnIndex::RowsBetween(const Value& low,
                                               const Value& high) const {
  std::vector<uint32_t> out;
  if (low.is_null() || high.is_null()) return out;
  // BETWEEN compares across the whole Compare total order (no type check in
  // the executor), so the range is over all of values_, not one class.
  const size_t first = static_cast<size_t>(
      std::lower_bound(values_.begin(), values_.end(), low, ValueLess) -
      values_.begin());
  const size_t last = static_cast<size_t>(
      std::upper_bound(values_.begin(), values_.end(), high, ValueLess) -
      values_.begin());
  if (first < last) CollectRows(first, last, &out);
  return out;
}

std::vector<uint32_t> ColumnIndex::RowsMatchingLike(std::string_view pattern,
                                                    char escape,
                                                    uint64_t* verified) const {
  std::vector<uint32_t> out;
  const std::vector<uint32_t> distinct =
      MatchingDistinctStrings(pattern, escape, verified, /*first_only=*/false);
  for (uint32_t id : distinct) {
    CollectRows(id, id + 1, &out);
  }
  if (distinct.size() > 1) std::sort(out.begin(), out.end());
  return out;
}

size_t ColumnIndex::CountSatisfying(std::string_view op,
                                    const Value& value) const {
  if (value.is_null()) return 0;
  auto span = [&](size_t first, size_t last) {
    return first < last
               ? static_cast<size_t>(row_id_begin_[last] - row_id_begin_[first])
               : 0;
  };
  if (op == "=") {
    auto [lo, hi] = EqualRange(value);
    return span(lo, hi);
  }
  if (op == "<>" || op == "!=") {
    auto [lo, hi] = EqualRange(value);
    return span(0, values_.size()) - span(lo, hi);
  }
  auto [lo, hi] = ClassRange(value);
  if (lo == hi) return 0;
  size_t first = lo, last = hi;
  if (op == "<") {
    last = static_cast<size_t>(std::lower_bound(values_.begin() + lo,
                                                values_.begin() + hi, value,
                                                ValueLess) -
                               values_.begin());
  } else if (op == "<=") {
    last = static_cast<size_t>(std::upper_bound(values_.begin() + lo,
                                                values_.begin() + hi, value,
                                                ValueLess) -
                               values_.begin());
  } else if (op == ">") {
    first = static_cast<size_t>(std::upper_bound(values_.begin() + lo,
                                                 values_.begin() + hi, value,
                                                 ValueLess) -
                                values_.begin());
  } else if (op == ">=") {
    first = static_cast<size_t>(std::lower_bound(values_.begin() + lo,
                                                 values_.begin() + hi, value,
                                                 ValueLess) -
                                values_.begin());
  } else {
    return 0;
  }
  return span(first, last);
}

size_t ColumnIndex::CountIn(const std::vector<Value>& values) const {
  // Deduplicate by equal-range start so repeated list elements (1, 1.0) do
  // not double-count their shared bucket.
  std::vector<size_t> firsts;
  firsts.reserve(values.size());
  for (const Value& v : values) {
    if (v.is_null()) continue;
    auto [lo, hi] = EqualRange(v);
    if (lo < hi) firsts.push_back(lo);
  }
  std::sort(firsts.begin(), firsts.end());
  firsts.erase(std::unique(firsts.begin(), firsts.end()), firsts.end());
  size_t n = 0;
  for (size_t lo : firsts) n += row_id_begin_[lo + 1] - row_id_begin_[lo];
  return n;
}

size_t ColumnIndex::CountBetween(const Value& low, const Value& high) const {
  if (low.is_null() || high.is_null()) return 0;
  const size_t first = static_cast<size_t>(
      std::lower_bound(values_.begin(), values_.end(), low, ValueLess) -
      values_.begin());
  const size_t last = static_cast<size_t>(
      std::upper_bound(values_.begin(), values_.end(), high, ValueLess) -
      values_.begin());
  return first < last ? row_id_begin_[last] - row_id_begin_[first] : 0;
}

bool ColumnIndex::AnySatisfies(std::string_view op, const Value& value) const {
  if (value.is_null()) return false;
  auto [lo, hi] = ClassRange(value);
  if (lo == hi) return false;
  if (op == "=") {
    return std::binary_search(
        values_.begin() + lo, values_.begin() + hi, value,
        [](const Value& a, const Value& b) { return a.Compare(b) < 0; });
  }
  if (op == "<>" || op == "!=") {
    // More than one distinct comparable value: at least one differs.
    if (hi - lo > 1) return true;
    return values_[lo].Compare(value) != 0;
  }
  const int min_cmp = values_[lo].Compare(value);
  const int max_cmp = values_[hi - 1].Compare(value);
  if (op == "<") return min_cmp < 0;
  if (op == "<=") return min_cmp <= 0;
  if (op == ">") return max_cmp > 0;
  if (op == ">=") return max_cmp >= 0;
  return false;  // unrecognized op: the scan satisfies nothing either
}

bool ColumnIndex::AnyLikeMatch(std::string_view pattern, char escape,
                               uint64_t* verified) const {
  return !MatchingDistinctStrings(pattern, escape, verified, /*first_only=*/true)
              .empty();
}

std::vector<uint32_t> ColumnIndex::MatchingDistinctStrings(
    std::string_view pattern, char escape, uint64_t* verified,
    bool first_only) const {
  std::vector<uint32_t> out;
  if (string_begin_ == values_.size()) return out;
  const exec::LikePatternInfo info = exec::AnalyzeLikePattern(pattern, escape);

  if (!info.has_wildcards) {
    // A wildcard-free pattern matches exactly one string: its unescaped form.
    std::string literal;
    for (const std::string& run : info.literal_runs) literal += run;
    const Value probe = Value::String(std::move(literal));
    auto it = std::lower_bound(values_.begin() + string_begin_, values_.end(),
                               probe, ValueLess);
    if (it != values_.end() && it->Compare(probe) == 0) {
      out.push_back(static_cast<uint32_t>(it - values_.begin()));
    }
    return out;
  }

  // Every trigram of every literal run must occur in a matching string.
  std::vector<std::string> required;
  for (const std::string& run : info.literal_runs) {
    for (std::string& g : text::LiteralNGrams(run, ngram_)) {
      required.push_back(std::move(g));
    }
  }
  std::sort(required.begin(), required.end());
  required.erase(std::unique(required.begin(), required.end()),
                 required.end());

  auto matches = [&](uint32_t id) {
    if (verified != nullptr) ++*verified;
    return exec::LikeMatch(values_[id].AsString(), pattern, escape);
  };
  auto take = [&](uint32_t id) {
    if (!matches(id)) return false;
    out.push_back(id);
    return first_only;  // true stops the caller's loop at the first match
  };

  if (required.empty()) {
    // No literal run long enough for a trigram. A literal prefix still helps:
    // the string class is sorted lexicographically, so strings starting with
    // the prefix form a contiguous range — binary-search its start and verify
    // until the prefix stops matching.
    if (!info.prefix.empty()) {
      const Value probe = Value::String(info.prefix);
      size_t i = static_cast<size_t>(
          std::lower_bound(values_.begin() + string_begin_, values_.end(),
                           probe, ValueLess) -
          values_.begin());
      for (; i < values_.size(); ++i) {
        if (values_[i].AsString().compare(0, info.prefix.size(), info.prefix) !=
            0) {
          break;
        }
        if (take(static_cast<uint32_t>(i))) break;
      }
      return out;
    }
    // No selective literal at all (e.g. '%a%', '___'): verify every distinct
    // string — still a big win over the row scan when values repeat.
    for (size_t i = string_begin_; i < values_.size(); ++i) {
      if (take(static_cast<uint32_t>(i))) break;
    }
    return out;
  }

  std::vector<const std::vector<uint32_t>*> lists;
  lists.reserve(required.size());
  for (const std::string& g : required) {
    auto it = postings_.find(g);
    if (it == postings_.end()) return out;  // gram absent: nothing can match
    lists.push_back(&it->second);
  }
  std::sort(lists.begin(), lists.end(),
            [](const auto* a, const auto* b) { return a->size() < b->size(); });

  std::vector<uint32_t> candidates = *lists[0];
  std::vector<uint32_t> next;
  for (size_t l = 1; l < lists.size() && !candidates.empty(); ++l) {
    next.clear();
    std::set_intersection(candidates.begin(), candidates.end(),
                          lists[l]->begin(), lists[l]->end(),
                          std::back_inserter(next));
    candidates.swap(next);
  }
  for (uint32_t id : candidates) {
    if (take(id)) break;
  }
  return out;  // candidates were ascending, so out is too
}

namespace {

/// The calling thread's share of every manager's counters (see ThreadStats).
struct ThreadTally {
  uint64_t builds = 0;
  uint64_t build_nanos = 0;
  uint64_t value_probes = 0;
  uint64_t like_probes = 0;
  uint64_t like_verified = 0;
};
thread_local ThreadTally tls_tally;

}  // namespace

void ColumnIndexManager::CountValueProbe() const {
  value_probes_.fetch_add(1, kRelaxed);
  ++tls_tally.value_probes;
}

void ColumnIndexManager::CountLikeProbe() const {
  like_probes_.fetch_add(1, kRelaxed);
  ++tls_tally.like_probes;
}

void ColumnIndexManager::CountVerified(uint64_t n) const {
  if (n == 0) return;
  like_verified_.fetch_add(n, kRelaxed);
  tls_tally.like_verified += n;
}

void ColumnIndexManager::Reset(const std::vector<size_t>& attrs_per_relation) {
  relations_.clear();
  relations_.reserve(attrs_per_relation.size());
  for (size_t n : attrs_per_relation) {
    auto slots = std::make_unique<RelationSlots>();
    slots->columns.resize(n);
    relations_.push_back(std::move(slots));
  }
}

const ColumnIndex* ColumnIndexManager::Get(const Table& table,
                                           int attr_index) const {
  RelationSlots& rel = *relations_[table.relation_id()];
  Slot& slot = rel.columns[attr_index];
  // Fast path: no lock, no refcount. The acquire pairs with the builder's
  // release store, making the index's contents visible; the stamp check
  // rejects an index made stale by an append. A stale pointer is still safe
  // to dereference — superseded indexes are retired, never freed.
  const ColumnIndex* published = slot.published.load(std::memory_order_acquire);
  if (published != nullptr && published->built_rows() == table.num_rows()) {
    return published;
  }
  std::lock_guard<std::mutex> lock(rel.mu);
  if (slot.index == nullptr || slot.index->built_rows() != table.num_rows()) {
    auto start = std::chrono::steady_clock::now();
    auto built = std::make_unique<const ColumnIndex>(
        ColumnIndex::Build(table, attr_index, ngram_));
    auto nanos = std::chrono::duration_cast<std::chrono::nanoseconds>(
                     std::chrono::steady_clock::now() - start)
                     .count();
    builds_.fetch_add(1, kRelaxed);
    build_nanos_.fetch_add(static_cast<uint64_t>(nanos), kRelaxed);
    ++tls_tally.builds;
    tls_tally.build_nanos += static_cast<uint64_t>(nanos);
    if (slot.index != nullptr) slot.retired.push_back(std::move(slot.index));
    slot.index = std::move(built);
    slot.published.store(slot.index.get(), std::memory_order_release);
  }
  return slot.index.get();
}

ColumnIndexStats ColumnIndexManager::stats() const {
  ColumnIndexStats s;
  s.builds = builds_.load(kRelaxed);
  s.build_seconds = static_cast<double>(build_nanos_.load(kRelaxed)) * 1e-9;
  s.value_probes = value_probes_.load(kRelaxed);
  s.like_probes = like_probes_.load(kRelaxed);
  s.like_candidates_verified = like_verified_.load(kRelaxed);
  return s;
}

ColumnIndexStats ColumnIndexManager::ThreadStats() {
  ColumnIndexStats s;
  s.builds = tls_tally.builds;
  s.build_seconds = static_cast<double>(tls_tally.build_nanos) * 1e-9;
  s.value_probes = tls_tally.value_probes;
  s.like_probes = tls_tally.like_probes;
  s.like_candidates_verified = tls_tally.like_verified;
  return s;
}

std::vector<ColumnIndexManager::ColumnIndexInfo>
ColumnIndexManager::BuiltIndexes() const {
  std::vector<ColumnIndexInfo> out;
  for (size_t r = 0; r < relations_.size(); ++r) {
    const RelationSlots& slots = *relations_[r];
    for (size_t a = 0; a < slots.columns.size(); ++a) {
      const ColumnIndex* idx =
          slots.columns[a].published.load(std::memory_order_acquire);
      if (idx == nullptr) continue;
      ColumnIndexInfo info;
      info.relation_id = static_cast<int>(r);
      info.attr_index = static_cast<int>(a);
      info.built_rows = idx->built_rows();
      info.num_distinct = idx->num_distinct();
      info.num_distinct_strings = idx->num_distinct_strings();
      out.push_back(info);
    }
  }
  return out;
}

}  // namespace sfsql::storage
