#include "storage/column_index.h"

#include <algorithm>
#include <utility>

#include "exec/like.h"
#include "storage/database.h"
#include "text/similarity.h"

namespace sfsql::storage {

namespace {
/// Gram size of the LIKE posting lists.
constexpr int kIndexNgram = 3;
}  // namespace

ColumnIndex ColumnIndex::Build(const Table& table, int attr_index) {
  ColumnIndex idx;
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
         text::LiteralNGrams(idx.values_[i].AsString(), kIndexNgram)) {
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
  // values_ holds one witness per Compare-equality class, so the range is at
  // most one value wide.
  const size_t lo = static_cast<size_t>(
      std::lower_bound(values_.begin(), values_.end(), value, ValueLess) -
      values_.begin());
  return {lo, lo < values_.size() && values_[lo].Compare(value) == 0 ? lo + 1
                                                                     : lo};
}

template <typename Visit>
void ColumnIndex::Match(const ColumnPredicate& pred, uint64_t* verified,
                        Visit&& visit) const {
  using Op = ColumnPredicate::Op;
  auto lower = [&](size_t lo, size_t hi, const Value& v) {
    return static_cast<size_t>(
        std::lower_bound(values_.begin() + lo, values_.begin() + hi, v,
                         ValueLess) -
        values_.begin());
  };
  auto upper = [&](size_t lo, size_t hi, const Value& v) {
    return static_cast<size_t>(
        std::upper_bound(values_.begin() + lo, values_.begin() + hi, v,
                         ValueLess) -
        values_.begin());
  };
  // Visits a non-empty range; false once the visitor asked to stop.
  auto emit = [&](size_t first, size_t last) {
    return first >= last || visit(first, last);
  };
  switch (pred.op) {
    case Op::kIn: {
      std::vector<std::pair<size_t, size_t>> ranges;
      for (const Value& v : pred.values) {
        if (!v.is_null()) ranges.push_back(EqualRange(v));
      }
      // Equal list elements (1, 1.0) share one range: visit it once.
      std::sort(ranges.begin(), ranges.end());
      ranges.erase(std::unique(ranges.begin(), ranges.end()), ranges.end());
      for (auto [first, last] : ranges) {
        if (!emit(first, last)) return;
      }
      return;
    }
    case Op::kBetween: {
      const Value& low = pred.values[0];
      const Value& high = pred.values[1];
      if (low.is_null() || high.is_null()) return;
      emit(lower(0, values_.size(), low), upper(0, values_.size(), high));
      return;
    }
    case Op::kLike:
      MatchLike(pred.pattern, pred.escape, verified, visit);
      return;
    default: {  // kNone..kGe
      const Value& v = pred.values[0];
      if (v.is_null()) return;
      if (pred.op == Op::kEq || pred.op == Op::kNe) {
        auto [lo, hi] = EqualRange(v);
        if (pred.op == Op::kEq) {
          emit(lo, hi);
        } else if (emit(0, lo)) {
          // Equals-complement over the whole domain: values of other type
          // classes compare unequal, hence satisfy '<>'.
          emit(hi, values_.size());
        }
        return;
      }
      // The inequalities compare inside the literal's type class.
      auto [lo, hi] = ClassRange(v);
      if (pred.op == Op::kLt) emit(lo, lower(lo, hi, v));
      if (pred.op == Op::kLe) emit(lo, upper(lo, hi, v));
      if (pred.op == Op::kGt) emit(upper(lo, hi, v), hi);
      if (pred.op == Op::kGe) emit(lower(lo, hi, v), hi);
      return;
    }
  }
}

size_t ColumnIndex::Count(const ColumnPredicate& pred,
                          uint64_t* verified) const {
  size_t n = 0;
  Match(pred, verified, [&](size_t first, size_t last) {
    n += row_id_begin_[last] - row_id_begin_[first];
    return true;
  });
  return n;
}

std::vector<uint32_t> ColumnIndex::Rows(const ColumnPredicate& pred,
                                        uint64_t* verified) const {
  std::vector<uint32_t> out;
  size_t distinct = 0;
  Match(pred, verified, [&](size_t first, size_t last) {
    out.insert(out.end(), row_ids_.begin() + row_id_begin_[first],
               row_ids_.begin() + row_id_begin_[last]);
    distinct += last - first;
    return true;
  });
  // Each distinct value's list is ascending; several need a merge.
  if (distinct > 1) std::sort(out.begin(), out.end());
  return out;
}

bool ColumnIndex::Exists(const ColumnPredicate& pred,
                         uint64_t* verified) const {
  bool found = false;
  Match(pred, verified, [&](size_t, size_t) {
    found = true;
    return false;
  });
  return found;
}

template <typename Visit>
void ColumnIndex::MatchLike(std::string_view pattern, char escape,
                            uint64_t* verified, Visit&& visit) const {
  if (string_begin_ == values_.size()) return;
  const exec::LikePatternInfo info = exec::AnalyzeLikePattern(pattern, escape);

  if (!info.has_wildcards) {
    // A wildcard-free pattern matches exactly one string: its unescaped form.
    std::string literal;
    for (const std::string& run : info.literal_runs) literal += run;
    const Value probe = Value::String(std::move(literal));
    auto it = std::lower_bound(values_.begin() + string_begin_, values_.end(),
                               probe, ValueLess);
    if (it != values_.end() && it->Compare(probe) == 0) {
      const auto id = static_cast<size_t>(it - values_.begin());
      visit(id, id + 1);
    }
    return;
  }

  // Every trigram of every literal run must occur in a matching string.
  std::vector<std::string> required;
  for (const std::string& run : info.literal_runs) {
    for (std::string& g : text::LiteralNGrams(run, kIndexNgram)) {
      required.push_back(std::move(g));
    }
  }
  std::sort(required.begin(), required.end());
  required.erase(std::unique(required.begin(), required.end()),
                 required.end());

  // Verifies one candidate (ids ascending); true stops the caller's loop.
  auto take = [&](size_t id) {
    if (verified != nullptr) ++*verified;
    return exec::LikeMatch(values_[id].AsString(), pattern, escape) &&
           !visit(id, id + 1);
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
        if (take(i)) break;
      }
      return;
    }
    // No selective literal at all (e.g. '%a%', '___'): verify every distinct
    // string — still a big win over the row scan when values repeat.
    for (size_t i = string_begin_; i < values_.size(); ++i) {
      if (take(i)) break;
    }
    return;
  }

  std::vector<const std::vector<uint32_t>*> lists;
  lists.reserve(required.size());
  for (const std::string& g : required) {
    auto it = postings_.find(g);
    if (it == postings_.end()) return;  // gram absent: nothing can match
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

void ColumnIndexCounters::CountBuild(uint64_t nanos) const {
  builds_.fetch_add(1, kRelaxed);
  build_nanos_.fetch_add(nanos, kRelaxed);
  ++tls_tally.builds;
  tls_tally.build_nanos += nanos;
}

void ColumnIndexCounters::CountValueProbe() const {
  value_probes_.fetch_add(1, kRelaxed);
  ++tls_tally.value_probes;
}

void ColumnIndexCounters::CountLikeProbe() const {
  like_probes_.fetch_add(1, kRelaxed);
  ++tls_tally.like_probes;
}

void ColumnIndexCounters::CountVerified(uint64_t n) const {
  if (n == 0) return;
  like_verified_.fetch_add(n, kRelaxed);
  tls_tally.like_verified += n;
}

ColumnIndexStats ColumnIndexCounters::stats() const {
  ColumnIndexStats s;
  s.builds = builds_.load(kRelaxed);
  s.build_seconds = static_cast<double>(build_nanos_.load(kRelaxed)) * 1e-9;
  s.value_probes = value_probes_.load(kRelaxed);
  s.like_probes = like_probes_.load(kRelaxed);
  s.like_candidates_verified = like_verified_.load(kRelaxed);
  return s;
}

ColumnIndexStats ColumnIndexCounters::ThreadStats() {
  ColumnIndexStats s;
  s.builds = tls_tally.builds;
  s.build_seconds = static_cast<double>(tls_tally.build_nanos) * 1e-9;
  s.value_probes = tls_tally.value_probes;
  s.like_probes = tls_tally.like_probes;
  s.like_candidates_verified = tls_tally.like_verified;
  return s;
}

}  // namespace sfsql::storage
