#ifndef SFSQL_TESTS_INDEX_CHECKS_H_
#define SFSQL_TESTS_INDEX_CHECKS_H_

// Shared checks of the column index's predicate answers: a per-row oracle
// for storage::ColumnPredicate and one routine that holds Count, Rows, Exists
// and ChunkStats::CanPrune against it and against each other.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "exec/like.h"
#include "storage/database.h"
#include "storage/predicate.h"

namespace sfsql::test_support {

/// True if a row holding `v` satisfies `pred`, evaluated straight from the
/// semantics documented on storage::ColumnPredicate.
inline bool Keeps(const storage::Value& v, const storage::ColumnPredicate& p) {
  using Op = storage::ColumnPredicate::Op;
  if (v.is_null()) return false;
  switch (p.op) {
    case Op::kNone:
      return false;
    case Op::kIn:
      return std::any_of(p.values.begin(), p.values.end(),
                         [&](const storage::Value& item) {
                           return !item.is_null() && v.Equals(item);
                         });
    case Op::kBetween:
      return !p.values[0].is_null() && !p.values[1].is_null() &&
             v.Compare(p.values[0]) >= 0 && v.Compare(p.values[1]) <= 0;
    case Op::kLike:
      return v.is_string() &&
             exec::LikeMatch(v.AsString(), p.pattern, p.escape);
    default: {  // kEq..kGe
      const storage::Value& lit = p.values[0];
      if (lit.is_null()) return false;
      if (p.op == Op::kEq) return v.Equals(lit);
      if (p.op == Op::kNe) return !v.Equals(lit);
      const bool same_class =
          (v.is_numeric() && lit.is_numeric()) || v.type() == lit.type();
      if (!same_class) return false;
      const int c = v.Compare(lit);
      if (p.op == Op::kLt) return c < 0;
      if (p.op == Op::kLe) return c <= 0;
      if (p.op == Op::kGt) return c > 0;
      return c >= 0;
    }
  }
}

/// The column index's rows for `pred` on column `attr` of the table version
/// `table` equal a per-row scan with Keeps; its count is their number and
/// its existence answer their non-emptiness; and no chunk holding one of
/// them is pruned by the chunk statistics.
inline void ExpectIndexAnswersAgree(const storage::Table& table, int attr,
                                    const storage::ColumnPredicate& pred,
                                    const std::string& what) {
  const storage::ColumnIndex& idx = table.Index(attr);
  const std::vector<uint32_t> rows = idx.Rows(pred);
  EXPECT_EQ(idx.Count(pred), rows.size()) << what;
  EXPECT_EQ(idx.Exists(pred), !rows.empty()) << what;
  std::vector<uint32_t> want;
  for (uint32_t id = 0; id < table.num_rows(); ++id) {
    if (Keeps(table.at(id, attr), pred)) want.push_back(id);
  }
  EXPECT_EQ(rows, want) << what;
  for (uint32_t id : rows) {
    const storage::Chunk& chunk = table.chunk(id / table.chunk_capacity());
    if (chunk.stats(attr).CanPrune(pred)) {
      ADD_FAILURE() << what << ": the chunk of row " << id << " was pruned";
      break;
    }
  }
}

/// As above, on the current version of `relation`, pinned for the check.
inline void ExpectIndexAnswersAgree(const storage::Database& db, int relation,
                                    int attr,
                                    const storage::ColumnPredicate& pred,
                                    const std::string& what) {
  ExpectIndexAnswersAgree(*db.Pin(relation), attr, pred, what);
}

}  // namespace sfsql::test_support

#endif  // SFSQL_TESTS_INDEX_CHECKS_H_
