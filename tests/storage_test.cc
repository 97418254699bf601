#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <utility>
#include <vector>

#include "core/relation_tree.h"
#include "index_checks.h"
#include "storage/database.h"
#include "storage/value.h"
#include "workloads/metrics.h"

namespace sfsql::storage {
namespace {

using catalog::Attribute;
using catalog::Catalog;
using catalog::Relation;
using catalog::ValueType;

TEST(ValueTest, TypePredicates) {
  EXPECT_TRUE(Value::Null_().is_null());
  EXPECT_TRUE(Value::Bool(true).is_bool());
  EXPECT_TRUE(Value::Int(3).is_int());
  EXPECT_TRUE(Value::Double(3.5).is_double());
  EXPECT_TRUE(Value::String("x").is_string());
  EXPECT_TRUE(Value::Int(3).is_numeric());
  EXPECT_TRUE(Value::Double(3.5).is_numeric());
  EXPECT_FALSE(Value::String("x").is_numeric());
}

TEST(ValueTest, NumericCoercionInEquals) {
  EXPECT_TRUE(Value::Int(3).Equals(Value::Double(3.0)));
  EXPECT_FALSE(Value::Int(3).Equals(Value::Double(3.5)));
  EXPECT_TRUE(Value::Int(3).Equals(Value::Int(3)));
  EXPECT_FALSE(Value::Int(3).Equals(Value::String("3")));
}

TEST(ValueTest, NullEquality) {
  EXPECT_TRUE(Value::Null_().Equals(Value::Null_()));
  EXPECT_FALSE(Value::Null_().Equals(Value::Int(0)));
}

TEST(ValueTest, CompareOrdersAcrossTypes) {
  EXPECT_LT(Value::Null_().Compare(Value::Bool(false)), 0);
  EXPECT_LT(Value::Bool(true).Compare(Value::Int(0)), 0);
  EXPECT_LT(Value::Int(5).Compare(Value::String("a")), 0);
  EXPECT_EQ(Value::Int(3).Compare(Value::Double(3.0)), 0);
  EXPECT_GT(Value::Double(3.5).Compare(Value::Int(3)), 0);
  EXPECT_LT(Value::String("abc").Compare(Value::String("abd")), 0);
}

TEST(ValueTest, HashConsistentWithEquals) {
  EXPECT_EQ(Value::Int(7).Hash(), Value::Double(7.0).Hash());
  Row a{Value::Int(1), Value::String("x")};
  Row b{Value::Double(1.0), Value::String("x")};
  EXPECT_TRUE(RowEq{}(a, b));
  EXPECT_EQ(RowHash{}(a), RowHash{}(b));
}

TEST(ValueTest, SqlLiteralRendering) {
  EXPECT_EQ(Value::Null_().ToSqlLiteral(), "NULL");
  EXPECT_EQ(Value::Int(42).ToSqlLiteral(), "42");
  EXPECT_EQ(Value::String("O'Brien").ToSqlLiteral(), "'O''Brien'");
  EXPECT_EQ(Value::Bool(true).ToSqlLiteral(), "TRUE");
}

Catalog MovieCatalog() {
  Catalog c;
  Relation person;
  person.name = "Person";
  person.attributes = {{"person_id", ValueType::kInt64},
                       {"name", ValueType::kString},
                       {"gender", ValueType::kString}};
  person.primary_key = {0};
  EXPECT_TRUE(c.AddRelation(person).ok());
  return c;
}

TEST(DatabaseTest, InsertChecksArityAndTypes) {
  Database db(MovieCatalog());
  EXPECT_TRUE(db.Insert(0, {Value::Int(1), Value::String("James Cameron"),
                            Value::String("male")})
                  .ok());
  // Wrong arity.
  EXPECT_FALSE(db.Insert(0, {Value::Int(1)}).ok());
  // Wrong type.
  EXPECT_FALSE(
      db.Insert(0, {Value::String("x"), Value::String("y"), Value::String("z")})
          .ok());
  // NULLs always allowed.
  EXPECT_TRUE(db.Insert(0, {Value::Int(2), Value::Null_(), Value::Null_()}).ok());
  EXPECT_EQ(db.table(0).num_rows(), 2u);
  EXPECT_EQ(db.TotalRows(), 2u);
}

TEST(DatabaseTest, IntAcceptedForDoubleColumn) {
  Catalog c;
  Relation r;
  r.name = "T";
  r.attributes = {{"x", ValueType::kDouble}};
  r.primary_key = {0};
  ASSERT_TRUE(c.AddRelation(r).ok());
  Database db(std::move(c));
  EXPECT_TRUE(db.Insert(0, {Value::Int(3)}).ok());
}

TEST(DatabaseTest, InsertRowsBulkLoad) {
  Database db(MovieCatalog());
  std::vector<Row> rows;
  for (int i = 0; i < 5; ++i) {
    rows.push_back({Value::Int(i), Value::String("p" + std::to_string(i)),
                    Value::String(i % 2 ? "male" : "female")});
  }
  EXPECT_TRUE(db.InsertRows(0, std::move(rows)).ok());
  EXPECT_EQ(db.table(0).num_rows(), 5u);
  // The batch is all-or-nothing: an invalid row anywhere rejects the whole
  // batch, and neither row counts nor epochs move.
  const uint64_t epoch_before = db.epoch();
  const uint64_t rel_epoch_before = db.RelationEpoch(0);
  std::vector<Row> bad;
  bad.push_back({Value::Int(5), Value::Null_(), Value::Null_()});
  bad.push_back({Value::String("oops"), Value::Null_(), Value::Null_()});
  bad.push_back({Value::Int(7), Value::Null_(), Value::Null_()});
  EXPECT_FALSE(db.InsertRows(0, std::move(bad)).ok());
  EXPECT_EQ(db.table(0).num_rows(), 5u);
  EXPECT_EQ(db.epoch(), epoch_before);
  EXPECT_EQ(db.RelationEpoch(0), rel_epoch_before);
}

TEST(DatabaseTest, RelationEpochsTrackOnlyWrittenRelations) {
  Catalog c;
  Relation a, b;
  a.name = "A";
  a.attributes = {{"x", ValueType::kInt64}};
  a.primary_key = {0};
  b.name = "B";
  b.attributes = {{"y", ValueType::kInt64}};
  b.primary_key = {0};
  ASSERT_TRUE(c.AddRelation(a).ok());
  ASSERT_TRUE(c.AddRelation(b).ok());
  Database db(std::move(c));
  EXPECT_EQ(db.RelationEpoch(0), 0u);
  EXPECT_EQ(db.RelationEpoch(1), 0u);
  ASSERT_TRUE(db.Insert(0, {Value::Int(1)}).ok());
  EXPECT_EQ(db.RelationEpoch(0), 1u);
  EXPECT_EQ(db.RelationEpoch(1), 0u);
  std::vector<Row> batch;
  batch.push_back({Value::Int(2)});
  batch.push_back({Value::Int(3)});
  ASSERT_TRUE(db.InsertRows(1, std::move(batch)).ok());
  EXPECT_EQ(db.RelationEpoch(0), 1u);
  EXPECT_EQ(db.RelationEpoch(1), 1u);  // one bump per batch, not per row
  const std::vector<uint64_t> all = db.RelationEpochs();
  ASSERT_EQ(all.size(), 2u);
  EXPECT_EQ(all[0], 1u);
  EXPECT_EQ(all[1], 1u);
}

// A pinned version is immutable: an insert on the same thread, across a
// chunk seal, neither waits for the pin nor changes what the pin reads —
// rows, chunk statistics, or the column indexes built over it.
TEST(DatabaseTest, PinnedVersionIgnoresLaterInserts) {
  Database db(MovieCatalog(), /*chunk_capacity=*/8);
  auto person = [](int id) {
    return Row{Value::Int(id), Value::String("p" + std::to_string(id % 4)),
               id % 3 == 0 ? Value::Null_() : Value::String("x")};
  };
  std::vector<Row> first;
  for (int id = 0; id < 6; ++id) first.push_back(person(id));
  ASSERT_TRUE(db.InsertRows(0, std::move(first)).ok());

  const std::shared_ptr<const Table> pinned = db.Pin(0);
  using P = ColumnPredicate;
  const std::vector<std::pair<int, P>> probes = {
      {0, P::Compare("=", Value::Int(3))},
      {0, P::Compare("<", Value::Int(200))},
      {0, P::Between(Value::Int(2), Value::Int(110))},
      {1, P::Like("p%", '\0')},
      {1, P::In({Value::String("p1"), Value::String("p3")})},
      {2, P::Compare("=", Value::String("x"))},
  };
  for (const auto& [attr, pred] : probes) (void)pinned->Index(attr).Count(pred);
  const ColumnStats ids = pinned->ColumnStatsFor(0);
  const ChunkStats open_ids = pinned->chunk(0).stats(0);

  // 6 + 7 rows: seals chunk 0 and opens chunk 1, with the pin still held.
  std::vector<Row> more;
  for (int id = 100; id < 107; ++id) more.push_back(person(id));
  ASSERT_TRUE(db.InsertRows(0, std::move(more)).ok());

  EXPECT_EQ(pinned->num_rows(), 6u);
  ASSERT_EQ(pinned->num_chunks(), 1u);
  EXPECT_EQ(pinned->chunk(0).size(), 6u);
  const ChunkStats& still = pinned->chunk(0).stats(0);
  EXPECT_EQ(still.min().AsInt(), open_ids.min().AsInt());
  EXPECT_EQ(still.max().AsInt(), 5);
  EXPECT_EQ(still.non_null_count(), open_ids.non_null_count());
  EXPECT_EQ(still.DistinctEstimate(), open_ids.DistinctEstimate());
  const ColumnStats ids_after = pinned->ColumnStatsFor(0);
  EXPECT_EQ(ids_after.rows, ids.rows);
  EXPECT_EQ(ids_after.distinct_estimate, ids.distinct_estimate);
  EXPECT_EQ(ids_after.max.AsInt(), ids.max.AsInt());
  EXPECT_EQ(pinned->chunk(0).stats(2).null_count(), 2u);
  for (const auto& [attr, pred] : probes) {
    test_support::ExpectIndexAnswersAgree(*pinned, attr, pred, "pinned");
  }
  EXPECT_EQ(pinned->Index(0).Count(P::Compare("<", Value::Int(200))), 6u);

  const std::shared_ptr<const Table> fresh = db.Pin(0);
  EXPECT_EQ(fresh->num_rows(), 13u);
  EXPECT_EQ(fresh->num_chunks(), 2u);
  EXPECT_EQ(fresh->at(12, 0).AsInt(), 106);
  EXPECT_EQ(fresh->Index(0).Count(P::Compare("<", Value::Int(200))), 13u);
  for (const auto& [attr, pred] : probes) {
    test_support::ExpectIndexAnswersAgree(*fresh, attr, pred, "fresh");
  }
}

TEST(ChunkedTableTest, RowsSpanChunksAtExactBoundaries) {
  // A tiny chunk capacity exercises the chunk directory: row counts of 0,
  // capacity - 1, capacity, and capacity + 1 must all read back exactly.
  for (size_t total : {0u, 3u, 4u, 5u, 9u}) {
    Database db(MovieCatalog(), /*chunk_capacity=*/4);
    for (size_t i = 0; i < total; ++i) {
      ASSERT_TRUE(db.Insert(0, {Value::Int(static_cast<int64_t>(i)),
                                Value::String("p" + std::to_string(i)),
                                Value::Null_()})
                      .ok());
    }
    const Table& t = db.table(0);
    EXPECT_EQ(t.num_rows(), total);
    EXPECT_EQ(t.num_chunks(), (total + 3) / 4);
    for (size_t i = 0; i < total; ++i) {
      EXPECT_EQ(t.at(i, 0).AsInt(), static_cast<int64_t>(i));
      EXPECT_EQ(t.at(i, 1).AsString(), "p" + std::to_string(i));
      EXPECT_TRUE(t.at(i, 2).is_null());
    }
  }
}

TEST(ChunkedTableTest, ChunkStatsTrackMinMaxNullsAndDistinct) {
  Database db(MovieCatalog(), /*chunk_capacity=*/8);
  for (int i = 0; i < 6; ++i) {
    ASSERT_TRUE(db.Insert(0, {Value::Int(10 + (i % 3)),
                              i < 2 ? Value::Null_() : Value::String("n"),
                              Value::String("x")})
                    .ok());
  }
  const Chunk& chunk = db.table(0).chunk(0);
  const ChunkStats& ids = chunk.stats(0);
  EXPECT_EQ(ids.min().AsInt(), 10);
  EXPECT_EQ(ids.max().AsInt(), 12);
  EXPECT_EQ(ids.null_count(), 0u);
  EXPECT_EQ(ids.DistinctEstimate(), 3u);
  const ChunkStats& names = chunk.stats(1);
  EXPECT_EQ(names.null_count(), 2u);
  EXPECT_FALSE(names.all_null());
  // min/max pruning answers: ids live in [10, 12].
  using P = ColumnPredicate;
  EXPECT_TRUE(ids.CanPrune(P::Compare("=", Value::Int(13))));
  EXPECT_FALSE(ids.CanPrune(P::Compare("=", Value::Int(11))));
  EXPECT_TRUE(ids.CanPrune(P::Compare("<", Value::Int(10))));
  EXPECT_FALSE(ids.CanPrune(P::Compare("<", Value::Int(11))));
  EXPECT_TRUE(ids.CanPrune(P::Compare(">", Value::Int(12))));
  EXPECT_TRUE(ids.CanPrune(P::Between(Value::Int(20), Value::Int(30))));
  EXPECT_FALSE(ids.CanPrune(P::Between(Value::Int(5), Value::Int(10))));
  EXPECT_TRUE(ids.CanPrune(P::In({Value::Int(1), Value::Int(99)})));
  EXPECT_FALSE(ids.CanPrune(P::In({Value::Int(1), Value::Int(10)})));
  // Incomparable literals never prune (conservative).
  EXPECT_FALSE(ids.CanPrune(P::Compare("=", Value::String("10"))));
  // A NULL literal can match nothing under two-valued logic.
  EXPECT_TRUE(ids.CanPrune(P::Compare("=", Value::Null_())));
  // Min/max say nothing about LIKE.
  EXPECT_FALSE(names.CanPrune(P::Like("zz%", '\0')));
}

TEST(ChunkedTableTest, DistinctEstimateErrorBounds) {
  // Linear counting with 4096 buckets: the relative error on a single chunk
  // stays well within 15% up to ~2x the bucket count, and few-valued chunks
  // are exact (the estimate is clamped to the non-null add count).
  for (size_t n : {10u, 100u, 1000u, 4000u, 8000u}) {
    Database db(MovieCatalog(), /*chunk_capacity=*/16384);
    std::vector<Row> rows;
    rows.reserve(n);
    for (size_t i = 0; i < n; ++i) {
      rows.push_back({Value::Int(static_cast<int64_t>(i * 7919 + 3)),
                      Value::String("p"), Value::Null_()});
    }
    ASSERT_TRUE(db.InsertRows(0, std::move(rows)).ok());
    ColumnStats stats = db.table(0).ColumnStatsFor(0);
    EXPECT_EQ(stats.non_null_count, n);
    double err = std::abs(static_cast<double>(stats.distinct_estimate) -
                          static_cast<double>(n)) /
                 static_cast<double>(n);
    EXPECT_LE(err, 0.15) << "n=" << n
                         << " estimate=" << stats.distinct_estimate;
    // A handful of values cannot collide enough to move the estimate.
    if (n <= 100) {
      EXPECT_NEAR(static_cast<double>(stats.distinct_estimate),
                  static_cast<double>(n), static_cast<double>(n) / 50 + 1)
          << "n=" << n;
    }
  }
}

TEST(ChunkedTableTest, TableDistinctEstimateSurvivesSketchSaturation) {
  // Regression: unioning many chunk sketches saturates the 4096-bucket
  // linear counter long before any single chunk does, and a saturated union
  // caps the table-level NDV near the bucket count. ColumnStatsFor must fall
  // back to the sum of per-chunk estimates so a 20k-distinct column is not
  // reported as ~4k (which made the cost model overprice index nested-loop
  // joins at the 1M-row bench scale).
  constexpr size_t kRows = 20000;
  Database db(MovieCatalog(), /*chunk_capacity=*/1024);
  std::vector<Row> rows;
  rows.reserve(kRows);
  for (size_t i = 0; i < kRows; ++i) {
    rows.push_back({Value::Int(static_cast<int64_t>(i)), Value::String("p"),
                    i % 4 == 0 ? Value::Null_() : Value::String("g")});
  }
  ASSERT_TRUE(db.InsertRows(0, std::move(rows)).ok());
  ColumnStats ids = db.table(0).ColumnStatsFor(0);
  EXPECT_GT(ids.distinct_estimate, DistinctSketch::kBuckets);
  EXPECT_GE(ids.distinct_estimate, kRows * 85 / 100);
  EXPECT_LE(ids.distinct_estimate, ids.non_null_count);
  // A low-cardinality column across the same chunks stays low: the fallback
  // only engages when the union itself saturates.
  ColumnStats genders = db.table(0).ColumnStatsFor(2);
  EXPECT_EQ(genders.null_count, kRows / 4);
  EXPECT_EQ(genders.distinct_estimate, 1u);
}

TEST(DatabaseTest, AnyTupleSatisfies) {
  Database db(MovieCatalog());
  ASSERT_TRUE(db.Insert(0, {Value::Int(1), Value::String("James Cameron"),
                            Value::String("male")})
                  .ok());
  auto sat = [&](int attr, const char* op, Value v) {
    return db.AnyTupleSatisfies(0, attr, ColumnPredicate::Compare(op, v));
  };
  EXPECT_TRUE(sat(1, "=", Value::String("James Cameron")));
  EXPECT_FALSE(sat(1, "=", Value::String("Tom Hanks")));
  EXPECT_TRUE(sat(0, ">", Value::Int(0)));
  EXPECT_FALSE(sat(0, "<", Value::Int(1)));
  EXPECT_TRUE(sat(0, "<=", Value::Int(1)));
  EXPECT_TRUE(sat(0, ">=", Value::Int(1)));
  EXPECT_TRUE(sat(0, "<>", Value::Int(7)));
  // Type-incompatible comparisons are unsatisfied — `<>` too, although the
  // index (SQL semantics) keeps every row for it.
  EXPECT_FALSE(sat(1, ">", Value::Int(5)));
  EXPECT_FALSE(sat(1, "<>", Value::Int(5)));
  EXPECT_EQ(db.Pin(0)->Index(1).Count(
                ColumnPredicate::Compare("<>", Value::Int(5))),
            1u);
  // An IN list is one probe over the whole list.
  EXPECT_TRUE(db.AnyTupleSatisfies(
      0, 0,
      ColumnPredicate::In({Value::Null_(), Value::Int(9), Value::Int(1)})));
  EXPECT_FALSE(db.AnyTupleSatisfies(
      0, 0, ColumnPredicate::In({Value::Null_(), Value::String("1")})));
  // Bad ordinals are unsatisfied rather than errors.
  EXPECT_FALSE(sat(9, "=", Value::Int(1)));
  EXPECT_FALSE(db.AnyTupleSatisfies(
      9, 0, ColumnPredicate::Compare("=", Value::Int(1))));
}

TEST(ColumnIndexTest, IndexedProbesMatchScanAcrossOpsAndTypes) {
  Catalog c;
  Relation r;
  r.name = "T";
  r.attributes = {{"i", ValueType::kInt64},
                  {"d", ValueType::kDouble},
                  {"b", ValueType::kBool}};
  r.primary_key = {0};
  ASSERT_TRUE(c.AddRelation(r).ok());
  Database db(std::move(c), /*chunk_capacity=*/2);
  ASSERT_TRUE(db.Insert(0, {Value::Int(1), Value::Double(1.5),
                            Value::Bool(true)}).ok());
  ASSERT_TRUE(db.Insert(0, {Value::Int(3), Value::Int(3),  // int in double col
                            Value::Null_()}).ok());
  ASSERT_TRUE(db.Insert(0, {Value::Null_(), Value::Double(-2.0),
                            Value::Bool(true)}).ok());

  const Value probes[] = {Value::Int(1),      Value::Int(2),
                          Value::Double(3.0), Value::Double(1.5),
                          Value::Bool(true),  Value::Bool(false),
                          Value::String("x"), Value::Null_()};
  const char* ops[] = {"=", "<>", "<", "<=", ">", ">=", "!=", "~"};
  for (int a = 0; a < 3; ++a) {
    for (const Value& v : probes) {
      for (const char* op : ops) {
        const std::string what = "attr " + std::to_string(a) + " op " + op +
                                 " value " + v.ToSqlLiteral();
        EXPECT_EQ(db.AnyTupleSatisfies(0, a, ColumnPredicate::Compare(op, v)),
                  workloads::ScanConditionSatisfiable(
                      db, 0, a, core::Condition{op, {v}}))
            << what;
        test_support::ExpectIndexAnswersAgree(db, 0, a,
                                         ColumnPredicate::Compare(op, v), what);
      }
    }
    // IN lists with duplicates (1 and 1.0 share a range) and NULLs, and
    // BETWEEN over every ordered pair of probes, low > high included.
    test_support::ExpectIndexAnswersAgree(
        db, 0, a,
        ColumnPredicate::In({Value::Int(1), Value::Double(1.0), Value::Null_(),
                             Value::Int(3), Value::Bool(true), Value::Int(3)}),
        "IN attr " + std::to_string(a));
    test_support::ExpectIndexAnswersAgree(db, 0, a, ColumnPredicate::In({}),
                                     "empty IN attr " + std::to_string(a));
    for (const Value& low : probes) {
      for (const Value& high : probes) {
        test_support::ExpectIndexAnswersAgree(
            db, 0, a, ColumnPredicate::Between(low, high),
            "attr " + std::to_string(a) + " BETWEEN " + low.ToSqlLiteral() +
                " AND " + high.ToSqlLiteral());
      }
    }
  }
}

TEST(ColumnIndexTest, IndexedLikeMatchesScan) {
  Database db(MovieCatalog());
  const char* names[] = {"James Cameron", "Jane Campion", "100% Wolf",
                         "Ang Lee", "J", ""};
  int id = 0;
  for (const char* n : names) {
    ASSERT_TRUE(db.Insert(0, {Value::Int(id++), Value::String(n),
                              Value::Null_()}).ok());
  }
  struct { const char* pattern; char escape; } cases[] = {
      {"%Cameron", '\0'},  // trigram suffix hit
      {"Ja%", '\0'},       // trigram prefix hit
      {"J%", '\0'},        // 1-char prefix: sorted-range path
      {"_ames Cameron", '\0'},  // '_' wildcard
      {"James Cameron", '\0'},  // wildcard-free exact
      {"%zq%xw42%", '\0'},      // absent trigram miss
      {"100!%%", '!'},          // escaped '%' literal
      {"100%", '\0'},           // unescaped: prefix semantics
      {"%", '\0'},              // matches anything (incl. empty string)
      {"", '\0'},               // matches only the empty string
      {"zz%", '\0'},            // empty prefix range miss
  };
  for (const auto& cs : cases) {
    const core::Condition like{"like", {Value::String(cs.pattern),
                                        Value::String({cs.escape})}};
    EXPECT_EQ(db.AnyTupleSatisfies(
                  0, 1, ColumnPredicate::Like(cs.pattern, cs.escape)),
              workloads::ScanConditionSatisfiable(db, 0, 1, like))
        << "pattern " << cs.pattern;
  }
  // Non-string columns have no string class to match.
  EXPECT_FALSE(db.AnyTupleSatisfies(0, 0, ColumnPredicate::Like("%", '\0')));
}

TEST(ColumnIndexTest, AppendInvalidatesIndex) {
  Database db(MovieCatalog());
  ASSERT_TRUE(db.Insert(0, {Value::Int(1), Value::String("Ang Lee"),
                            Value::Null_()}).ok());
  // First probes build the column indexes.
  const auto campion =
      ColumnPredicate::Compare("=", Value::String("Jane Campion"));
  const auto like_campion = ColumnPredicate::Like("%Campion", '\0');
  EXPECT_FALSE(db.AnyTupleSatisfies(0, 1, campion));
  EXPECT_FALSE(db.AnyTupleSatisfies(0, 1, like_campion));
  // Appending must invalidate them (stamp mismatch -> lazy rebuild).
  ASSERT_TRUE(db.Insert(0, {Value::Int(2), Value::String("Jane Campion"),
                            Value::Null_()}).ok());
  EXPECT_TRUE(db.AnyTupleSatisfies(0, 1, campion));
  EXPECT_TRUE(db.AnyTupleSatisfies(0, 1, like_campion));
  const ColumnIndexStats s = db.column_index_stats();
  EXPECT_EQ(s.builds, 2u);  // initial build + rebuild of the name column
  EXPECT_EQ(s.value_probes, 2u);
  EXPECT_EQ(s.like_probes, 2u);
}

}  // namespace
}  // namespace sfsql::storage
