// Edge-case coverage for the execution engine: NULL propagation, degenerate
// inputs, join corner cases, and aggregate quirks.

#include <gtest/gtest.h>

#include <limits>
#include <memory>
#include <string>

#include "exec/executor.h"
#include "workloads/datagen.h"
#include "workloads/movie6.h"
#include "workloads/schema_builder.h"

namespace sfsql::exec {
namespace {

using storage::Database;
using storage::Value;

class ExecEdgeTest : public ::testing::Test {
 protected:
  ExecEdgeTest() : db_(workloads::BuildMovie6()), exec_(db_.get()) {}

  QueryResult Run(const std::string& sql) {
    auto r = exec_.ExecuteSql(sql);
    EXPECT_TRUE(r.ok()) << r.status().ToString() << " for: " << sql;
    return r.ok() ? *r : QueryResult{};
  }

  std::unique_ptr<Database> db_;
  Executor exec_;
};

TEST_F(ExecEdgeTest, SelectWithoutFrom) {
  QueryResult r = Run("SELECT 1 + 2, 'x', 3.5, TRUE");
  ASSERT_EQ(r.rows.size(), 1u);
  EXPECT_EQ(r.rows[0][0].AsInt(), 3);
  EXPECT_EQ(r.rows[0][1].AsString(), "x");
  EXPECT_DOUBLE_EQ(r.rows[0][2].AsDouble(), 3.5);
  EXPECT_TRUE(r.rows[0][3].AsBool());
}

TEST_F(ExecEdgeTest, CrossJoinWithoutPredicate) {
  QueryResult r = Run("SELECT p.name, m.title FROM Person p, Movie m");
  EXPECT_EQ(r.rows.size(), 7u * 4u);
}

TEST_F(ExecEdgeTest, LimitZeroAndOversized) {
  EXPECT_TRUE(Run("SELECT name FROM Person LIMIT 0").rows.empty());
  EXPECT_EQ(Run("SELECT name FROM Person LIMIT 9999").rows.size(), 7u);
}

TEST_F(ExecEdgeTest, ArithmeticNullAndDivision) {
  QueryResult r = Run("SELECT 4 / 2, 5 % 3, 1 / 0, 3 % 0, NULL + 1");
  ASSERT_EQ(r.rows.size(), 1u);
  EXPECT_EQ(r.rows[0][0].AsInt(), 2);
  EXPECT_EQ(r.rows[0][1].AsInt(), 2);
  EXPECT_TRUE(r.rows[0][2].is_null());  // division by zero -> NULL
  EXPECT_TRUE(r.rows[0][3].is_null());
  EXPECT_TRUE(r.rows[0][4].is_null());
}

// Integer overflow is a typed error, never a trap or a wrapped value.
class ExecOverflowTest : public ExecEdgeTest {
 protected:
  void ExpectOverflow(const std::string& sql) {
    auto r = exec_.ExecuteSql(sql);
    ASSERT_FALSE(r.ok()) << sql << " returned "
                         << (r.ok() ? r->ToString() : "");
    EXPECT_EQ(r.status().code(), StatusCode::kExecutionError) << sql;
    EXPECT_EQ(r.status().message(), "integer overflow") << sql;
  }
};

TEST_F(ExecOverflowTest, Addition) {
  ExpectOverflow("SELECT 9223372036854775807 + 1");
}

TEST_F(ExecOverflowTest, Subtraction) {
  ExpectOverflow("SELECT 0 - 9223372036854775807 - 2");
}

TEST_F(ExecOverflowTest, Multiplication) {
  ExpectOverflow("SELECT 4611686018427387904 * 2");
}

TEST_F(ExecOverflowTest, Division) {
  ExpectOverflow("SELECT (0 - 9223372036854775807 - 1) / (0 - 1)");
}

TEST_F(ExecOverflowTest, Modulo) {
  ExpectOverflow("SELECT (0 - 9223372036854775807 - 1) % (0 - 1)");
}

TEST_F(ExecOverflowTest, UnaryMinus) {
  ExpectOverflow("SELECT -(0 - 9223372036854775807 - 1)");
}

TEST_F(ExecOverflowTest, UnaryMinusInGroupedExpression) {
  ExpectOverflow(
      "SELECT -(MIN(release_year) - MIN(release_year) - 9223372036854775807 "
      "- 1) FROM Movie");
}

TEST_F(ExecOverflowTest, Abs) {
  ExpectOverflow("SELECT abs(0 - 9223372036854775807 - 1)");
}

TEST_F(ExecOverflowTest, IntegerSum) {
  ExpectOverflow(
      "SELECT SUM(9223372036854775807 - release_year + 1980) FROM Movie");
}

TEST_F(ExecOverflowTest, LimitsThemselvesStillCompute) {
  QueryResult r = Run(
      "SELECT 9223372036854775807 + 0, (0 - 9223372036854775807 - 1) / 1, "
      "abs(0 - 9223372036854775807), 9223372036854775807.0 + 1");
  ASSERT_EQ(r.rows.size(), 1u);
  EXPECT_EQ(r.rows[0][0].AsInt(), std::numeric_limits<int64_t>::max());
  EXPECT_EQ(r.rows[0][1].AsInt(), std::numeric_limits<int64_t>::min());
  EXPECT_EQ(r.rows[0][2].AsInt(), std::numeric_limits<int64_t>::max());
  EXPECT_TRUE(r.rows[0][3].is_double());
}

TEST_F(ExecEdgeTest, StringConcatViaPlus) {
  QueryResult r = Run("SELECT 'a' + 'b'");
  EXPECT_EQ(r.rows[0][0].AsString(), "ab");
}

TEST_F(ExecEdgeTest, MixedIntDoubleComparison) {
  QueryResult r =
      Run("SELECT count(*) FROM Movie WHERE release_year > 1996.5 AND "
          "release_year < 2005.5");
  EXPECT_EQ(r.rows[0][0].AsInt(), 2);  // 1997, 2004
}

TEST_F(ExecEdgeTest, HavingWithoutGroupBy) {
  // A global aggregate with HAVING filters the single group.
  QueryResult keep = Run("SELECT count(*) FROM Person HAVING count(*) > 3");
  EXPECT_EQ(keep.rows.size(), 1u);
  QueryResult drop = Run("SELECT count(*) FROM Person HAVING count(*) > 100");
  EXPECT_TRUE(drop.rows.empty());
}

// HAVING needs an aggregating block (GROUP BY or an aggregate call), as in
// SQLite; on a plain block it is an error, not a filter that never runs.
// HavingWithoutGroupBy above covers the global aggregate that keeps working.
TEST_F(ExecEdgeTest, HavingOnNonAggregateQueryIsAnError) {
  auto r = exec_.ExecuteSql("SELECT name FROM Person HAVING 1 = 0");
  ASSERT_FALSE(r.ok()) << r->ToString();
  EXPECT_EQ(r.status().code(), StatusCode::kExecutionError);
  EXPECT_EQ(r.status().message(), "HAVING clause on a non-aggregate query");
}

// An ORDER BY naming a select alias sorts by that item's value, also when a
// star before it expanded to several columns.
TEST_F(ExecEdgeTest, OrderByAliasAfterStar) {
  QueryResult r = Run("SELECT *, person_id AS k FROM Person ORDER BY k DESC");
  ASSERT_EQ(r.columns.size(), 4u);
  EXPECT_EQ(r.columns[3], "k");
  ASSERT_EQ(r.rows.size(), 7u);
  for (size_t i = 0; i < r.rows.size(); ++i) {
    EXPECT_EQ(r.rows[i][3].AsInt(), static_cast<int64_t>(7 - i));
    EXPECT_EQ(r.rows[i][0].AsInt(), r.rows[i][3].AsInt());
  }
  // The alias of an aggregate in a grouped block sorts too.
  QueryResult g = Run(
      "SELECT gender, COUNT(*) AS n FROM Person GROUP BY gender ORDER BY n");
  ASSERT_EQ(g.rows.size(), 2u);
  EXPECT_EQ(g.rows[0][0].AsString(), "female");
  EXPECT_EQ(g.rows[0][1].AsInt(), 2);
  EXPECT_EQ(g.rows[1][1].AsInt(), 5);
}

TEST_F(ExecEdgeTest, OrderByMultipleMixedDirections) {
  QueryResult r = Run(
      "SELECT gender, name FROM Person ORDER BY gender DESC, name ASC");
  ASSERT_EQ(r.rows.size(), 7u);
  EXPECT_EQ(r.rows[0][0].AsString(), "male");
  EXPECT_EQ(r.rows[0][1].AsString(), "Bill Paxton");
  EXPECT_EQ(r.rows.back()[0].AsString(), "female");
}

TEST_F(ExecEdgeTest, OrderByExpression) {
  QueryResult r = Run("SELECT release_year FROM Movie ORDER BY 0 - release_year");
  ASSERT_EQ(r.rows.size(), 4u);
  EXPECT_EQ(r.rows[0][0].AsInt(), 2009);
}

TEST_F(ExecEdgeTest, DuplicateAggregateExpressions) {
  QueryResult r = Run("SELECT count(*), count(*), sum(release_year), "
                      "sum(release_year) FROM Movie");
  ASSERT_EQ(r.rows.size(), 1u);
  EXPECT_TRUE(r.rows[0][0].Equals(r.rows[0][1]));
  EXPECT_TRUE(r.rows[0][2].Equals(r.rows[0][3]));
}

TEST_F(ExecEdgeTest, AggregateOfExpression) {
  QueryResult r = Run("SELECT sum(release_year + 1) FROM Movie");
  QueryResult base = Run("SELECT sum(release_year) FROM Movie");
  EXPECT_EQ(r.rows[0][0].AsInt(), base.rows[0][0].AsInt() + 4);
}

TEST_F(ExecEdgeTest, GroupByExpression) {
  // Group movies by decade.
  QueryResult r = Run(
      "SELECT release_year / 10, count(*) FROM Movie GROUP BY "
      "release_year / 10 ORDER BY release_year / 10");
  ASSERT_GE(r.rows.size(), 2u);
  EXPECT_EQ(r.rows[0][0].AsInt(), 198);  // Aliens, 1986
}

TEST_F(ExecEdgeTest, NestedSubqueryThreeLevels) {
  QueryResult r = Run(
      "SELECT name FROM Person WHERE person_id IN (SELECT person_id FROM "
      "Director WHERE movie_id IN (SELECT movie_id FROM Movie WHERE "
      "release_year = (SELECT max(release_year) FROM Movie)))");
  ASSERT_EQ(r.rows.size(), 1u);
  EXPECT_EQ(r.rows[0][0].AsString(), "James Cameron");
}

TEST_F(ExecEdgeTest, CorrelatedSubqueryInHavingFreeQuery) {
  // Correlation from a scalar subquery used in a projection under grouping's
  // absence.
  QueryResult r = Run(
      "SELECT name, (SELECT count(*) FROM Actor WHERE Actor.person_id = "
      "Person.person_id) FROM Person ORDER BY name LIMIT 2");
  ASSERT_EQ(r.rows.size(), 2u);
  EXPECT_EQ(r.rows[0][0].AsString(), "Bill Paxton");
  EXPECT_EQ(r.rows[0][1].AsInt(), 1);
}

TEST_F(ExecEdgeTest, InSubqueryWithNullSubject) {
  ASSERT_TRUE(
      db_->Insert(0, {Value::Int(99), Value::Null_(), Value::String("male")})
          .ok());
  // NULL IN (...) is false; NULL NOT IN (...) is true under the engine's
  // documented two-valued logic.
  QueryResult in = Run("SELECT count(*) FROM Person WHERE name IN (SELECT "
                       "name FROM Person)");
  EXPECT_EQ(in.rows[0][0].AsInt(), 7);
  QueryResult not_in = Run("SELECT count(*) FROM Person WHERE name NOT IN "
                           "(SELECT name FROM Person)");
  EXPECT_EQ(not_in.rows[0][0].AsInt(), 1);  // only the NULL-named row
}

TEST(HashJoinTest, SkipsNullKeys) {
  workloads::SchemaBuilder b;
  b.Rel("L", "id:int*, k:int");
  b.Rel("R", "id:int*, k:int");
  Database db(b.Build());
  ASSERT_TRUE(db.Insert(0, {Value::Int(1), Value::Int(10)}).ok());
  ASSERT_TRUE(db.Insert(0, {Value::Int(2), Value::Null_()}).ok());
  ASSERT_TRUE(db.Insert(1, {Value::Int(1), Value::Int(10)}).ok());
  ASSERT_TRUE(db.Insert(1, {Value::Int(2), Value::Null_()}).ok());
  Executor executor(&db);
  auto r = executor.ExecuteSql("SELECT L.id, R.id FROM L, R WHERE L.k = R.k");
  ASSERT_TRUE(r.ok());
  // Only the 10 = 10 pair joins; NULL keys never match.
  EXPECT_EQ(r->rows.size(), 1u);
}

TEST_F(ExecEdgeTest, EmptyTableAggregatesAndJoins) {
  workloads::SchemaBuilder b;
  b.Rel("Empty", "id:int*, v:int");
  Database db(b.Build());
  Executor executor(&db);
  auto agg = executor.ExecuteSql("SELECT count(*), sum(v), min(v) FROM Empty");
  ASSERT_TRUE(agg.ok());
  EXPECT_EQ(agg->rows[0][0].AsInt(), 0);
  EXPECT_TRUE(agg->rows[0][1].is_null());
  auto group = executor.ExecuteSql(
      "SELECT v, count(*) FROM Empty GROUP BY v");
  ASSERT_TRUE(group.ok());
  EXPECT_TRUE(group->rows.empty());
}

TEST_F(ExecEdgeTest, DistinctOnExpressions) {
  QueryResult r = Run("SELECT DISTINCT release_year / 100 FROM Movie");
  EXPECT_EQ(r.rows.size(), 2u);  // 19 and 20
}

// Group mode runs the one evaluator: every expression kind works over
// aggregates, not only arithmetic and comparisons.
TEST_F(ExecEdgeTest, GroupedPredicatesOverAggregates) {
  QueryResult between = Run(
      "SELECT gender, count(*) FROM Person GROUP BY gender "
      "HAVING count(*) BETWEEN 1 AND 100 ORDER BY gender");
  ASSERT_EQ(between.rows.size(), 2u);
  EXPECT_EQ(between.rows[0][0].AsString(), "female");
  EXPECT_EQ(between.rows[0][1].AsInt(), 2);
  EXPECT_EQ(between.rows[1][0].AsString(), "male");
  EXPECT_EQ(between.rows[1][1].AsInt(), 5);
  QueryResult in = Run(
      "SELECT gender, count(*) FROM Person GROUP BY gender "
      "HAVING count(*) IN (1, 2)");
  ASSERT_EQ(in.rows.size(), 1u);
  EXPECT_EQ(in.rows[0][0].AsString(), "female");
  EXPECT_TRUE(Run("SELECT gender FROM Person GROUP BY gender "
                  "HAVING max(name) IS NULL")
                  .rows.empty());
  EXPECT_EQ(Run("SELECT gender FROM Person GROUP BY gender "
                "HAVING max(name) IS NOT NULL")
                .rows.size(),
            2u);
}

TEST_F(ExecEdgeTest, ScalarFunctionsOverAggregates) {
  QueryResult abs_sum = Run("SELECT abs(sum(1)) FROM Person");
  ASSERT_EQ(abs_sum.rows.size(), 1u);
  EXPECT_EQ(abs_sum.rows[0][0].AsInt(), 7);
  QueryResult lower_max = Run("SELECT lower(max(name)) FROM Person");
  ASSERT_EQ(lower_max.rows.size(), 1u);
  EXPECT_EQ(lower_max.rows[0][0].AsString(), "tom hanks");
}

TEST_F(ExecEdgeTest, GroupedLikeKeepsEscape) {
  QueryResult rows = Run("SELECT name FROM Person WHERE name LIKE 'T!om%' ESCAPE '!'");
  ASSERT_EQ(rows.rows.size(), 1u);
  EXPECT_EQ(rows.rows[0][0].AsString(), "Tom Hanks");
  QueryResult groups = Run(
      "SELECT gender FROM Person GROUP BY gender "
      "HAVING max(name) LIKE 'T!om%' ESCAPE '!'");
  ASSERT_EQ(groups.rows.size(), 1u);
  EXPECT_EQ(groups.rows[0][0].AsString(), "male");
}

// An empty global aggregate still has its frame: an outer ref in a
// subquery, or a column under a scalar function, binds to it and reads NULL,
// like a bare column does. A ref that binds nowhere fails as it does over a
// non-empty input.
TEST_F(ExecEdgeTest, SubqueryOverEmptyGlobalAggregateReadsNull) {
  QueryResult r = Run(
      "SELECT count(*), (SELECT count(*) FROM Movie m "
      "WHERE m.title = Person.name), lower(name) FROM Person WHERE 1 = 0");
  ASSERT_EQ(r.rows.size(), 1u);
  EXPECT_EQ(r.rows[0][0].AsInt(), 0);
  EXPECT_EQ(r.rows[0][1].AsInt(), 0);
  EXPECT_TRUE(r.rows[0][2].is_null());
  auto missing =
      exec_.ExecuteSql("SELECT count(*), nosuch FROM Person WHERE 1 = 0");
  ASSERT_FALSE(missing.ok());
  EXPECT_EQ(missing.status().message(), "cannot resolve column 'nosuch'");
}

TEST_F(ExecEdgeTest, UncorrelatedSubqueriesRunOncePerExecute) {
  ExecInfo in_list;
  auto in = exec_.ExecuteSql(
      "SELECT name FROM Person "
      "WHERE name IN (SELECT name FROM Person WHERE gender = 'female')",
      &in_list);
  ASSERT_TRUE(in.ok()) << in.status().ToString();
  EXPECT_EQ(in->rows.size(), 2u);
  EXPECT_EQ(in_list.stats.table_scans, 2u);  // outer scan + one subquery run

  ExecInfo scalar;
  auto max = exec_.ExecuteSql(
      "SELECT title FROM Movie WHERE title = (SELECT max(title) FROM Movie)",
      &scalar);
  ASSERT_TRUE(max.ok()) << max.status().ToString();
  ASSERT_EQ(max->rows.size(), 1u);
  EXPECT_EQ(max->rows[0][0].AsString(), "Titanic");
  EXPECT_EQ(scalar.stats.table_scans, 2u);

  // A correlated subquery still runs once per outer row: 1 + 7 scans.
  ExecInfo correlated;
  auto exists = exec_.ExecuteSql(
      "SELECT name FROM Person p "
      "WHERE EXISTS (SELECT * FROM Actor a WHERE a.person_id = p.person_id)",
      &correlated);
  ASSERT_TRUE(exists.ok()) << exists.status().ToString();
  EXPECT_EQ(exists->rows.size(), 5u);
  EXPECT_EQ(correlated.stats.table_scans, 8u);
}

// Pushed single-column predicates over a table of 4-row chunks, so every
// scan crosses chunk boundaries; NULLs sit in every column. The scans keep
// the rows per-row evaluation keeps and raise the errors it raises.
class PushedFilterEdgeTest : public ::testing::Test {
 protected:
  PushedFilterEdgeTest() {
    workloads::SchemaBuilder b;
    b.Rel("T", "k:int*, quantity:int, name:str");
    db_ = std::make_unique<Database>(b.Build(), /*chunk_capacity=*/4);
    const char* names[] = {"a_1", "ab", "a%", "a_x", "b_1"};
    std::vector<storage::Row> rows;
    for (int64_t k = 0; k < 30; ++k) {
      rows.push_back(
          {Value::Int(k), k % 6 == 5 ? Value::Null_() : Value::Int(k % 6),
           k % 7 == 6 ? Value::Null_() : Value::String(names[k % 5])});
    }
    EXPECT_TRUE(db_->InsertRows(0, std::move(rows)).ok());
  }

  /// The `k`s of the rows `where` keeps, in scan order.
  std::vector<int64_t> Keys(const std::string& where) {
    Executor executor(db_.get());
    auto r = executor.ExecuteSql("SELECT k FROM T WHERE " + where);
    EXPECT_TRUE(r.ok()) << where << ": " << r.status().ToString();
    std::vector<int64_t> keys;
    if (!r.ok()) return keys;
    for (const storage::Row& row : r->rows) keys.push_back(row[0].AsInt());
    return keys;
  }

  /// The `k`s of the rows whose quantity (NULL: nullopt) passes `keep`.
  template <typename Keep>
  std::vector<int64_t> Expected(Keep keep) {
    std::vector<int64_t> keys;
    for (int64_t k = 0; k < 30; ++k) {
      if (k % 6 != 5 && keep(k % 6)) keys.push_back(k);
    }
    return keys;
  }

  std::unique_ptr<Database> db_;
};

TEST_F(PushedFilterEdgeTest, InequalityAgainstAnotherClassIsATypeError) {
  Executor executor(db_.get());
  const std::pair<const char*, const char*> cases[] = {
      {"SELECT k FROM T WHERE quantity > 'abc'",
       "cannot compare int64 with string"},
      {"SELECT k FROM T WHERE k >= 0 AND quantity > 'abc'",
       "cannot compare int64 with string"},
      {"SELECT k FROM T WHERE 'abc' <= quantity",
       "cannot compare string with int64"},
  };
  for (const auto& [sql, message] : cases) {
    auto r = executor.ExecuteSql(sql);
    ASSERT_FALSE(r.ok()) << sql;
    EXPECT_EQ(r.status().code(), StatusCode::kTypeError) << sql;
    EXPECT_EQ(r.status().message(), message) << sql;
  }
}

TEST_F(PushedFilterEdgeTest, EqualityAgainstAnotherClassNeverErrors) {
  EXPECT_TRUE(Keys("quantity = 'abc'").empty());
  EXPECT_EQ(Keys("quantity <> 'abc'"), Expected([](int64_t) { return true; }));
  EXPECT_EQ(Keys("k >= 0 AND quantity <> 'abc'"),
            Expected([](int64_t) { return true; }));
}

TEST_F(PushedFilterEdgeTest, NullRowsAreNeverKept) {
  EXPECT_EQ(Keys("quantity > 0"), Expected([](int64_t q) { return q > 0; }));
  EXPECT_EQ(Keys("quantity <> 3"), Expected([](int64_t q) { return q != 3; }));
  const std::vector<int64_t> below20 = {0,  1,  2,  3,  4,  6,  7,  8, 9,
                                        10, 12, 13, 14, 15, 16, 18, 19};
  EXPECT_EQ(Keys("quantity >= 0 AND k < 20"), below20);
  EXPECT_EQ(Keys("name LIKE '%'").size(), 30u - 4u);  // k = 6, 13, 20, 27
  EXPECT_TRUE(Keys("quantity = NULL").empty());
}

TEST_F(PushedFilterEdgeTest, EmptyBetweenKeepsNothing) {
  EXPECT_TRUE(Keys("quantity BETWEEN 5 AND 1").empty());
  EXPECT_TRUE(Keys("k >= 0 AND quantity BETWEEN 5 AND 1").empty());
  EXPECT_EQ(Keys("quantity BETWEEN 1 AND 3"),
            Expected([](int64_t q) { return q >= 1 && q <= 3; }));
}

TEST_F(PushedFilterEdgeTest, InListHoldingNull) {
  EXPECT_EQ(Keys("quantity IN (1, NULL, 3)"),
            Expected([](int64_t q) { return q == 1 || q == 3; }));
  EXPECT_EQ(Keys("k >= 0 AND quantity IN (NULL, 2, 4, 0)"),
            Expected([](int64_t q) { return q % 2 == 0; }));
  EXPECT_TRUE(Keys("quantity IN (NULL)").empty());
}

TEST_F(PushedFilterEdgeTest, LikeWithEscapeOnAStringColumn) {
  // 'a_1' (k % 5 == 0) and 'a_x' (k % 5 == 3) start with a literal "a_";
  // 'ab' and 'a%' would match an unescaped '_'.
  std::vector<int64_t> expected;
  for (int64_t k = 0; k < 30; ++k) {
    if (k % 7 != 6 && (k % 5 == 0 || k % 5 == 3)) expected.push_back(k);
  }
  EXPECT_EQ(Keys("name LIKE 'a!_%' ESCAPE '!'"), expected);
  EXPECT_EQ(Keys("k >= 0 AND name LIKE 'a!_%' ESCAPE '!'"), expected);
  std::vector<int64_t> percent;
  for (int64_t k = 0; k < 30; ++k) {
    if (k % 7 != 6 && k % 5 == 2) percent.push_back(k);
  }
  EXPECT_EQ(Keys("name LIKE 'a!%' ESCAPE '!'"), percent);
}

}  // namespace
}  // namespace sfsql::exec
