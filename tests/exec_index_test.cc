// Differential and concurrency coverage for index-aware execution: the
// access-path planner (exec/access_path) + IndexScan fold must be
// row-multiset-identical to each query's NoREC twin (every top-level WHERE
// conjunct c as NOT (NOT (c)), which runs on full scans, per-row predicates
// and nested-loop joins) on every workload query and on randomized
// predicates that stress NULL two-valued logic and LIKE/ESCAPE edges, and
// Execute must stay safe when raced against Database::InsertRows (run under
// TSan in CI).

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "core/engine.h"
#include "exec/executor.h"
#include "exec/task_pool.h"
#include "sql/parser.h"
#include "storage/column_index.h"
#include "storage/database.h"
#include "workloads/metrics.h"
#include "workloads/movie43.h"

namespace sfsql::exec {
namespace {

using catalog::Catalog;
using catalog::ForeignKey;
using catalog::Relation;
using catalog::ValueType;
using storage::Database;
using storage::Row;
using storage::Value;

// Executes `sql` and its NoREC twin and requires identical outcomes: same
// ok/error status, and row-multiset-identical results when ok. Returns the
// planned result for further inspection.
Result<QueryResult> ExpectSameBothWays(const Database* db,
                                       const std::string& sql,
                                       const ExecConfig& config = {}) {
  Executor ex(db, config);
  Result<QueryResult> a = ex.ExecuteSql(sql);
  Result<QueryResult> b = workloads::ExecuteTwin(ex, sql);
  EXPECT_EQ(a.ok(), b.ok()) << sql << "\n  planned: "
                            << (a.ok() ? "ok" : a.status().ToString())
                            << "\n  twin:    "
                            << (b.ok() ? "ok" : b.status().ToString());
  if (a.ok() && b.ok()) {
    EXPECT_TRUE(a->SameRows(*b))
        << sql << "\n  planned rows: " << a->rows.size()
        << "\n  twin rows:    " << b->rows.size();
    EXPECT_EQ(a->rows.size(), b->rows.size()) << sql;
  }
  return a;
}

// A two-table playground with every value class, NULLs in each column, and
// strings that exercise trigram + LIKE metacharacter edges.
std::unique_ptr<Database> PlaygroundDb() {
  Catalog c;
  Relation t1;
  t1.name = "T1";
  t1.attributes = {{"k", ValueType::kInt64},
                   {"i", ValueType::kInt64},
                   {"d", ValueType::kDouble},
                   {"s", ValueType::kString}};
  t1.primary_key = {0};
  int t1_id = *c.AddRelation(t1);

  Relation t2;
  t2.name = "T2";
  t2.attributes = {{"k", ValueType::kInt64},
                   {"j", ValueType::kInt64},
                   {"t", ValueType::kString}};
  t2.primary_key = {0};
  int t2_id = *c.AddRelation(t2);
  EXPECT_TRUE(c.AddForeignKey(ForeignKey{t2_id, 0, t1_id, 0}).ok());

  auto db = std::make_unique<Database>(std::move(c));
  const std::vector<std::string> strings = {
      "alpha",       "beta",          "gamma",     "100% done",
      "under_score", "a%b_c",         "",          "ESCAPED\\LITERAL",
      "xyzzy",       "alphabet soup", "AlPhA",     "betamax",
      "~!@#",        "a",             "trigrams!", "no match here"};
  std::mt19937_64 rng(7);
  for (int64_t k = 0; k < 240; ++k) {
    Row r1;
    r1.push_back(Value::Int(k));
    r1.push_back(rng() % 7 == 0 ? Value::Null_()
                                : Value::Int(static_cast<int64_t>(rng() % 50)));
    r1.push_back(rng() % 9 == 0
                     ? Value::Null_()
                     : Value::Double(static_cast<double>(rng() % 100) / 4.0));
    r1.push_back(rng() % 5 == 0
                     ? Value::Null_()
                     : Value::String(strings[rng() % strings.size()]));
    EXPECT_TRUE(db->Insert(t1_id, std::move(r1)).ok());
  }
  for (int64_t k = 0; k < 180; ++k) {
    Row r2;
    r2.push_back(Value::Int(static_cast<int64_t>(rng() % 240)));
    r2.push_back(rng() % 6 == 0 ? Value::Null_()
                                : Value::Int(static_cast<int64_t>(rng() % 30)));
    r2.push_back(rng() % 4 == 0
                     ? Value::Null_()
                     : Value::String(strings[rng() % strings.size()]));
    EXPECT_TRUE(db->Insert(t2_id, std::move(r2)).ok());
  }
  return db;
}

// ---------------------------------------------------------------------------
// Randomized type-correct predicate generator. Pushed predicates run on every
// base row the access path reads, and a plan and its twin read different
// rows, so a type error could surface in only one of them; every atom
// therefore compares a column against a literal of its own class. NULL
// literals and NULL-valued rows still exercise two-valued logic.

// The columns one table's atoms draw on: an integer column, a numeric column
// compared against double literals, and a string column.
struct Columns {
  const char* i;
  const char* d;
  const char* s;
};
constexpr Columns kT1Columns{"i", "d", "s"};
constexpr Columns kT2Columns{"j", "j", "t"};  // T2 has no double column

class PredicateGen {
 public:
  explicit PredicateGen(uint64_t seed) : rng_(seed) {}

  std::string Predicate(const std::string& prefix, int depth,
                        const Columns& cols = kT1Columns) {
    cols_ = cols;
    return Tree(prefix, depth);
  }

 private:
  std::string Tree(const std::string& prefix, int depth) {
    if (depth <= 0 || rng_() % 3 == 0) return Atom(prefix);
    switch (rng_() % 4) {
      case 0:
        return "(" + Tree(prefix, depth - 1) + " AND " +
               Tree(prefix, depth - 1) + ")";
      case 1:
        return "(" + Tree(prefix, depth - 1) + " OR " +
               Tree(prefix, depth - 1) + ")";
      case 2:
        return "NOT (" + Tree(prefix, depth - 1) + ")";
      default:
        return Atom(prefix);
    }
  }

  std::string Atom(const std::string& prefix) {
    static const char* kOps[] = {"=", "<>", "<", "<=", ">", ">="};
    const std::string i = prefix + cols_.i + " ";
    const std::string d = prefix + cols_.d + " ";
    const std::string s = prefix + cols_.s + " ";
    switch (rng_() % 8) {
      case 0:
        return i + kOps[rng_() % 6] + " " + std::to_string(rng_() % 50);
      case 1:
        return d + kOps[rng_() % 6] + " " +
               std::to_string(rng_() % 25) + ".25";
      case 2:
        return s + kOps[rng_() % 2] + " " + StringLiteral();
      case 3: {
        int64_t lo = rng_() % 50;
        int64_t hi = lo + rng_() % 10;
        std::string b = i + "BETWEEN " + std::to_string(lo) + " AND " +
                        std::to_string(hi);
        return rng_() % 3 == 0 ? "NOT (" + b + ")" : b;
      }
      case 4: {
        std::string in = i + (rng_() % 3 == 0 ? "NOT IN (" : "IN (");
        int n = 1 + rng_() % 4;
        for (int x = 0; x < n; ++x) {
          if (x) in += ", ";
          in += std::to_string(rng_() % 50);
        }
        return in + ")";
      }
      case 5:
        return rng_() % 2 ? s + "IS NULL" : i + "IS NOT NULL";
      case 6:
        return s + (rng_() % 4 == 0 ? "NOT LIKE " : "LIKE ") +
               LikePattern();
      default:
        // NULL literal comparison: always false under two-valued logic, and
        // the planner turns it into an always-empty index predicate.
        return i + kOps[rng_() % 6] + " NULL";
    }
  }

  std::string StringLiteral() {
    static const char* kLits[] = {"'alpha'", "'AlPhA'",  "''",
                                  "'a%b_c'", "'zzz'",    "'100% done'",
                                  "'~!@#'",  "'betamax'"};
    return kLits[rng_() % 8];
  }

  std::string LikePattern() {
    static const char* kPatterns[] = {
        "'alpha%'",        "'%soup'",         "'%a%'",
        "'under!_score' ESCAPE '!'",          "'a!%b%' ESCAPE '!'",
        "'_lpha'",         "'100!% %' ESCAPE '!'",
        "'%'",             "''",              "'no_match_here'",
        "'%gram%'",        "'a\\%b\\_c' ESCAPE '\\'",
    };
    return kPatterns[rng_() % 12];
  }

  std::mt19937_64 rng_;
  Columns cols_ = kT1Columns;
};

TEST(ExecIndexDifferentialTest, RandomSingleTablePredicates) {
  auto db = PlaygroundDb();
  PredicateGen gen(20260807);
  for (int i = 0; i < 400; ++i) {
    const std::string sql =
        "SELECT * FROM T1 WHERE " + gen.Predicate("", 3);
    ExpectSameBothWays(db.get(), sql);
  }
}

TEST(ExecIndexDifferentialTest, RandomJoinPredicates) {
  auto db = PlaygroundDb();
  PredicateGen gen(43);
  int executed = 0;
  for (int i = 0; i < 150; ++i) {
    const std::string sql = "SELECT T1.k, T2.j FROM T1, T2 WHERE T1.k = T2.k"
                            " AND " + gen.Predicate("T1.", 2, kT1Columns) +
                            " AND " + gen.Predicate("T2.", 2, kT2Columns);
    if (ExpectSameBothWays(db.get(), sql).ok()) ++executed;
  }
  // Each side's atoms use that table's own columns, so (almost) every query
  // executes and compares rows rather than matching errors.
  EXPECT_GE(executed, 140);
}

TEST(ExecIndexDifferentialTest, NullAndLikeEscapeEdges) {
  auto db = PlaygroundDb();
  const char* kQueries[] = {
      // NULL literals: always-false predicates, empty in plan and twin.
      "SELECT * FROM T1 WHERE i = NULL",
      "SELECT * FROM T1 WHERE i <> NULL",
      "SELECT * FROM T1 WHERE i BETWEEN NULL AND 10",
      "SELECT * FROM T1 WHERE i BETWEEN 1 AND NULL",
      "SELECT * FROM T1 WHERE NOT (i BETWEEN NULL AND 10)",
      "SELECT * FROM T1 WHERE i IN (1, NULL, 3)",
      "SELECT * FROM T1 WHERE i NOT IN (1, NULL, 3)",
      "SELECT * FROM T1 WHERE s LIKE NULL",
      // NULL-valued rows under negation: two-valued logic keeps them out of
      // `=` but pulls them into `NOT (=)`.
      "SELECT * FROM T1 WHERE NOT (i = 7)",
      "SELECT * FROM T1 WHERE NOT (s = 'alpha')",
      "SELECT * FROM T1 WHERE s IS NULL",
      "SELECT * FROM T1 WHERE s IS NOT NULL",
      // LIKE metacharacters, escaped and not.
      "SELECT * FROM T1 WHERE s LIKE '100% %'",
      "SELECT * FROM T1 WHERE s LIKE '100!% %' ESCAPE '!'",
      "SELECT * FROM T1 WHERE s LIKE 'a!%b!_c' ESCAPE '!'",
      "SELECT * FROM T1 WHERE s LIKE 'a%b_c'",
      "SELECT * FROM T1 WHERE s LIKE '%'",
      "SELECT * FROM T1 WHERE s LIKE ''",
      "SELECT * FROM T1 WHERE s LIKE '_'",
      "SELECT * FROM T1 WHERE s NOT LIKE '%a%'",
      "SELECT * FROM T1 WHERE s LIKE 'ESCAPED\\LITERAL'",
      "SELECT * FROM T1 WHERE s LIKE 'ESCAPED!\\LITERAL' ESCAPE '!'",
      // Empty string and exact matches hit the sub-trigram fallback.
      "SELECT * FROM T1 WHERE s = ''",
      "SELECT * FROM T1 WHERE s LIKE 'a'",
  };
  for (const char* q : kQueries) ExpectSameBothWays(db.get(), q);
}

TEST(ExecIndexDifferentialTest, SubqueriesAndAggregates) {
  auto db = PlaygroundDb();
  const char* kQueries[] = {
      "SELECT COUNT(*) FROM T1 WHERE i = 7",
      "SELECT i, COUNT(*) FROM T1 WHERE d > 5.0 GROUP BY i",
      "SELECT * FROM T1 WHERE i IN (SELECT j FROM T2 WHERE t = 'alpha')",
      "SELECT * FROM T1 WHERE EXISTS "
      "(SELECT * FROM T2 WHERE T2.k = T1.k AND T2.j > 10)",
      "SELECT k FROM T1 WHERE i = (SELECT MIN(j) FROM T2 WHERE t = 'beta')",
      "SELECT DISTINCT s FROM T1 WHERE i > 25 ORDER BY s",
      "SELECT T1.s FROM T1, T2 WHERE T1.k = T2.k AND T1.i = 3 AND T2.j = 4",
      "SELECT * FROM T1 WHERE i = 3 OR s = 'alpha'",
  };
  for (const char* q : kQueries) ExpectSameBothWays(db.get(), q);
}

// Every workload query (17 textbook + 6 sophisticated + 5x6 user variants =
// 53): translate top-1, then require the planned fold to agree with the
// translated SQL's twin.
TEST(ExecIndexDifferentialTest, AllMovie43WorkloadQueries) {
  auto db = workloads::BuildMovie43(42, 60);
  core::SchemaFreeEngine engine(db.get());
  std::vector<std::string> sfsql;
  for (const auto& q : workloads::TextbookQueries()) sfsql.push_back(q.sfsql);
  for (const auto& q : workloads::SophisticatedQueries())
    sfsql.push_back(q.sfsql);
  for (int s = 0; s < 6; ++s)
    for (const std::string& v : workloads::UserVariants(s)) sfsql.push_back(v);
  ASSERT_EQ(sfsql.size(), 53u);
  int executed = 0;
  for (const std::string& q : sfsql) {
    auto translated = engine.Translate(q, 1);
    ASSERT_TRUE(translated.ok()) << q << ": " << translated.status().ToString();
    ASSERT_FALSE(translated->empty()) << q;
    auto res = ExpectSameBothWays(db.get(), (*translated)[0].sql);
    if (res.ok()) ++executed;
  }
  EXPECT_GT(executed, 0);
}

// ---------------------------------------------------------------------------
// Index count/row consistency and planner behaviors.

TEST(ExecIndexTest, CountsMatchCollectedRows) {
  using storage::ColumnPredicate;
  auto db = PlaygroundDb();
  const std::shared_ptr<const storage::Table> t1 = db->Pin(0);
  const storage::ColumnIndex* idx = &t1->Index(1);  // T1.i
  std::vector<ColumnPredicate> preds;
  for (const char* op : {"=", "<>", "<", "<=", ">", ">="}) {
    for (int64_t v : {-1, 0, 7, 49, 50, 100}) {
      preds.push_back(ColumnPredicate::Compare(op, Value::Int(v)));
    }
  }
  preds.push_back(
      ColumnPredicate::In({Value::Int(3), Value::Int(3), Value::Int(9)}));
  preds.push_back(ColumnPredicate::Between(Value::Int(10), Value::Int(20)));
  preds.push_back(ColumnPredicate::Between(Value::Int(20), Value::Int(10)));
  for (const ColumnPredicate& p : preds) {
    const std::vector<uint32_t> rows = idx->Rows(p);
    EXPECT_EQ(idx->Count(p), rows.size());
    EXPECT_TRUE(std::is_sorted(rows.begin(), rows.end()));
  }
  EXPECT_EQ(
      idx->Count(ColumnPredicate::Between(Value::Int(20), Value::Int(10))), 0u);
  const storage::ColumnIndex* sidx = &t1->Index(3);  // T1.s
  std::vector<uint32_t> like =
      sidx->Rows(ColumnPredicate::Like("alpha%", '\0'));
  for (size_t i = 1; i < like.size(); ++i) EXPECT_LT(like[i - 1], like[i]);
}

// A table with two sargable conjuncts reads the row ids of the one with the
// smaller count and filters them by the other as a pushed conjunct.
TEST(ExecIndexTest, IndexScanReadsOnlyItsSmallestCountPredicate) {
  auto db = PlaygroundDb();
  size_t k_count = 0;
  size_t i_count = 0;
  {
    const std::shared_ptr<const storage::Table> t1 = db->Pin(0);
    k_count = t1->Index(0).Count(
        storage::ColumnPredicate::Between(Value::Int(10), Value::Int(29)));
    i_count = t1->Index(1).Count(
        storage::ColumnPredicate::Compare("<", Value::Int(3)));
  }
  ASSERT_EQ(k_count, 20u);
  ASSERT_LT(i_count, k_count);
  for (const char* sql :
       {"SELECT k, i FROM T1 WHERE k BETWEEN 10 AND 29 AND i < 3",
        "SELECT k, i FROM T1 WHERE i < 3 AND k BETWEEN 10 AND 29"}) {
    Executor ex(db.get());
    auto parsed = sql::ParseSelect(sql);
    ASSERT_TRUE(parsed.ok());
    std::vector<TableAccessExplain> plan = ex.ExplainAccessPaths(**parsed);
    ASSERT_EQ(plan.size(), 1u);
    EXPECT_TRUE(plan[0].index_scan) << sql;
    EXPECT_EQ(plan[0].index_predicates, 1) << sql;
    EXPECT_EQ(plan[0].pushed_predicates, 1) << sql;
    EXPECT_EQ(plan[0].estimated_rows, i_count) << sql;
    Result<QueryResult> r = ExpectSameBothWays(db.get(), sql);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_LT(r->rows.size(), i_count) << sql;  // the pushed BETWEEN filters
  }
}

TEST(ExecIndexTest, StatsCountScansAndPruning) {
  auto db = PlaygroundDb();
  ExecConfig cfg;  // defaults: index scan on
  Executor ex(db.get(), cfg);
  auto r = ex.ExecuteSql("SELECT * FROM T1 WHERE k = 5");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->rows.size(), 1u);
  ExecStats s = ex.stats();
  EXPECT_EQ(s.index_scans, 1u);
  EXPECT_EQ(s.table_scans, 0u);
  EXPECT_EQ(s.rows_pruned, 239u);  // 240 rows, 1 kept
  EXPECT_GE(s.pushed_predicates, 1u);

  // The twin's conjunct is not sargable: a full scan answers it.
  Executor twin(db.get(), cfg);
  auto t = workloads::ExecuteTwin(twin, "SELECT * FROM T1 WHERE k = 5");
  ASSERT_TRUE(t.ok()) << t.status().ToString();
  EXPECT_TRUE(r->SameRows(*t));
  ExecStats ts = twin.stats();
  EXPECT_EQ(ts.index_scans, 0u);
  EXPECT_EQ(ts.table_scans, 1u);
}

TEST(ExecIndexTest, ExplainAccessPathsReportsPlan) {
  auto db = PlaygroundDb();
  Executor ex(db.get());
  auto parsed = sql::ParseSelect(
      "SELECT T1.k FROM T1, T2 WHERE T1.k = T2.k AND T2.j = 4");
  ASSERT_TRUE(parsed.ok());
  std::vector<TableAccessExplain> plan = ex.ExplainAccessPaths(**parsed);
  ASSERT_EQ(plan.size(), 2u);
  // Join reorder puts the selective T2 first.
  EXPECT_EQ(plan[0].binding, "t2");
  EXPECT_TRUE(plan[0].index_scan);
  EXPECT_LT(plan[0].estimated_rows, plan[0].table_rows);
  EXPECT_EQ(plan[1].binding, "t1");

  // A block that fails to plan has no EXPLAIN view.
  auto unknown = sql::ParseSelect("SELECT * FROM Nope");
  ASSERT_TRUE(unknown.ok());
  EXPECT_TRUE(ex.ExplainAccessPaths(**unknown).empty());
}

TEST(ExecIndexTest, AmbiguousBareColumnRejected) {
  // `k` names a column of both T1 and T2. The planner leaves the conjunct to
  // the post-join filter, where resolution fails — in the plan and the twin.
  auto db = PlaygroundDb();
  auto r = ExpectSameBothWays(
      db.get(), "SELECT T1.i FROM T1, T2 WHERE k = 5 AND T1.k = T2.k");
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().message().find("ambiguous attribute"),
            std::string::npos)
      << r.status().ToString();
}

TEST(ExecIndexTest, PlannerCoversBlocksWithoutFrom) {
  auto db = PlaygroundDb();
  Executor ex(db.get());
  auto none = ex.ExecuteSql("SELECT 1 WHERE 1 = 0");
  ASSERT_TRUE(none.ok()) << none.status().ToString();
  EXPECT_EQ(none->rows.size(), 0u);
  auto one = ex.ExecuteSql("SELECT 1 WHERE 1 = 1");
  ASSERT_TRUE(one.ok()) << one.status().ToString();
  EXPECT_EQ(one->rows.size(), 1u);
}

TEST(ExecIndexTest, PlannerRejectsBadFromEntries) {
  auto db = PlaygroundDb();
  Executor ex(db.get());
  auto expect_error = [&](const std::string& sql, const std::string& text) {
    auto r = ex.ExecuteSql(sql);
    ASSERT_FALSE(r.ok()) << sql;
    EXPECT_EQ(r.status().message(), text) << sql;
  };
  expect_error("SELECT * FROM T1, T1", "duplicate FROM binding 'T1'");
  expect_error("SELECT * FROM T1 a, T2 a", "duplicate FROM binding 'a'");
  expect_error("SELECT * FROM T1, Nope", "no relation named 'Nope'");
  expect_error("SELECT * FROM T1?",
               "FROM contains unresolved relation 'T1?'; translate the query "
               "first");
}

TEST(ExecIndexTest, StarExpansionKeepsFromOrderUnderReorder) {
  auto db = PlaygroundDb();
  ExecConfig cfg;
  Executor ex(db.get(), cfg);
  // Reorder places T2 (selective) first in the fold; SELECT * must still
  // print T1's columns before T2's.
  auto r = ex.ExecuteSql(
      "SELECT * FROM T1, T2 WHERE T1.k = T2.k AND T2.j = 4 AND T2.t = 'beta'");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(r->columns.size(), 7u);
  EXPECT_EQ(r->columns[0], "t1.k");
  EXPECT_EQ(r->columns[1], "t1.i");
  EXPECT_EQ(r->columns[2], "t1.d");
  EXPECT_EQ(r->columns[3], "t1.s");
  EXPECT_EQ(r->columns[4], "t2.k");
  EXPECT_EQ(r->columns[5], "t2.j");
  EXPECT_EQ(r->columns[6], "t2.t");
  ExpectSameBothWays(
      db.get(),
      "SELECT * FROM T1, T2 WHERE T1.k = T2.k AND T2.j = 4 AND T2.t = 'beta'");
}

TEST(ExecIndexTest, LimitBlocksJoinReorderButNotIndexScan) {
  auto db = PlaygroundDb();
  Executor ex(db.get());
  // With LIMIT the planner must not reorder (emission order matters), but
  // single-table index scans are still fine — and must agree with the twin's
  // full scan, which returns the first rows in table order.
  auto a = ex.ExecuteSql("SELECT k FROM T1 WHERE i >= 10 LIMIT 5");
  auto b = workloads::ExecuteTwin(ex, "SELECT k FROM T1 WHERE i >= 10 LIMIT 5");
  ASSERT_TRUE(a.ok() && b.ok());
  ASSERT_EQ(a->rows.size(), b->rows.size());
  EXPECT_TRUE(a->SameRows(*b));
}

// ---------------------------------------------------------------------------
// Concurrency: each Execute pins one version per relation it reads, so a
// racing InsertRows, which publishes a new version without waiting for the
// readers, may only move results between whole-batch versions. Meaningful
// under any build; the TSan CI job runs it for data races.

TEST(ExecIndexStressTest, ExecuteRacingInsertSeesConsistentSnapshots) {
  auto db = PlaygroundDb();
  std::atomic<bool> done{false};
  std::atomic<int> errors{0};

  constexpr int kBatches = 12;
  constexpr int kBatchRows = 25;
  std::thread writer([&] {
    for (int batch = 0; batch < kBatches; ++batch) {
      std::vector<Row> rows;
      for (int i = 0; i < kBatchRows; ++i) {
        rows.push_back({Value::Int(1000 + batch * kBatchRows + i),
                        Value::Int(7), Value::Double(1.5),
                        Value::String("alpha")});
      }
      if (!db->InsertRows(0, std::move(rows)).ok()) ++errors;
      std::this_thread::yield();
    }
    done = true;
  });

  std::vector<std::thread> readers;
  for (int t = 0; t < 2; ++t) {
    readers.emplace_back([&] {
      Executor ex(db.get());
      size_t last_i7 = 0;
      while (!done.load(std::memory_order_acquire)) {
        auto r = ex.ExecuteSql("SELECT k FROM T1 WHERE i = 7");
        if (!r.ok()) {
          ++errors;
          break;
        }
        // Inserts are append-only and every inserted row has i = 7, so the
        // match count can only grow — shrinking means a torn snapshot.
        if (r->rows.size() < last_i7) ++errors;
        last_i7 = r->rows.size();
        auto j = ex.ExecuteSql(
            "SELECT T1.k FROM T1, T2 WHERE T1.k = T2.k AND T1.s = 'alpha'");
        if (!j.ok()) ++errors;
      }
    });
  }
  writer.join();
  for (auto& th : readers) th.join();
  EXPECT_EQ(errors.load(), 0);

  // Quiesced: the plan and its twin agree on the final state.
  auto r = ExpectSameBothWays(db.get(), "SELECT k FROM T1 WHERE i = 7");
  ASSERT_TRUE(r.ok());
  EXPECT_GE(r->rows.size(), static_cast<size_t>(kBatches * kBatchRows));
}

// ---------------------------------------------------------------------------
// Chunk boundaries: the columnar storage seals a chunk every chunk_capacity
// rows; the plan (with its chunk-stat pruning) and the twin must agree
// exactly at row counts straddling the seal.

// One-table database with a tiny chunk capacity and `total` rows whose `i`
// column is sargable and whose values land in distinct per-chunk ranges, so
// min/max pruning actually fires.
std::unique_ptr<Database> ChunkedDb(size_t chunk_capacity, size_t total) {
  Catalog c;
  Relation t;
  t.name = "T";
  t.attributes = {{"k", ValueType::kInt64},
                  {"i", ValueType::kInt64},
                  {"s", ValueType::kString}};
  t.primary_key = {0};
  EXPECT_TRUE(c.AddRelation(t).ok());
  auto db = std::make_unique<Database>(std::move(c), chunk_capacity);
  for (size_t r = 0; r < total; ++r) {
    Row row;
    row.push_back(Value::Int(static_cast<int64_t>(r)));
    // Monotone in row order: each chunk covers a disjoint [min, max] range.
    row.push_back(r % 11 == 0 ? Value::Null_()
                              : Value::Int(static_cast<int64_t>(r * 10)));
    row.push_back(Value::String(r % 2 ? "odd" : "even"));
    EXPECT_TRUE(db->Insert(0, std::move(row)).ok());
  }
  return db;
}

// Join tuples are row ids into the chunks, one per FROM entry: the self-
// joins put two ids of one table in a tuple, and with a grain of two rows
// the 4-thread runs split the tuples into morsels that straddle the seals.
// Each query runs serially and at 4 threads against its twin, and the two
// planned results must match row for row.
TEST(ExecChunkTest, DifferentialAtChunkEdgeRowCounts) {
  constexpr size_t kCap = 8;
  TaskPool pool(3);
  for (size_t total : {size_t{0}, size_t{kCap - 1}, size_t{kCap},
                       size_t{kCap + 1}, size_t{3 * kCap}}) {
    auto db = ChunkedDb(kCap, total);
    SCOPED_TRACE("total=" + std::to_string(total));
    for (const char* sql : {
             "SELECT k FROM T",
             "SELECT k FROM T WHERE i = 70",
             "SELECT k FROM T WHERE i > 100",
             "SELECT k FROM T WHERE i <= 0",
             "SELECT k FROM T WHERE i BETWEEN 75 AND 85",
             "SELECT k FROM T WHERE i IN (10, 160, 999)",
             "SELECT COUNT(*) FROM T WHERE i BETWEEN 20 AND 200 AND k < 12",
             "SELECT k FROM T WHERE s LIKE 'ev%'",
             "SELECT COUNT(*) FROM T WHERE i >= 0",
             "SELECT a.k, b.k FROM T a, T b WHERE a.k = b.k",
             "SELECT a.k, b.k FROM T a, T b WHERE a.s = b.s AND a.k + 8 = b.k",
             "SELECT * FROM T a, T b WHERE a.k = b.k",
             "SELECT a.s, COUNT(*), SUM(b.i), MAX(b.k) FROM T a, T b "
             "WHERE a.k = b.k AND b.i > 20 GROUP BY a.s",
             "SELECT a.k FROM T a WHERE EXISTS "
             "(SELECT * FROM T b WHERE b.i = a.i + 10 AND b.s <> a.s)",
         }) {
      std::string serial;
      for (int threads : {1, 4}) {
        SCOPED_TRACE("exec_threads=" + std::to_string(threads));
        ExecConfig config;
        config.exec_threads = threads;
        config.pool = &pool;
        config.morsel_grain = 2;
        Result<QueryResult> r = ExpectSameBothWays(db.get(), sql, config);
        ASSERT_TRUE(r.ok()) << sql << ": " << r.status().ToString();
        if (threads == 1) {
          serial = r->ToString();
        } else {
          EXPECT_EQ(r->ToString(), serial) << sql;
        }
      }
    }
  }
}

TEST(ExecChunkTest, ChunkStatPruningSkipsChunksWithoutIndex) {
  constexpr size_t kCap = 8;
  auto db = ChunkedDb(kCap, 4 * kCap);
  // Each conjunct keeps more than a quarter of the rows, so the planner picks
  // a scan over an IndexScan; the scan still skips whole chunks by their
  // min/max stats. The twin's conjuncts are not sargable: it scans them all.
  Executor ex(db.get());
  Executor twin(db.get());
  // Rows with i in [80, 150] live in one of the four chunks.
  const std::string sql = "SELECT k FROM T WHERE i >= 80 AND i <= 150";
  auto a = ex.ExecuteSql(sql);
  auto b = workloads::ExecuteTwin(twin, sql);
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_TRUE(a->SameRows(*b));
  const ExecStats s = ex.stats();
  EXPECT_EQ(s.index_scans, 0u);
  EXPECT_GT(s.chunks_pruned, 0u);
  EXPECT_EQ(twin.stats().chunks_pruned, 0u);
}

TEST(ExecChunkStressTest, ExecuteRacingInsertAcrossChunkSeal) {
  // Small chunks make every batch cross a seal boundary, racing readers
  // against chunk-directory growth (run under TSan in CI).
  auto db = ChunkedDb(/*chunk_capacity=*/16, /*total=*/24);
  std::atomic<bool> done{false};
  std::atomic<int> errors{0};

  constexpr int kBatches = 10;
  constexpr int kBatchRows = 24;  // 1.5 chunks per batch
  std::thread writer([&] {
    for (int batch = 0; batch < kBatches; ++batch) {
      std::vector<Row> rows;
      for (int i = 0; i < kBatchRows; ++i) {
        const int64_t k = 1000 + batch * kBatchRows + i;
        rows.push_back({Value::Int(k), Value::Int(-5), Value::String("even")});
      }
      if (!db->InsertRows(0, std::move(rows)).ok()) ++errors;
      std::this_thread::yield();
    }
    done = true;
  });

  std::vector<std::thread> readers;
  for (int t = 0; t < 2; ++t) {
    readers.emplace_back([&] {
      Executor ex(db.get());
      size_t last = 0;
      while (!done.load(std::memory_order_acquire)) {
        auto r = ex.ExecuteSql("SELECT k FROM T WHERE i = -5");
        if (!r.ok()) {
          ++errors;
          break;
        }
        // Appended rows all have i = -5: the count may only grow.
        if (r->rows.size() < last) ++errors;
        last = r->rows.size();
        std::this_thread::sleep_for(std::chrono::microseconds(200));
      }
    });
  }
  writer.join();
  for (auto& th : readers) th.join();
  EXPECT_EQ(errors.load(), 0);

  auto r = ExpectSameBothWays(db.get(), "SELECT k FROM T WHERE i = -5");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->rows.size(), static_cast<size_t>(kBatches * kBatchRows));
}

}  // namespace
}  // namespace sfsql::exec
