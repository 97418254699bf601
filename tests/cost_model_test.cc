// Cost-based planning coverage (exec/cost_model):
//
//  * Estimation quality — the planner's q-error (max(est, actual) /
//    min(est, actual) on the join fold's output cardinality) over the full
//    53-query movie43 workload at 10x the differential-suite scale must keep
//    its median at or below 4.
//  * Sort-merge correctness — the forced sort-merge operator must be
//    row-multiset-identical to the hash join and to the query's NoREC twin
//    (nested-loop joins, full scans) on joins with NULL keys (which match
//    nothing), duplicate-heavy keys, and composite keys.
//  * Plan shape — the join-order DP must anchor a star query on the filtered
//    dimension (not the tiny unfiltered table a min-cardinality-first order
//    would pick), annotate every later fold step with an algorithm verdict and
//    monotone cumulative cost, and keep FROM order when the block is not
//    reorder-safe.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include "core/engine.h"
#include "exec/executor.h"
#include "sql/parser.h"
#include "storage/database.h"
#include "workloads/datagen.h"
#include "workloads/metrics.h"
#include "workloads/movie43.h"
#include "workloads/schema_builder.h"

namespace sfsql::exec {
namespace {

using catalog::Catalog;
using catalog::Relation;
using catalog::ValueType;
using storage::Database;
using storage::Row;
using storage::Value;
using workloads::DataGenerator;
using workloads::SchemaBuilder;

// The star schema from bench_execute's cost-based planning section, at test
// scale.
std::unique_ptr<Database> SalesDb(uint64_t seed, int orders, int customers,
                                  int products, int stores) {
  SchemaBuilder b;
  b.Rel("Customer", "customer_id:int*, name:str, city:str, signup_year:int");
  b.Rel("Product", "product_id:int*, title:str, category:str, shelf_level:int");
  b.Rel("Store", "store_id:int*, city:str, opened_year:int");
  b.Rel("Orders",
        "order_id:int*, customer_id:int, product_id:int, store_id:int, "
        "order_year:int, quantity:int");
  b.Fk("Orders.customer_id", "Customer.customer_id");
  b.Fk("Orders.product_id", "Product.product_id");
  b.Fk("Orders.store_id", "Store.store_id");
  auto db = std::make_unique<Database>(b.Build());
  DataGenerator gen(seed);
  EXPECT_TRUE(gen.Populate(db.get(), stores,
                           {{"Orders", orders},
                            {"Customer", customers},
                            {"Product", products}})
                  .ok());
  return db;
}

// Two tables engineered to stress the merge path: NULL keys on both sides
// (must match nothing), one duplicate-heavy key value on each side (the
// merge's run-by-run cross product), and a second key column for composite
// joins.
std::unique_ptr<Database> JoinTortureDb() {
  Catalog c;
  Relation l;
  l.name = "L";
  l.attributes = {{"a", ValueType::kInt64},
                  {"b", ValueType::kInt64},
                  {"tag", ValueType::kString}};
  int l_id = *c.AddRelation(l);
  Relation r;
  r.name = "R";
  r.attributes = {{"a", ValueType::kInt64},
                  {"b", ValueType::kInt64},
                  {"note", ValueType::kString}};
  int r_id = *c.AddRelation(r);
  auto db = std::make_unique<Database>(std::move(c), /*chunk_capacity=*/64);
  std::mt19937_64 rng(11);
  for (int i = 0; i < 300; ++i) {
    // ~1/3 of L.a is the duplicate magnet 7; ~1/8 NULL; rest spread thin.
    Value a = i % 8 == 3 ? Value::Null_()
                         : Value::Int(i % 3 == 0 ? 7 : rng() % 40);
    Value b = i % 11 == 5 ? Value::Null_() : Value::Int(rng() % 4);
    EXPECT_TRUE(
        db->Insert(l_id, {std::move(a), std::move(b),
                          Value::String(i % 2 ? "even" : "odd")})
            .ok());
  }
  for (int i = 0; i < 250; ++i) {
    Value a = i % 9 == 2 ? Value::Null_()
                         : Value::Int(i % 4 == 0 ? 7 : rng() % 40);
    Value b = i % 13 == 6 ? Value::Null_() : Value::Int(rng() % 4);
    EXPECT_TRUE(db->Insert(r_id, {std::move(a), std::move(b),
                                  Value::String("r" + std::to_string(i % 5))})
                    .ok());
  }
  return db;
}

// ---------------------------------------------------------------------------
// Estimation quality.

TEST(CostModelTest, QErrorMedianOnMovie43WorkloadAt10x) {
  auto db = workloads::BuildMovie43(42, /*base_rows=*/600);
  core::SchemaFreeEngine engine(db.get());
  std::vector<std::string> sfsql;
  for (const auto& q : workloads::TextbookQueries()) sfsql.push_back(q.sfsql);
  for (const auto& q : workloads::SophisticatedQueries())
    sfsql.push_back(q.sfsql);
  for (int s = 0; s < 6; ++s)
    for (const std::string& v : workloads::UserVariants(s)) sfsql.push_back(v);
  ASSERT_EQ(sfsql.size(), 53u);

  Executor ex(db.get());  // defaults: cost model on
  std::vector<double> qerrors;
  for (const std::string& q : sfsql) {
    auto translated = engine.Translate(q, 1);
    ASSERT_TRUE(translated.ok()) << q << ": " << translated.status().ToString();
    ASSERT_FALSE(translated->empty()) << q;
    auto parsed = sql::ParseSelect((*translated)[0].sql);
    ASSERT_TRUE(parsed.ok()) << (*translated)[0].sql;
    ExecInfo info;
    auto res = ex.Execute(**parsed, &info);
    if (!res.ok()) continue;  // a few workload queries hit eager-eval edges
    if (!info.has_join_actuals || info.estimated_join_rows < 0) continue;
    double est = std::max(1.0, info.estimated_join_rows);
    double act = std::max(1.0, static_cast<double>(info.actual_join_rows));
    qerrors.push_back(std::max(est, act) / std::min(est, act));
  }
  // Most of the workload runs through the planned fold and reports actuals.
  ASSERT_GE(qerrors.size(), 30u);
  std::sort(qerrors.begin(), qerrors.end());
  double median = qerrors[qerrors.size() / 2];
  EXPECT_LE(median, 4.0) << "q-errors (sorted), worst="
                         << qerrors.back();
}

// ---------------------------------------------------------------------------
// Sort-merge vs hash vs twin differential. The twin (every top-level WHERE
// conjunct c as NOT (NOT (c))) has no equi edges, so it joins by nested loop.

// Non-null `merge_stats` receives the forced sort-merge executor's counters.
void ExpectThreeWayAgreement(const Database* db, const std::string& sql,
                             bool expect_sort_merge,
                             ExecStats* merge_stats = nullptr) {
  ExecConfig hash;  // cost model on; its picks at this scale are hash/iNL
  ExecConfig merge;
  merge.force_sort_merge = true;

  Executor hash_ex(db, hash);
  Executor merge_ex(db, merge);
  auto a = workloads::ExecuteTwin(hash_ex, sql);
  auto b = hash_ex.ExecuteSql(sql);
  auto c = merge_ex.ExecuteSql(sql);
  ASSERT_TRUE(a.ok()) << sql << ": " << a.status().ToString();
  ASSERT_TRUE(b.ok()) << sql << ": " << b.status().ToString();
  ASSERT_TRUE(c.ok()) << sql << ": " << c.status().ToString();
  EXPECT_TRUE(a->SameRows(*b)) << sql << "\n  twin " << a->rows.size()
                               << " vs hash " << b->rows.size();
  EXPECT_TRUE(a->SameRows(*c)) << sql << "\n  twin " << a->rows.size()
                               << " vs sort-merge " << c->rows.size();
  if (expect_sort_merge) {
    EXPECT_GE(merge_ex.stats().sort_merge_joins, 1u) << sql;
  }
  if (merge_stats != nullptr) *merge_stats = merge_ex.stats();
}

TEST(CostModelTest, SortMergeMatchesHashOnNullAndDuplicateKeys) {
  auto db = JoinTortureDb();
  // Single-key join: NULL keys match nothing, value 7 is duplicate-heavy on
  // both sides (run x run cross product inside the merge).
  ExpectThreeWayAgreement(db.get(),
                          "SELECT L.tag, R.note FROM L, R WHERE L.a = R.a",
                          /*expect_sort_merge=*/true);
  // Composite key: both columns NULL-able; a pair matches only when both
  // components are non-NULL equal.
  ExpectThreeWayAgreement(
      db.get(),
      "SELECT COUNT(*) FROM L, R WHERE L.a = R.a AND L.b = R.b",
      /*expect_sort_merge=*/true);
  // Aggregation over the duplicate-heavy join, with a residual filter.
  ExpectThreeWayAgreement(
      db.get(),
      "SELECT L.tag, COUNT(*) FROM L, R "
      "WHERE L.a = R.a AND R.b >= 1 GROUP BY L.tag",
      /*expect_sort_merge=*/true);
  // All-NULL probe side for one key value plus an equality filter.
  ExpectThreeWayAgreement(
      db.get(),
      "SELECT COUNT(*) FROM L, R WHERE L.b = R.b AND L.tag = 'even'",
      /*expect_sort_merge=*/true);
}

TEST(CostModelTest, SortMergeSkipsSortOfPresortedInput) {
  auto db = JoinTortureDb();
  // Two sort-merge steps keyed on the same placed column L.a: the second
  // merges the first's output, already in L.a order, without sorting it.
  // A wrongly skipped sort would lose matches; the twin and the hash plan
  // pin the rows.
  ExecStats merge;
  ExpectThreeWayAgreement(db.get(),
                          "SELECT R.note, COUNT(*) FROM L, R, R S "
                          "WHERE L.a = R.a AND L.a = S.a GROUP BY R.note",
                          /*expect_sort_merge=*/true, &merge);
  EXPECT_GE(merge.merge_sorts_skipped, 1u);
  EXPECT_EQ(merge.sort_merge_joins, 2u);
}

TEST(CostModelTest, SortMergeMatchesHashOnStarSchema) {
  auto db = SalesDb(7, /*orders=*/3000, /*customers=*/400, /*products=*/200,
                    /*stores=*/10);
  ExpectThreeWayAgreement(
      db.get(),
      "SELECT COUNT(*) FROM Orders, Customer "
      "WHERE Orders.customer_id = Customer.customer_id "
      "AND Customer.city = 'Kyoto'",
      /*expect_sort_merge=*/true);
  ExpectThreeWayAgreement(
      db.get(),
      "SELECT Customer.city, COUNT(*) FROM Orders, Customer, Store "
      "WHERE Orders.customer_id = Customer.customer_id "
      "AND Orders.store_id = Store.store_id "
      "GROUP BY Customer.city",
      /*expect_sort_merge=*/true);
}

// ---------------------------------------------------------------------------
// Plan shape.

TEST(CostModelTest, DpAnchorsOnFilteredDimensionWhereGreedyTakesTinyTable) {
  auto db = SalesDb(7, /*orders=*/4000, /*customers=*/400, /*products=*/200,
                    /*stores=*/10);
  auto parsed = sql::ParseSelect(
      "SELECT COUNT(*) FROM Orders, Customer, Store "
      "WHERE Orders.customer_id = Customer.customer_id "
      "AND Orders.store_id = Store.store_id AND Customer.city = 'Kyoto'");
  ASSERT_TRUE(parsed.ok());

  Executor cost_ex(db.get());  // defaults: cost model on
  std::vector<TableAccessExplain> plan = cost_ex.ExplainAccessPaths(**parsed);
  ASSERT_EQ(plan.size(), 3u);
  // The DP starts from the filtered dimension, not the 10-row Store whose
  // unfiltered edge fans out to every order.
  EXPECT_EQ(plan[0].binding, "customer");
  EXPECT_LT(plan[0].estimated_rows, plan[0].table_rows);
  // Every later fold step carries an algorithm verdict and cumulative
  // estimates, and cumulative cost is monotone.
  for (size_t i = 1; i < plan.size(); ++i) {
    EXPECT_FALSE(plan[i].join_algo.empty()) << "step " << i;
    EXPECT_GE(plan[i].est_rows_cumulative, 0.0) << "step " << i;
    EXPECT_GE(plan[i].est_cost_cumulative, 0.0) << "step " << i;
  }
  EXPECT_LE(plan[1].est_cost_cumulative, plan[2].est_cost_cumulative);

  // The planned order and the twin's nested loops give identical results.
  auto a = cost_ex.Execute(**parsed);
  auto b = workloads::ExecuteTwin(
      cost_ex,
      "SELECT COUNT(*) FROM Orders, Customer, Store "
      "WHERE Orders.customer_id = Customer.customer_id "
      "AND Orders.store_id = Store.store_id AND Customer.city = 'Kyoto'");
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_TRUE(a->SameRows(*b));
}

TEST(CostModelTest, FixedOrderQueriesStillGetAlgorithmVerdicts) {
  auto db = SalesDb(7, 2000, 300, 100, 10);
  // SUM accumulates floats in row order, so the block is not reorder-safe:
  // the fold must keep FROM order, but the cost model still costs each step
  // and picks its algorithm.
  auto parsed = sql::ParseSelect(
      "SELECT SUM(Orders.quantity) FROM Orders, Customer "
      "WHERE Orders.customer_id = Customer.customer_id "
      "AND Customer.city = 'Oslo'");
  ASSERT_TRUE(parsed.ok());
  Executor ex(db.get());
  std::vector<TableAccessExplain> plan = ex.ExplainAccessPaths(**parsed);
  ASSERT_EQ(plan.size(), 2u);
  EXPECT_EQ(plan[0].binding, "orders");
  EXPECT_EQ(plan[1].binding, "customer");
  EXPECT_FALSE(plan[1].join_algo.empty());

  // And the fixed-order planned fold agrees with its twin.
  auto a = ex.Execute(**parsed);
  auto b = workloads::ExecuteTwin(
      ex,
      "SELECT SUM(Orders.quantity) FROM Orders, Customer "
      "WHERE Orders.customer_id = Customer.customer_id "
      "AND Customer.city = 'Oslo'");
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_TRUE(a->SameRows(*b));
}

TEST(CostModelTest, EstimatesFlowIntoExecInfo) {
  auto db = SalesDb(7, 2000, 300, 100, 10);
  Executor ex(db.get());
  auto parsed = sql::ParseSelect(
      "SELECT COUNT(*) FROM Orders, Customer "
      "WHERE Orders.customer_id = Customer.customer_id "
      "AND Customer.city = 'Lisbon'");
  ASSERT_TRUE(parsed.ok());
  ExecInfo info;
  auto res = ex.Execute(**parsed, &info);
  ASSERT_TRUE(res.ok()) << res.status().ToString();
  EXPECT_TRUE(info.has_join_actuals);
  EXPECT_GE(info.estimated_join_rows, 0.0);
  // FK-join q-error on clean synthetic data stays tight.
  double est = std::max(1.0, info.estimated_join_rows);
  double act = std::max(1.0, static_cast<double>(info.actual_join_rows));
  EXPECT_LE(std::max(est, act) / std::min(est, act), 4.0)
      << "est=" << est << " act=" << act;
}

}  // namespace
}  // namespace sfsql::exec
