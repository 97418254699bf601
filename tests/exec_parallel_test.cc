// Differential and concurrency coverage for morsel-driven parallel execution
// (ExecConfig::exec_threads + exec/task_pool): every parallel configuration
// must be *bit-identical* to the serial executor — same rows in the same
// order, not just the same multiset — across the full movie43 workload, a
// star-schema join workload, and randomized morsel grains. The stress tests
// race parallel Executes against InsertRows across a chunk seal and run two
// parallel queries concurrently on one shared pool; CI runs this binary under
// -fsanitize=thread.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <memory>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "common/strings.h"
#include "core/engine.h"
#include "exec/executor.h"
#include "exec/task_pool.h"
#include "storage/database.h"
#include "workloads/datagen.h"
#include "workloads/movie43.h"
#include "workloads/schema_builder.h"

namespace sfsql::exec {
namespace {

using storage::Database;
using storage::Row;
using storage::Value;

// Exact (ordered) result equality — the parallel executor's contract is
// bit-identity with serial, which SameRows (multiset) would under-test. Values
// match in type too: int 2 and double 2.0 are Equal but not the same answer.
::testing::AssertionResult ExactlySame(const QueryResult& serial,
                                       const QueryResult& parallel) {
  if (serial.columns != parallel.columns) {
    return ::testing::AssertionFailure() << "column labels differ";
  }
  if (serial.rows.size() != parallel.rows.size()) {
    return ::testing::AssertionFailure()
           << "row counts differ: serial " << serial.rows.size()
           << " vs parallel " << parallel.rows.size();
  }
  for (size_t i = 0; i < serial.rows.size(); ++i) {
    if (serial.rows[i].size() != parallel.rows[i].size()) {
      return ::testing::AssertionFailure() << "row " << i << " width differs";
    }
    for (size_t j = 0; j < serial.rows[i].size(); ++j) {
      if (!serial.rows[i][j].Equals(parallel.rows[i][j]) ||
          serial.rows[i][j].type() != parallel.rows[i][j].type()) {
        return ::testing::AssertionFailure()
               << "row " << i << " col " << j << ": serial "
               << serial.rows[i][j].ToString() << " vs parallel "
               << parallel.rows[i][j].ToString();
      }
    }
  }
  return ::testing::AssertionSuccess();
}

// Runs `sql` serially at the default grain, then serially and under every
// parallel thread count with a randomized morsel grain, requiring
// bit-identical outcomes throughout. Small random grains force fan-out even
// on small tables, and odd grains exercise remainder morsels.
void ExpectParallelMatchesSerial(const Database* db, const std::string& sql,
                                 TaskPool* pool, std::mt19937_64& rng) {
  ExecConfig serial_cfg;
  serial_cfg.exec_threads = 1;
  Executor serial(db, serial_cfg);
  Result<QueryResult> baseline = serial.ExecuteSql(sql);

  for (int threads : {1, 2, 4, 7}) {
    ExecConfig cfg;
    cfg.exec_threads = threads;
    cfg.pool = pool;
    cfg.morsel_grain = 1 + rng() % 512;
    Executor parallel(db, cfg);
    Result<QueryResult> r = parallel.ExecuteSql(sql);
    ASSERT_EQ(baseline.ok(), r.ok())
        << sql << "\n  serial: "
        << (baseline.ok() ? "ok" : baseline.status().ToString())
        << "\n  parallel(" << threads
        << "): " << (r.ok() ? "ok" : r.status().ToString());
    if (!baseline.ok()) {
      EXPECT_EQ(baseline.status().ToString(), r.status().ToString()) << sql;
      continue;
    }
    EXPECT_TRUE(ExactlySame(*baseline, *r))
        << sql << "\n  exec_threads=" << threads
        << " morsel_grain=" << cfg.morsel_grain;
  }
}

// Every workload query (17 textbook + 6 sophisticated + 5x6 user variants =
// 53): translate top-1, then require every parallel configuration to emit
// the serial executor's rows verbatim.
TEST(ExecParallelDifferentialTest, AllMovie43WorkloadQueries) {
  auto db = workloads::BuildMovie43(42, 60);
  core::SchemaFreeEngine engine(db.get());
  std::vector<std::string> sfsql;
  for (const auto& q : workloads::TextbookQueries()) sfsql.push_back(q.sfsql);
  for (const auto& q : workloads::SophisticatedQueries())
    sfsql.push_back(q.sfsql);
  for (int s = 0; s < 6; ++s)
    for (const std::string& v : workloads::UserVariants(s)) sfsql.push_back(v);
  ASSERT_EQ(sfsql.size(), 53u);

  TaskPool pool(6);
  std::mt19937_64 rng(1234);
  for (const std::string& q : sfsql) {
    auto translated = engine.Translate(q, 1);
    ASSERT_TRUE(translated.ok()) << q << ": " << translated.status().ToString();
    ASSERT_FALSE(translated->empty()) << q;
    ExpectParallelMatchesSerial(db.get(), (*translated)[0].sql, &pool, rng);
  }
}

// Star-schema joins: a fact table big enough for multi-chunk scans, the
// parallel hash-join build/probe, and index nested-loop probes. The queries
// mirror bench_execute's join workload (min-cardinality-trap FROM shapes).
TEST(ExecParallelDifferentialTest, StarSchemaJoinQueries) {
  workloads::SchemaBuilder b;
  b.Rel("Customer", "customer_id:int*, name:str, city:str, signup_year:int");
  b.Rel("Product", "product_id:int*, title:str, category:str, shelf_level:int");
  b.Rel("Store", "store_id:int*, city:str, opened_year:int");
  b.Rel("Orders",
        "order_id:int*, customer_id:int, product_id:int, store_id:int, "
        "order_year:int, quantity:int");
  b.Fk("Orders.customer_id", "Customer.customer_id");
  b.Fk("Orders.product_id", "Product.product_id");
  b.Fk("Orders.store_id", "Store.store_id");
  // Small chunks so even this test-sized fact table spans many chunks (the
  // scan morsels are chunk ranges).
  auto db = std::make_unique<Database>(b.Build(), /*chunk_capacity=*/1024);
  workloads::DataGenerator gen(42);
  ASSERT_TRUE(gen.Populate(db.get(), 50,
                           {{"Orders", 20000},
                            {"Customer", 2000},
                            {"Product", 800}})
                  .ok());

  const char* kQueries[] = {
      "SELECT COUNT(*) FROM Orders, Customer, Store "
      "WHERE Orders.customer_id = Customer.customer_id "
      "AND Orders.store_id = Store.store_id AND Customer.city = 'Kyoto'",
      "SELECT COUNT(*) FROM Orders, Customer, Product, Store "
      "WHERE Orders.customer_id = Customer.customer_id "
      "AND Orders.product_id = Product.product_id "
      "AND Orders.store_id = Store.store_id "
      "AND Product.category = 'Drama' AND Customer.city = 'Oslo'",
      "SELECT MAX(Orders.order_year) FROM Orders, Customer, Store "
      "WHERE Orders.customer_id = Customer.customer_id "
      "AND Orders.store_id = Store.store_id "
      "AND Customer.name = 'James Smith' AND Store.city = 'Kyoto'",
      "SELECT Orders.order_id, Customer.name FROM Orders, Customer "
      "WHERE Orders.customer_id = Customer.customer_id "
      "AND Customer.city = 'Lisbon'",
      "SELECT Customer.city, COUNT(*) FROM Orders, Customer "
      "WHERE Orders.customer_id = Customer.customer_id "
      "AND Customer.city = 'Lisbon' GROUP BY Customer.city",
  };

  TaskPool pool(6);
  std::mt19937_64 rng(99);
  for (const char* q : kQueries) {
    ExpectParallelMatchesSerial(db.get(), q, &pool, rng);
  }
}

// A plain wide scan with a residual filter, at a grain that does not divide
// the chunk count — remainder-morsel coverage on the chunk-scan path.
TEST(ExecParallelDifferentialTest, ChunkScanRemainderMorsels) {
  workloads::SchemaBuilder b;
  b.Rel("T", "k:int*, v:int, s:str");
  auto db = std::make_unique<Database>(b.Build(), /*chunk_capacity=*/128);
  workloads::DataGenerator gen(7);
  ASSERT_TRUE(gen.Populate(db.get(), 3001).ok());  // 24 chunks, partial last

  TaskPool pool(6);
  std::mt19937_64 rng(5);
  for (const char* q : {"SELECT k, v FROM T WHERE v > 10",
                        "SELECT COUNT(*) FROM T WHERE v < 5",
                        "SELECT s FROM T WHERE k >= 1500 AND k < 2999"}) {
    ExpectParallelMatchesSerial(db.get(), q, &pool, rng);
  }
}

// --- Aggregate folds: partial states merged in morsel order ---

// A small star with NULLs in every column: F's int `q`, double-declared `x`
// (holding ints and doubles whose sums depend on the order of addition),
// string `s`, and int `w` beyond 2^53; O's `v` overflows int64 in running
// prefixes that come back in range.
std::unique_ptr<Database> BuildFoldDb() {
  workloads::SchemaBuilder b;
  b.Rel("D", "d_id:int*, name:str");
  b.Rel("F", "id:int*, d_id:int, q:int, x:double, s:str, w:int");
  b.Rel("O", "id:int*, grp:int, v:int");
  b.Fk("F.d_id", "D.d_id");
  auto db = std::make_unique<Database>(b.Build(), /*chunk_capacity=*/64);
  std::vector<Row> dims;
  for (int i = 0; i < 40; ++i) {
    dims.push_back({Value::Int(i), Value::String(StrCat("d", i % 9))});
  }
  EXPECT_TRUE(db->InsertRows(0, std::move(dims)).ok());
  const Value xs[] = {Value::Double(1e16), Value::Double(1.0),
                      Value::Double(-1e16), Value::Double(0.1),
                      Value::Int(2),        Value::Double(2.0),
                      Value::Double(-3.25), Value::Double(1e-3)};
  std::vector<Row> facts;
  for (int64_t i = 0; i < 3000; ++i) {
    const int64_t sign = i % 4 < 2 ? 1 : -1;
    facts.push_back(
        {Value::Int(i), i % 13 == 0 ? Value::Null_() : Value::Int(i % 40),
         i % 7 == 0 ? Value::Null_() : Value::Int((i * 37) % 11 - 3),
         i % 5 == 0 ? Value::Null_() : xs[i % 8],
         i % 3 == 0 ? Value::Null_()
                    : Value::String(StrCat("s", i % 17)),
         Value::Int(sign * ((int64_t{1} << 54) + i))});
  }
  EXPECT_TRUE(db->InsertRows(1, std::move(facts)).ok());
  // Group 0 (ids < 1000) overflows across spread-out rows, group 1 in
  // adjacent ones; both sum to 0 in the end. Group 2 stays small.
  constexpr int64_t kBig = 4000000000000000000;
  std::vector<Row> spikes;
  for (int64_t i = 0; i < 2000; ++i) {
    int64_t v = i % 10;
    if (i == 100 || i == 400 || i == 700 || (i >= 1500 && i < 1503)) v = kBig;
    if (i == 800 || i == 900 || i == 950 || (i >= 1503 && i < 1506)) v = -kBig;
    const int64_t grp = i < 1000 ? 0 : (i < 1800 ? 1 : 2);
    spikes.push_back({Value::Int(i), Value::Int(grp), Value::Int(v)});
  }
  EXPECT_TRUE(db->InsertRows(2, std::move(spikes)).ok());
  return db;
}

TEST(ExecParallelDifferentialTest, AggregateFoldsMatchSerial) {
  auto db = BuildFoldDb();
  const char* kQueries[] = {
      // COUNT over NULLs.
      "SELECT COUNT(q), COUNT(x), COUNT(s), COUNT(*) FROM F",
      // Integer SUM / AVG, including values beyond 2^53.
      "SELECT SUM(q), AVG(q), SUM(w), AVG(w) FROM F",
      // Double SUM / AVG whose result depends on the order of addition.
      "SELECT SUM(x), AVG(x) FROM F",
      "SELECT SUM(x) FROM F WHERE id < 200",
      // MIN / MAX over int 2 and double 2.0 ties: the first seen wins.
      "SELECT MIN(x), MAX(x) FROM F WHERE x > 1 AND x < 3",
      "SELECT MIN(q), MAX(q), MIN(s), MAX(s) FROM F",
      // Integer SUM overflowing in an early morsel, in a later one, and in
      // a prefix no single morsel's partial leaves int64 on.
      "SELECT SUM(v) FROM O",
      "SELECT SUM(v) FROM O WHERE id < 1000",
      "SELECT SUM(v) FROM O WHERE id >= 1000",
      "SELECT grp, SUM(v) FROM O GROUP BY grp",
      "SELECT AVG(v), COUNT(v) FROM O WHERE id < 1000",
      // DISTINCT.
      "SELECT COUNT(DISTINCT q), SUM(DISTINCT x), AVG(DISTINCT q) FROM F",
      // SUM over strings: the same TypeError.
      "SELECT SUM(s) FROM F",
      "SELECT d_id, AVG(s) FROM F GROUP BY d_id",
      // HAVING drops the groups whose SUM would overflow.
      "SELECT grp, SUM(v) FROM O GROUP BY grp HAVING MIN(id) >= 1800",
      // Over 1,000 groups in first-seen order.
      "SELECT (id * 7) % 1201, COUNT(*), SUM(q) FROM F "
      "GROUP BY (id * 7) % 1201",
      // Argument expressions.
      "SELECT SUM(q * 2), AVG(q * 2), MAX(x * 2) FROM F",
      "SELECT d_id, SUM(q * 2), MIN(x) FROM F GROUP BY d_id",
      // An argument holding a subquery folds in one in-order pass.
      "SELECT SUM(q + (SELECT MIN(d_id) FROM D)) FROM F",
      // Correlated subqueries whose aggregates read an outer column.
      "SELECT D.d_id, (SELECT MAX(F.x * D.d_id) FROM F "
      "WHERE F.d_id = D.d_id) FROM D",
      "SELECT D.name FROM D WHERE (SELECT SUM(F.q + D.d_id) FROM F "
      "WHERE F.d_id = D.d_id) > 20",
      // Joined: the fold reads its column from the fact side of each tuple.
      "SELECT D.name, COUNT(F.q), SUM(F.x) FROM F, D "
      "WHERE F.d_id = D.d_id GROUP BY D.name",
  };
  // The serial answers the differential runs hold the folds to.
  Executor serial(db.get());
  auto overflow = serial.ExecuteSql("SELECT SUM(v) FROM O WHERE id < 1000");
  ASSERT_FALSE(overflow.ok());
  EXPECT_EQ(overflow.status().message(), "integer overflow");
  auto strings = serial.ExecuteSql("SELECT SUM(s) FROM F");
  ASSERT_FALSE(strings.ok());
  EXPECT_EQ(strings.status().message(), "sum needs numeric values");
  auto kept = serial.ExecuteSql(
      "SELECT grp, SUM(v) FROM O GROUP BY grp HAVING MIN(id) >= 1800");
  ASSERT_TRUE(kept.ok()) << kept.status().ToString();
  ASSERT_EQ(kept->rows.size(), 1u);
  EXPECT_EQ(kept->rows[0][0].AsInt(), 2);
  auto ties =
      serial.ExecuteSql("SELECT MIN(x), MAX(x) FROM F WHERE x > 1 AND x < 3");
  ASSERT_TRUE(ties.ok()) << ties.status().ToString();
  EXPECT_TRUE(ties->rows[0][0].is_int());
  EXPECT_TRUE(ties->rows[0][1].is_int());
  auto groups = serial.ExecuteSql(
      "SELECT (id * 7) % 1201, COUNT(*) FROM F GROUP BY (id * 7) % 1201");
  ASSERT_TRUE(groups.ok()) << groups.status().ToString();
  EXPECT_EQ(groups->rows.size(), 1201u);

  TaskPool pool(6);
  std::mt19937_64 rng(2024);
  for (const char* q : kQueries) {
    for (int round = 0; round < 3; ++round) {
      ExpectParallelMatchesSerial(db.get(), q, &pool, rng);
    }
  }
}

// --- TSan stress: pinned table versions under real concurrency ---

// Parallel Executes race InsertRows batches that cross chunk seals. Execute
// pins the table's version once and every pool task of the call reads it,
// while each batch publishes a new version, so every query must see a
// consistent snapshot: the visible row count is one of the batch
// boundaries, never a torn intermediate.
TEST(ExecParallelStressTest, ParallelExecuteRacesInsertsAcrossChunkSeal) {
  workloads::SchemaBuilder b;
  b.Rel("T", "k:int*, v:int");
  auto db = std::make_unique<Database>(b.Build(), /*chunk_capacity=*/64);
  constexpr int kInitial = 96;  // mid-chunk: the next batch crosses a seal
  {
    std::vector<Row> batch;
    for (int i = 0; i < kInitial; ++i) {
      batch.push_back({Value::Int(i), Value::Int(i % 10)});
    }
    ASSERT_TRUE(db->InsertRows(0, std::move(batch)).ok());
  }

  constexpr int kBatches = 60;
  constexpr int kBatchRows = 50;  // 50 per batch over 64-row chunks: seals
  std::thread writer([&] {
    for (int n = 0; n < kBatches; ++n) {
      std::vector<Row> batch;
      for (int i = 0; i < kBatchRows; ++i) {
        const int64_t k = kInitial + n * kBatchRows + i;
        batch.push_back({Value::Int(k), Value::Int(static_cast<int>(k % 10))});
      }
      ASSERT_TRUE(db->InsertRows(0, std::move(batch)).ok());
      std::this_thread::yield();
    }
  });

  TaskPool pool(3);
  // Fixed query count (not gated on the writer) so the readers always
  // exercise the pinning path, even when the scheduler runs them after the
  // writer has drained.
  constexpr int kQueriesPerReader = 30;
  auto reader = [&] {
    ExecConfig cfg;
    cfg.exec_threads = 4;
    cfg.pool = &pool;
    cfg.morsel_grain = 64;  // one chunk per morsel
    Executor ex(db.get(), cfg);
    for (int i = 0; i < kQueriesPerReader; ++i) {
      auto r = ex.ExecuteSql("SELECT COUNT(*) FROM T");
      ASSERT_TRUE(r.ok()) << r.status().ToString();
      ASSERT_EQ(r->rows.size(), 1u);
      const int64_t count = r->rows[0][0].AsInt();
      // Atomic bulk insert: only batch boundaries are ever visible.
      EXPECT_GE(count, kInitial);
      EXPECT_EQ((count - kInitial) % kBatchRows, 0) << count;
    }
  };
  std::thread r1(reader);
  std::thread r2(reader);
  writer.join();
  r1.join();
  r2.join();

  // Post-race differential: the final table still answers identically in
  // serial and parallel.
  std::mt19937_64 rng(11);
  ExpectParallelMatchesSerial(db.get(), "SELECT k FROM T WHERE v = 3", &pool,
                              rng);
}

// Two threads run parallel joins concurrently on one shared pool; morsels of
// both queries interleave in the same deques. Each result must match its own
// serial baseline.
TEST(ExecParallelStressTest, TwoConcurrentParallelQueriesShareOnePool) {
  workloads::SchemaBuilder b;
  b.Rel("L", "k:int*, v:int");
  b.Rel("R2", "k:int*, w:int");
  auto db = std::make_unique<Database>(b.Build(), /*chunk_capacity=*/256);
  workloads::DataGenerator gen(3);
  ASSERT_TRUE(gen.Populate(db.get(), 4000).ok());

  const std::string q1 =
      "SELECT L.k, R2.w FROM L, R2 WHERE L.k = R2.k AND L.v > 2";
  const std::string q2 = "SELECT COUNT(*) FROM L WHERE v < 8";
  ExecConfig serial_cfg;
  serial_cfg.exec_threads = 1;
  Executor serial(db.get(), serial_cfg);
  auto base1 = serial.ExecuteSql(q1);
  auto base2 = serial.ExecuteSql(q2);
  ASSERT_TRUE(base1.ok()) << base1.status().ToString();
  ASSERT_TRUE(base2.ok()) << base2.status().ToString();

  TaskPool pool(3);
  std::atomic<bool> failed{false};
  auto run = [&](const std::string& sql, const QueryResult& expect) {
    ExecConfig cfg;
    cfg.exec_threads = 4;
    cfg.pool = &pool;
    cfg.morsel_grain = 100;
    Executor ex(db.get(), cfg);
    for (int i = 0; i < 25 && !failed.load(); ++i) {
      auto r = ex.ExecuteSql(sql);
      if (!r.ok() || !ExactlySame(expect, *r)) failed.store(true);
    }
  };
  std::thread a([&] { run(q1, *base1); });
  std::thread c([&] { run(q2, *base2); });
  a.join();
  c.join();
  EXPECT_FALSE(failed.load());
}

}  // namespace
}  // namespace sfsql::exec
