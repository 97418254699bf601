// End-to-end query execution throughput of the planned executor
// (exec/access_path planning + IndexScan + predicate pushdown + chunk-stat
// pruning + cost-based joins) at growing data sizes.
//
// Builds movie43 at --scale multiples of the base row count (default sweep
// 1, 10, 100) and runs a fixed workload of fully specified, selective SQL
// queries — point lookups, joins anchored by a selective predicate, LIKE
// prefix/infix matches, range and IN predicates. Every answer is checked
// once, untimed, against its NoREC twin (workloads::ExecuteTwin: each
// top-level WHERE conjunct c as NOT (NOT (c)), which runs on full scans,
// per-row predicates and nested-loop joins); any divergence fails the bench
// (non-zero exit). One untimed warmup pass triggers the lazy column-index
// builds so the timed rounds measure steady-state execution.
//
// A second section measures a wide 20-column table whose sargable `seq`
// column is monotone in insertion order, so every chunk covers a disjoint
// [min, max] range: selective ranges become IndexScans, and wider ranges
// scan only the chunks their per-chunk statistics cannot rule out. Answers
// are twin-checked the same way.
//
// A third section times cost-based join planning at scale: a sales star
// schema (Orders 1M-row fact table, Customer/Product/Store dimensions,
// DataGenerator-populated) runs a multi-join workload whose FROM shapes trap
// a min-cardinality-first order — the globally smallest dimension (Store)
// has a join edge that fans out to every order — while the cost model's DP
// anchors on the filtered dimension and probes the fact table through an
// index nested-loop. It reports throughput and estimated-vs-actual join
// cardinality q-errors (q = max(est,act)/min(est,act)).
//
// A fourth section measures morsel-driven parallel execution on the same
// star schema: the identical workload (fact-table scans with residual
// predicates, hash joins with fact-table probe sides, dimension-anchored
// index joins) runs once with ExecConfig::exec_threads = 1 (serial) and once
// at 4 threads over a shared exec::TaskPool. Results are compared *in row
// order* (bit-identity is the parallel executor's contract, stronger than
// the SameRows multiset check), and the pool's task/steal counters land in
// the report.
//
// Emits BENCH_execute.json with queries/sec per scale, the wide-table
// throughput and chunks-pruned counter, the star-schema join throughput and
// q-error distribution, the parallel-vs-serial speedup and pool counters,
// and the per-query latency distribution (p50/p95/p99), plus the executor's
// cumulative access-path counters in the run metadata.
//
// Acceptance: parallel execution >= 2.5x serial at 4 threads (multicore
// hosts only — a single-core machine cannot express the speedup; the
// committed baseline is a conservative minimum so such runs do not flap the
// regression gate).

#include <algorithm>
#include <chrono>
#include <thread>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "catalog/catalog.h"
#include "exec/executor.h"
#include "exec/task_pool.h"
#include "obs/bench_report.h"
#include "sql/parser.h"
#include "storage/database.h"
#include "workloads/datagen.h"
#include "workloads/metrics.h"
#include "workloads/movie43.h"
#include "workloads/schema_builder.h"

using namespace sfsql;             // NOLINT(build/namespaces)
using namespace sfsql::workloads;  // NOLINT(build/namespaces)

namespace {

// Selective queries over the movie43 schema, anchored on the planted
// benchmark entities (present at every scale; the generated bulk rows make
// them rarer as --scale grows, so selectivity improves with data size).
const std::vector<std::string>& Workload() {
  static const std::vector<std::string> queries = {
      // Point lookups.
      "SELECT name, gender FROM Person WHERE name = 'James Cameron'",
      "SELECT title, release_year FROM Movie WHERE title = 'Titanic'",
      "SELECT name FROM Genre WHERE name = 'Drama'",
      // Joins anchored by one selective predicate (pushdown prunes the build
      // sides before the hash joins).
      "SELECT Movie.title FROM Person, Director, Movie "
      "WHERE Person.person_id = Director.person_id "
      "AND Director.movie_id = Movie.movie_id "
      "AND Person.name = 'James Cameron'",
      "SELECT Movie.title FROM Movie, Movie_Genre, Genre "
      "WHERE Movie.movie_id = Movie_Genre.movie_id "
      "AND Movie_Genre.genre_id = Genre.genre_id "
      "AND Genre.name = 'Drama'",
      "SELECT Person.name FROM Person, Actor, Movie "
      "WHERE Person.person_id = Actor.person_id "
      "AND Actor.movie_id = Movie.movie_id AND Movie.title = 'Titanic'",
      // LIKE through the trigram postings.
      "SELECT title FROM Movie WHERE title LIKE 'Tita%'",
      "SELECT name FROM Person WHERE name LIKE '%Cameron%'",
      // Range / IN / compound.
      "SELECT title FROM Movie WHERE release_year BETWEEN 1997 AND 1998",
      "SELECT name FROM Company WHERE name IN "
      "('20th Century Fox', 'zzz no such company')",
      "SELECT COUNT(*) FROM Movie WHERE release_year = 1997",
      "SELECT Person.name FROM Person WHERE Person.name = 'James Cameron' "
      "AND gender = 'male'",
  };
  return queries;
}

struct RunResult {
  double seconds = 0.0;
  long long executed = 0;
  std::vector<exec::QueryResult> first_round;  ///< for cross-checking
  std::vector<double> query_seconds;           ///< per-query wall times
};

RunResult RunWorkload(exec::Executor& ex, const std::vector<std::string>& qs,
                      int rounds, bool* ok) {
  RunResult out;
  out.first_round.reserve(qs.size());
  const auto start = std::chrono::steady_clock::now();
  for (int round = 0; round < rounds; ++round) {
    for (const std::string& q : qs) {
      const auto q_start = std::chrono::steady_clock::now();
      auto r = ex.ExecuteSql(q);
      out.query_seconds.push_back(
          std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                        q_start)
              .count());
      if (!r.ok()) {
        std::fprintf(stderr, "execute failed: %s\n  %s\n",
                     r.status().ToString().c_str(), q.c_str());
        *ok = false;
        return out;
      }
      if (round == 0) out.first_round.push_back(std::move(*r));
    }
  }
  out.seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  out.executed = static_cast<long long>(qs.size()) * rounds;
  return out;
}

// Untimed cross-check of `answers` (one per query) against each query's
// twin, run on a separate executor so the twins' full scans stay out of the
// timed executor's counters.
bool MatchesTwins(const storage::Database* db,
                  const std::vector<std::string>& qs,
                  const std::vector<exec::QueryResult>& answers) {
  exec::Executor twin_ex(db);
  for (size_t i = 0; i < qs.size(); ++i) {
    auto twin = ExecuteTwin(twin_ex, qs[i]);
    if (!twin.ok() || i >= answers.size() || !twin->SameRows(answers[i])) {
      std::fprintf(stderr, "answer differs from its twin: %s\n",
                   qs[i].c_str());
      return false;
    }
  }
  return true;
}

// Wide table for the chunk-pruning section: 20 int columns, `seq` monotone in
// insertion order so consecutive chunks hold disjoint [min, max] ranges.
constexpr int kWideCols = 20;

std::unique_ptr<storage::Database> BuildWideDb(size_t rows,
                                               size_t chunk_capacity) {
  catalog::Catalog c;
  catalog::Relation w;
  w.name = "Wide";
  w.attributes.push_back({"seq", catalog::ValueType::kInt64});
  for (int i = 1; i < kWideCols; ++i) {
    w.attributes.push_back({"c" + std::to_string(i),
                            catalog::ValueType::kInt64});
  }
  w.primary_key = {0};
  if (!c.AddRelation(w).ok()) return nullptr;
  auto db = std::make_unique<storage::Database>(std::move(c), chunk_capacity);
  std::vector<storage::Row> batch;
  batch.reserve(rows);
  for (size_t r = 0; r < rows; ++r) {
    storage::Row row;
    row.reserve(kWideCols);
    row.push_back(storage::Value::Int(static_cast<int64_t>(r)));
    for (int a = 1; a < kWideCols; ++a) {
      row.push_back(storage::Value::Int(
          static_cast<int64_t>((r * static_cast<size_t>(a + 1)) % 1000)));
    }
    batch.push_back(std::move(row));
  }
  if (!db->InsertRows(0, std::move(batch)).ok()) return nullptr;
  return db;
}

// Range / point predicates over `seq`, each covering at most a couple of the
// table's chunks; only one or two of the 20 columns are referenced, so the
// planned fold also skips materializing the rest. The last query's two
// conjuncts each keep about half the table, so the planner scans instead of
// intersecting index row ids — and the scan skips the chunks either
// conjunct's statistics rule out.
std::vector<std::string> WideWorkload(size_t rows) {
  const auto n = [](size_t v) { return std::to_string(v); };
  return {
      "SELECT seq, c1 FROM Wide WHERE seq BETWEEN " + n(rows / 4) + " AND " +
          n(rows / 4 + rows / 32),
      "SELECT c2 FROM Wide WHERE seq > " + n(rows - rows / 16),
      "SELECT COUNT(*) FROM Wide WHERE seq < " + n(rows / 16),
      "SELECT c3 FROM Wide WHERE seq = " + n(rows / 2),
      "SELECT seq FROM Wide WHERE seq >= " + n(rows / 2) + " AND seq <= " +
          n(rows / 2 + rows / 64),
  };
}

// --- Cost-based join planning section: sales star schema at 1M rows ---

std::unique_ptr<storage::Database> BuildSalesDb(uint64_t seed, int orders,
                                                int customers, int products,
                                                int stores) {
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
  auto db = std::make_unique<storage::Database>(b.Build());
  DataGenerator gen(seed);
  if (!gen.Populate(db.get(), stores,
                    {{"Orders", orders},
                     {"Customer", customers},
                     {"Product", products}})
           .ok()) {
    return nullptr;
  }
  return db;
}

// Multi-join queries whose FROM shapes punish a pure min-cardinality order.
// All aggregates are order-insensitive (COUNT/MAX), so join reordering and
// sort-merge stay legal.
std::vector<std::string> JoinWorkload() {
  return {
      // Trap: Store (tiny, unfiltered) is the min-cardinality first pick,
      // and its edge fans out to every order; the filtered Customer is the
      // right anchor, with an index nested-loop probe into Orders.
      "SELECT COUNT(*) FROM Orders, Customer, Store "
      "WHERE Orders.customer_id = Customer.customer_id "
      "AND Orders.store_id = Store.store_id AND Customer.city = 'Kyoto'",
      // 4-way: only an order starting from the filtered Product avoids a
      // fact-table-sized intermediate.
      "SELECT COUNT(*) FROM Orders, Customer, Product, Store "
      "WHERE Orders.customer_id = Customer.customer_id "
      "AND Orders.product_id = Product.product_id "
      "AND Orders.store_id = Store.store_id "
      "AND Product.category = 'Drama' AND Customer.city = 'Oslo'",
      // Two filtered dimensions: Store filters to fewer base rows than
      // Customer, a tempting anchor — but each store still matches
      // orders_rows/stores facts, while the Customer anchor matches ~20.
      "SELECT MAX(Orders.order_year) FROM Orders, Customer, Store "
      "WHERE Orders.customer_id = Customer.customer_id "
      "AND Orders.store_id = Store.store_id "
      "AND Customer.name = 'James Smith' AND Store.city = 'Kyoto'",
      // Selective product anchor: the obvious order is also the cheapest.
      "SELECT COUNT(*) FROM Orders, Product, Store "
      "WHERE Orders.product_id = Product.product_id "
      "AND Orders.store_id = Store.store_id "
      "AND Product.title = 'Silent River'",
      // Two-table join with grouping (reorder-safe aggregate output).
      "SELECT Customer.city, COUNT(*) FROM Orders, Customer "
      "WHERE Orders.customer_id = Customer.customer_id "
      "AND Customer.city = 'Lisbon' GROUP BY Customer.city",
  };
}

// --- Morsel-driven parallel execution section (same star schema) ---

// Scan- and join-heavy queries where intra-query parallelism has room to
// work: every query touches the 1M-row fact table, either as a morsel-wise
// chunk scan, as a hash-join probe side, or through index nested-loop probe
// morsels.
std::vector<std::string> ParallelWorkload() {
  return {
      // Full fact-table scans with residual predicates.
      "SELECT COUNT(*) FROM Orders WHERE quantity > 3",
      "SELECT MAX(order_year) FROM Orders WHERE quantity = 2",
      "SELECT COUNT(*) FROM Orders "
      "WHERE order_year BETWEEN 1980 AND 1999 AND quantity < 3",
      // Hash join with a fact-table-sized probe side (parallel partitioned
      // build + probe morsels).
      "SELECT COUNT(*) FROM Orders, Store "
      "WHERE Orders.store_id = Store.store_id AND Store.opened_year > 1980",
      // Dimension-anchored join probing the fact table.
      "SELECT COUNT(*) FROM Orders, Customer "
      "WHERE Orders.customer_id = Customer.customer_id "
      "AND Customer.city = 'Kyoto'",
  };
}

// Ordered row-for-row equality — the parallel executor promises bit-identity
// with serial, so even a reordering counts as divergence.
bool ExactSameRows(const exec::QueryResult& a, const exec::QueryResult& b) {
  if (a.rows.size() != b.rows.size()) return false;
  for (size_t i = 0; i < a.rows.size(); ++i) {
    if (a.rows[i].size() != b.rows[i].size()) return false;
    for (size_t j = 0; j < a.rows[i].size(); ++j) {
      if (!a.rows[i][j].Equals(b.rows[i][j])) return false;
    }
  }
  return true;
}

struct JoinRunResult {
  double seconds = 0.0;
  long long executed = 0;
  std::vector<exec::QueryResult> first_round;
  std::vector<double> per_query_seconds;  ///< summed across rounds
  std::vector<double> q_errors;           ///< round 0
};

JoinRunResult RunJoinWorkload(exec::Executor& ex,
                              const std::vector<sql::SelectPtr>& stmts,
                              int rounds, bool* ok) {
  JoinRunResult out;
  out.first_round.reserve(stmts.size());
  out.per_query_seconds.assign(stmts.size(), 0.0);
  const auto start = std::chrono::steady_clock::now();
  for (int round = 0; round < rounds; ++round) {
    for (size_t i = 0; i < stmts.size(); ++i) {
      exec::ExecInfo info;
      const auto q_start = std::chrono::steady_clock::now();
      auto r = ex.Execute(*stmts[i], &info);
      out.per_query_seconds[i] +=
          std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                        q_start)
              .count();
      if (!r.ok()) {
        std::fprintf(stderr, "join query %zu failed: %s\n", i,
                     r.status().ToString().c_str());
        *ok = false;
        return out;
      }
      if (round == 0) {
        out.first_round.push_back(std::move(*r));
        if (info.has_join_actuals && info.estimated_join_rows >= 0.0) {
          const double est = std::max(1.0, info.estimated_join_rows);
          const double act =
              std::max(1.0, static_cast<double>(info.actual_join_rows));
          out.q_errors.push_back(std::max(est, act) / std::min(est, act));
        }
      }
    }
  }
  out.seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  out.executed = static_cast<long long>(stmts.size()) * rounds;
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  int single_scale = 0;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else if (std::strcmp(argv[i], "--scale") == 0 && i + 1 < argc) {
      single_scale = std::atoi(argv[++i]);
      if (single_scale < 1) {
        std::fprintf(stderr, "usage: bench_execute [--smoke] [--scale N>=1]\n");
        return 2;
      }
    } else {
      std::fprintf(stderr, "usage: bench_execute [--smoke] [--scale N>=1]\n");
      return 2;
    }
  }
  const uint64_t seed = 42;
  const int base_rows = 60;
  const int index_rounds = smoke ? 3 : 40;
  std::vector<int> scales = single_scale > 0 ? std::vector<int>{single_scale}
                                             : std::vector<int>{1, 10, 100};

  obs::BenchReport report("execute");
  report.SetConfig("database", "movie43");
  report.SetConfig("seed", static_cast<long long>(seed));
  report.SetConfig("base_rows_per_relation", static_cast<long long>(base_rows));
  report.SetConfig("index_rounds", static_cast<long long>(index_rounds));
  report.SetConfig("workload_queries",
                   static_cast<long long>(Workload().size()));

  std::printf("planned execution throughput — movie43, scales x%d..x%d, "
              "%zu queries\n\n",
              scales.front(), scales.back(), Workload().size());
  std::printf("%7s %10s %15s\n", "scale", "rows", "q/s");

  bool all_identical = true;
  std::vector<double> index_query_seconds;
  std::unique_ptr<storage::Database> last_db;
  std::unique_ptr<exec::Executor> last_indexed;
  exec::ExecStats final_stats;
  for (int scale : scales) {
    auto db = BuildMovie43(seed, base_rows, scale);
    auto indexed_ptr = std::make_unique<exec::Executor>(db.get());
    exec::Executor& indexed = *indexed_ptr;

    bool ok = true;
    // Untimed warmup: builds every lazy column index the workload touches,
    // and its answers are checked against their twins.
    RunResult warmup = RunWorkload(indexed, Workload(), 1, &ok);
    if (!ok) return 1;
    const bool identical = MatchesTwins(db.get(), Workload(),
                                        warmup.first_round);
    all_identical = all_identical && identical;

    RunResult index = RunWorkload(indexed, Workload(), index_rounds, &ok);
    if (!ok) return 1;
    index_query_seconds.insert(index_query_seconds.end(),
                               index.query_seconds.begin(),
                               index.query_seconds.end());
    const double index_qps = index.executed / index.seconds;

    std::printf("%6dx %10zu %15.0f%s\n", scale, db->TotalRows(), index_qps,
                identical ? "" : "  DIFFERS FROM TWIN — BUG");

    const exec::ExecStats stats = indexed.stats();
    report.AddRow(
        "scales",
        obs::BenchReport::Row()
            .Number("scale", scale)
            .Number("dataset_rows", static_cast<double>(db->TotalRows()))
            .Number("index_queries_per_second", index_qps)
            .Number("index_scans", static_cast<double>(stats.index_scans))
            .Number("table_scans", static_cast<double>(stats.table_scans))
            .Number("index_joins", static_cast<double>(stats.index_joins))
            .Number("rows_pruned", static_cast<double>(stats.rows_pruned))
            .Number("results_identical", identical ? 1 : 0));
    report.SetMetric("index_queries_per_second_scale" + std::to_string(scale),
                     index_qps);
    final_stats = stats;
    last_db = std::move(db);  // the executor's db pointer stays valid
    last_indexed = std::move(indexed_ptr);
  }

  // --- Wide-table section: IndexScans and chunk-stat pruning ---
  const size_t wide_chunk_capacity = 4096;
  const size_t wide_rows = smoke ? 4 * wide_chunk_capacity
                                 : 16 * wide_chunk_capacity;
  const int wide_pruning_rounds = smoke ? 2 : 12;
  report.SetConfig("wide_rows", static_cast<long long>(wide_rows));
  report.SetConfig("wide_columns", static_cast<long long>(kWideCols));
  report.SetConfig("wide_chunk_capacity",
                   static_cast<long long>(wide_chunk_capacity));
  {
    auto wide_db = BuildWideDb(wide_rows, wide_chunk_capacity);
    if (wide_db == nullptr) {
      std::fprintf(stderr, "wide table build failed\n");
      return 1;
    }
    const std::vector<std::string> wide_queries = WideWorkload(wide_rows);
    exec::Executor pruning(wide_db.get());

    bool ok = true;
    RunResult warmup = RunWorkload(pruning, wide_queries, 1, &ok);
    if (!ok) return 1;
    const bool identical = MatchesTwins(wide_db.get(), wide_queries,
                                        warmup.first_round);
    all_identical = all_identical && identical;
    RunResult pruned =
        RunWorkload(pruning, wide_queries, wide_pruning_rounds, &ok);
    if (!ok) return 1;

    const double pruning_qps = pruned.executed / pruned.seconds;
    const exec::ExecStats pstats = pruning.stats();

    std::printf("\nwide table — %zu rows x %d cols, chunks of %zu\n",
                wide_rows, kWideCols, wide_chunk_capacity);
    std::printf("%15s %15s\n", "q/s", "chunks pruned");
    std::printf("%15.0f %15llu%s\n", pruning_qps,
                static_cast<unsigned long long>(pstats.chunks_pruned),
                identical ? "" : "  DIFFERS FROM TWIN — BUG");

    report.AddRow("pruning",
                  obs::BenchReport::Row()
                      .Number("rows", static_cast<double>(wide_rows))
                      .Number("pruning_queries_per_second", pruning_qps)
                      .Number("chunks_pruned",
                              static_cast<double>(pstats.chunks_pruned))
                      .Number("results_identical", identical ? 1 : 0));
    report.SetMetric("wide_pruning_queries_per_second", pruning_qps);
    // The run-metadata block also emits exec_chunks_pruned for the movie43
    // executor; this one counts the wide-table workload alone.
    report.SetMetric("wide_chunks_pruned",
                     static_cast<double>(pstats.chunks_pruned));
  }

  // --- Cost-based join planning section (sales star schema) ---
  const int orders_rows = smoke ? 60000 : 1000000;
  const int customer_rows = smoke ? 5000 : 50000;
  const int product_rows = smoke ? 2000 : 20000;
  const int store_rows = smoke ? 50 : 200;
  const int cost_join_rounds = smoke ? 2 : 10;
  report.SetConfig("sales_orders_rows", static_cast<long long>(orders_rows));
  report.SetConfig("sales_customer_rows",
                   static_cast<long long>(customer_rows));
  report.SetConfig("sales_product_rows", static_cast<long long>(product_rows));
  report.SetConfig("sales_store_rows", static_cast<long long>(store_rows));
  // Built once, shared by the cost-planning and parallel-execution sections.
  auto sales_db = BuildSalesDb(seed, orders_rows, customer_rows, product_rows,
                               store_rows);
  if (sales_db == nullptr) {
    std::fprintf(stderr, "sales star schema build failed\n");
    return 1;
  }
  {
    std::vector<sql::SelectPtr> stmts;
    for (const std::string& q : JoinWorkload()) {
      auto parsed = sql::ParseSelect(q);
      if (!parsed.ok()) {
        std::fprintf(stderr, "parse failed: %s\n  %s\n",
                     parsed.status().ToString().c_str(), q.c_str());
        return 1;
      }
      stmts.push_back(std::move(*parsed));
    }

    exec::Executor cost(sales_db.get());
    bool ok = true;
    // Untimed warmup (lazy column-index builds).
    (void)RunJoinWorkload(cost, stmts, 1, &ok);
    if (!ok) return 1;
    JoinRunResult cost_run = RunJoinWorkload(cost, stmts, cost_join_rounds, &ok);
    if (!ok) return 1;
    const double cost_qps = cost_run.executed / cost_run.seconds;

    std::vector<double> q_errors = cost_run.q_errors;
    std::sort(q_errors.begin(), q_errors.end());
    const double qerror_median =
        q_errors.empty() ? 0.0 : q_errors[q_errors.size() / 2];
    const double qerror_max = q_errors.empty() ? 0.0 : q_errors.back();

    std::printf("\ncost-based join planning — sales star schema, %zu rows "
                "(%d-row fact table)\n",
                sales_db->TotalRows(), orders_rows);
    std::printf("%5s %12s %10s\n", "query", "ms", "q-error");
    for (size_t i = 0; i < stmts.size(); ++i) {
      const double c_ms = cost_run.per_query_seconds[i] / cost_join_rounds * 1e3;
      const double q_error =
          i < cost_run.q_errors.size() ? cost_run.q_errors[i] : 0.0;
      std::printf("%5zu %12.2f %10.2f\n", i + 1, c_ms, q_error);
      report.AddRow("join_planning",
                    obs::BenchReport::Row()
                        .Number("query", static_cast<double>(i + 1))
                        .Number("cost_ms", c_ms)
                        .Number("q_error", q_error));
    }
    std::printf("overall: %.0f q/s; q-error median %.2f max %.2f\n", cost_qps,
                qerror_median, qerror_max);

    const exec::ExecStats cstats = cost.stats();
    report.SetMetric("cost_join_queries_per_second", cost_qps);
    report.SetMetric("join_qerror_median", qerror_median);
    report.SetMetric("join_qerror_max", qerror_max);
    report.SetMetric("cost_hash_joins", static_cast<double>(cstats.hash_joins));
    report.SetMetric("cost_sort_merge_joins",
                     static_cast<double>(cstats.sort_merge_joins));
    report.SetMetric("cost_index_joins",
                     static_cast<double>(cstats.index_joins));
  }

  // --- Morsel-driven parallel execution section (same star schema) ---
  const int parallel_threads = 4;
  const int parallel_rounds = smoke ? 2 : 6;
  report.SetConfig("parallel_threads", static_cast<long long>(parallel_threads));
  report.SetConfig("parallel_rounds", static_cast<long long>(parallel_rounds));
  double parallel_speedup = 0.0;
  {
    const std::vector<std::string> pqueries = ParallelWorkload();

    exec::ExecConfig serial_cfg;  // defaults: exec_threads = 1, serial
    exec::Executor serial(sales_db.get(), serial_cfg);
    exec::TaskPool pool(static_cast<size_t>(parallel_threads - 1));
    exec::ExecConfig parallel_cfg;
    parallel_cfg.exec_threads = parallel_threads;
    parallel_cfg.pool = &pool;
    exec::Executor parallel(sales_db.get(), parallel_cfg);

    bool ok = true;
    // Untimed warmups on both configs (lazy column-index builds).
    (void)RunWorkload(parallel, pqueries, 1, &ok);
    if (!ok) return 1;
    (void)RunWorkload(serial, pqueries, 1, &ok);
    if (!ok) return 1;

    RunResult serial_run = RunWorkload(serial, pqueries, parallel_rounds, &ok);
    if (!ok) return 1;
    RunResult parallel_run =
        RunWorkload(parallel, pqueries, parallel_rounds, &ok);
    if (!ok) return 1;

    // Bit-identity check: same rows in the same order, not just the same
    // multiset.
    bool identical =
        serial_run.first_round.size() == parallel_run.first_round.size();
    for (size_t i = 0; identical && i < serial_run.first_round.size(); ++i) {
      identical =
          ExactSameRows(serial_run.first_round[i], parallel_run.first_round[i]);
    }
    all_identical = all_identical && identical;

    const double serial_qps = serial_run.executed / serial_run.seconds;
    const double parallel_qps = parallel_run.executed / parallel_run.seconds;
    parallel_speedup = parallel_qps / serial_qps;
    const exec::TaskPoolStats pool_stats = pool.stats();

    std::printf("\nmorsel-driven parallel execution — sales star schema, "
                "%d threads vs serial\n",
                parallel_threads);
    std::printf("%15s %15s %9s %12s %12s\n", "serial q/s", "parallel q/s",
                "speedup", "pool tasks", "pool steals");
    std::printf("%15.1f %15.1f %8.2fx %12llu %12llu%s\n", serial_qps,
                parallel_qps, parallel_speedup,
                static_cast<unsigned long long>(pool_stats.tasks),
                static_cast<unsigned long long>(pool_stats.steals),
                identical ? "" : "  RESULTS DIVERGE — BUG");

    report.AddRow("parallel",
                  obs::BenchReport::Row()
                      .Number("threads", parallel_threads)
                      .Number("serial_queries_per_second", serial_qps)
                      .Number("parallel_queries_per_second", parallel_qps)
                      .Number("speedup_parallel_vs_serial", parallel_speedup)
                      .Number("pool_tasks",
                              static_cast<double>(pool_stats.tasks))
                      .Number("pool_steals",
                              static_cast<double>(pool_stats.steals))
                      .Number("results_identical", identical ? 1 : 0));
    report.SetMetric("serial_exec_queries_per_second", serial_qps);
    report.SetMetric("parallel_exec_queries_per_second", parallel_qps);
    report.SetMetric("speedup_parallel_vs_serial", parallel_speedup);
    report.SetMetric("pool_tasks", static_cast<double>(pool_stats.tasks));
    report.SetMetric("pool_steals", static_cast<double>(pool_stats.steals));
  }

  report.SetMetric("results_identical", all_identical ? 1 : 0);
  std::printf("\nacceptance: parallel execution >= 2.5x serial at %d threads — "
              "%.2fx %s\n",
              parallel_threads, parallel_speedup,
              parallel_speedup >= 2.5
                  ? "PASS"
                  : (std::thread::hardware_concurrency() < 4
                         ? "MISS (host has too few cores)"
                         : "MISS"));
  std::printf("answers identical to twins and across thread counts: %s\n",
              all_identical ? "yes" : "NO — BUG");
  std::printf("access paths at last scale: %llu index scan(s), %llu table "
              "scan(s), %llu index join(s), %llu row(s) pruned, %llu pushed "
              "predicate(s)\n",
              static_cast<unsigned long long>(final_stats.index_scans),
              static_cast<unsigned long long>(final_stats.table_scans),
              static_cast<unsigned long long>(final_stats.index_joins),
              static_cast<unsigned long long>(final_stats.rows_pruned),
              static_cast<unsigned long long>(final_stats.pushed_predicates));

  report.SetLatencyMetrics("index_query_seconds",
                           std::move(index_query_seconds));
  report.SetMetric("exec_index_scans_last_scale",
                   static_cast<double>(final_stats.index_scans));
  report.SetMetric("exec_rows_pruned_last_scale",
                   static_cast<double>(final_stats.rows_pruned));
  RecordRunMetadata(&report, *last_db, last_indexed.get());
  (void)report.WriteFile();
  return all_identical ? 0 : 1;
}
