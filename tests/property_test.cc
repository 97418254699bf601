// Property-based tests on randomized schemas and queries: the top-k generator
// is checked against the exhaustive oracle, canonical signatures against
// construction order, and the executor against join-order permutations.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <random>
#include <thread>

#include "core/engine.h"
#include "core/mapper.h"
#include "core/mtjn_generator.h"
#include "core/plan_cache.h"
#include "exec/executor.h"
#include "index_checks.h"
#include "obs/clock.h"
#include "sql/parser.h"
#include "sql/printer.h"
#include "text/similarity.h"
#include "workloads/datagen.h"
#include "workloads/metrics.h"
#include "workloads/movie43.h"
#include "workloads/movie6.h"
#include "workloads/schema_builder.h"
#include "workloads/serving.h"

namespace sfsql {
namespace {

using workloads::DataGenerator;
using workloads::SchemaBuilder;

/// Builds a random acyclic schema: `n` entity relations, each non-root with a
/// FK to some earlier relation, plus a few extra cross FKs.
storage::Database RandomDatabase(std::mt19937_64& rng, int n) {
  SchemaBuilder b;
  std::vector<std::string> names;
  for (int i = 0; i < n; ++i) {
    std::string name = "R" + std::to_string(i);
    std::string spec = name + "_id:int*, name:str, val:int";
    if (i > 0) spec += ", ref:int";
    b.Rel(name, spec);
    names.push_back(name);
  }
  for (int i = 1; i < n; ++i) {
    int target = static_cast<int>(rng() % i);
    b.Fk(names[i] + ".ref", names[target] + "." + names[target] + "_id");
  }
  storage::Database db(b.Build());
  DataGenerator gen(rng());
  EXPECT_TRUE(gen.Populate(&db, 12).ok());
  return db;
}

TEST(GeneratorPropertyTest, TopKMatchesOracleOnRandomSchemas) {
  std::mt19937_64 rng(20140622);
  for (int trial = 0; trial < 12; ++trial) {
    int n = 4 + static_cast<int>(rng() % 4);  // 4..7 relations
    storage::Database db = RandomDatabase(rng, n);

    // A query touching two or three random relations by exact name.
    std::vector<int> rels;
    for (int r = 0; r < db.catalog().num_relations(); ++r) rels.push_back(r);
    std::shuffle(rels.begin(), rels.end(), rng);
    int l = 2 + static_cast<int>(rng() % 2);
    std::string sf = "SELECT ";
    for (int i = 0; i < l; ++i) {
      if (i) sf += ", ";
      sf += db.catalog().relation(rels[i]).name + ".name";
    }

    auto stmt = sql::ParseSelect(sf);
    ASSERT_TRUE(stmt.ok()) << sf;
    auto extraction = core::ExtractRelationTrees(**stmt);
    ASSERT_TRUE(extraction.ok());
    core::RelationTreeMapper mapper(&db, core::SimilarityConfig{});
    core::QueryNameProfiles names(mapper.config().qgram);
    std::vector<core::MappingSet> mappings;
    for (const core::RelationTree& rt : extraction->trees) {
      mappings.push_back(mapper.Map(rt, names));
      ASSERT_FALSE(mappings.back().candidates.empty());
    }
    core::ViewGraph views(&db.catalog());
    core::GeneratorConfig config;
    config.max_jn_nodes = n + 1;
    auto graph = core::ExtendedViewGraph::Build(
        db, views, extraction->trees, mappings, mapper, names, config);
    ASSERT_TRUE(graph.ok()) << graph.status().ToString();
    core::MtjnGenerator generator(&*graph, config);

    auto oracle = generator.EnumerateAll(config.max_jn_nodes);
    auto ours = generator.TopK(3);
    auto rightmost = generator.TopKRightmost(3);
    auto regular = generator.TopKRegular(3);

    // Instrumentation fully armed (injected clock, stats, trace) must not
    // perturb the search: same networks, same weights to the bit.
    obs::FakeClock clock(0, 1'000);
    config.clock = &clock;
    core::GeneratorStats stats;
    core::GeneratorTrace trace;
    auto traced = core::MtjnGenerator(&*graph, config).TopK(3, &stats, &trace);
    ASSERT_EQ(traced.size(), ours.size());
    for (size_t i = 0; i < ours.size(); ++i) {
      EXPECT_EQ(traced[i].network.CanonicalSignature(),
                ours[i].network.CanonicalSignature());
      EXPECT_EQ(traced[i].weight, ours[i].weight);
    }
    EXPECT_EQ(static_cast<int>(trace.roots.size()), stats.roots);

    if (oracle.empty()) {
      EXPECT_TRUE(ours.empty()) << "trial " << trial << " query " << sf;
      continue;
    }
    ASSERT_FALSE(ours.empty()) << "trial " << trial << " query " << sf;
    // The three strategies and the oracle agree on the best network.
    EXPECT_EQ(ours[0].network.CanonicalSignature(),
              oracle[0].network.CanonicalSignature())
        << "trial " << trial << " query " << sf << "\nours: "
        << ours[0].network.ToString()
        << "\noracle: " << oracle[0].network.ToString();
    EXPECT_NEAR(ours[0].weight, oracle[0].weight, 1e-9);
    ASSERT_FALSE(rightmost.empty());
    ASSERT_FALSE(regular.empty());
    EXPECT_NEAR(rightmost[0].weight, oracle[0].weight, 1e-9);
    EXPECT_NEAR(regular[0].weight, oracle[0].weight, 1e-9);
    // Every returned network is minimal and total.
    for (const core::ScoredNetwork& s : ours) {
      EXPECT_TRUE(s.network.IsTotal());
      EXPECT_TRUE(s.network.IsMinimal());
    }
    // Weights are sorted and within (0, 1].
    for (size_t i = 0; i < ours.size(); ++i) {
      EXPECT_GT(ours[i].weight, 0.0);
      EXPECT_LE(ours[i].weight, 1.0 + 1e-12);
      if (i > 0) {
        EXPECT_LE(ours[i].weight, ours[i - 1].weight + 1e-12);
      }
    }
    // The whole top-k matches the oracle's prefix, modulo last-ulp weight
    // differences from differing construction orders; equal-weight groups may
    // then be ordered differently, so compare the prefix as a set.
    ASSERT_EQ(ours.size(), std::min<size_t>(3, oracle.size()));
    for (size_t i = 0; i < ours.size(); ++i) {
      EXPECT_NEAR(ours[i].weight, oracle[i].weight, 1e-9);
    }
    if (ours.size() == oracle.size() ||
        oracle[ours.size()].weight < ours.back().weight - 1e-9) {
      std::vector<std::string> ours_sigs, oracle_sigs;
      for (size_t i = 0; i < ours.size(); ++i) {
        ours_sigs.push_back(ours[i].network.CanonicalSignature());
        oracle_sigs.push_back(oracle[i].network.CanonicalSignature());
      }
      std::sort(ours_sigs.begin(), ours_sigs.end());
      std::sort(oracle_sigs.begin(), oracle_sigs.end());
      EXPECT_EQ(ours_sigs, oracle_sigs) << "trial " << trial << " query " << sf;
    }
  }
}

TEST(GeneratorPropertyTest, PotentialUpperBoundsDescendantsOnPaths) {
  // On the movie6 graph, the potential of every ancestor prefix of the best
  // network must be at least the final weight.
  auto db = workloads::BuildMovie6();
  auto stmt = sql::ParseSelect(workloads::Movie6SchemaFreeSql());
  ASSERT_TRUE(stmt.ok());
  auto extraction = core::ExtractRelationTrees(**stmt);
  ASSERT_TRUE(extraction.ok());
  core::RelationTreeMapper mapper(db.get(), core::SimilarityConfig{});
  core::QueryNameProfiles names(mapper.config().qgram);
  std::vector<core::MappingSet> mappings;
  for (const core::RelationTree& rt : extraction->trees) {
    mappings.push_back(mapper.Map(rt, names));
  }
  core::ViewGraph views(&db->catalog());
  auto graph = core::ExtendedViewGraph::Build(*db, views, extraction->trees,
                                              mappings, mapper, names,
                                              core::GeneratorConfig{});
  ASSERT_TRUE(graph.ok());
  core::MtjnGenerator generator(&*graph, core::GeneratorConfig{});
  auto best = generator.TopK(1);
  ASSERT_FALSE(best.empty());
  for (int rt0 : graph->NodesOfRt(0)) {
    core::JoinNetwork seed(&*graph, rt0, true);
    EXPECT_GE(generator.PotentialEstimate(seed) + 1e-9, best[0].weight);
  }
}

TEST(SignaturePropertyTest, ConstructionOrderInvariance) {
  // Build the same 3-node network in two different expansion orders on the
  // movie6 graph and check the canonical signatures coincide.
  auto db = workloads::BuildMovie6();
  auto stmt = sql::ParseSelect("SELECT Person.name, Movie.title FROM Person, "
                               "Movie");
  ASSERT_TRUE(stmt.ok());
  auto extraction = core::ExtractRelationTrees(**stmt);
  ASSERT_TRUE(extraction.ok());
  core::RelationTreeMapper mapper(db.get(), core::SimilarityConfig{});
  core::QueryNameProfiles names(mapper.config().qgram);
  std::vector<core::MappingSet> mappings;
  for (const core::RelationTree& rt : extraction->trees) {
    mappings.push_back(mapper.Map(rt, names));
  }
  core::ViewGraph views(&db->catalog());
  auto graph = core::ExtendedViewGraph::Build(*db, views, extraction->trees,
                                              mappings, mapper, names,
                                              core::GeneratorConfig{});
  ASSERT_TRUE(graph.ok());

  int person = -1, movie = -1, actor = -1;
  for (int i = 0; i < graph->num_nodes(); ++i) {
    const core::XNode& x = graph->node(i);
    const std::string& name = db->catalog().relation(x.relation_id).name;
    if (name == "Person" && x.rt_id == 0) person = i;
    if (name == "Movie" && x.rt_id == 1) movie = i;
    if (name == "Actor" && x.rt_id < 0) actor = i;
  }
  ASSERT_GE(person, 0);
  ASSERT_GE(movie, 0);
  ASSERT_GE(actor, 0);

  auto edge_between = [&](int a, int b) {
    for (int e : graph->EdgesOf(a)) {
      if (graph->edge(e).other(a) == b) return e;
    }
    return -1;
  };
  int pa = edge_between(person, actor);
  int am = edge_between(actor, movie);
  ASSERT_GE(pa, 0);
  ASSERT_GE(am, 0);

  // Person -> Actor -> Movie vs Movie -> Actor -> Person.
  core::JoinNetwork a(&*graph, person, true);
  auto a1 = a.ExpandByEdge(pa, 0, 5, false);
  ASSERT_TRUE(a1.has_value());
  auto a2 = a1->ExpandByEdge(am, 1, 5, false);
  ASSERT_TRUE(a2.has_value());

  core::JoinNetwork b(&*graph, movie, true);
  auto b1 = b.ExpandByEdge(am, 0, 5, false);
  ASSERT_TRUE(b1.has_value());
  auto b2 = b1->ExpandByEdge(pa, 1, 5, false);
  ASSERT_TRUE(b2.has_value());

  EXPECT_EQ(a2->CanonicalSignature(), b2->CanonicalSignature());
  EXPECT_NEAR(a2->weight(), b2->weight(), 1e-12);
  EXPECT_TRUE(a2->IsTotal());
  EXPECT_TRUE(a2->IsMinimal());
}

TEST(ExecutorPropertyTest, JoinOrderInvariance) {
  // Shuffling the FROM order must not change the result multiset.
  auto db = workloads::BuildMovie6();
  exec::Executor executor(db.get());
  const char* joins[] = {
      "Person, Actor, Movie",    "Actor, Person, Movie",
      "Movie, Actor, Person",    "Movie, Person, Actor",
      "Actor, Movie, Person",    "Person, Movie, Actor",
  };
  exec::QueryResult reference;
  for (size_t i = 0; i < std::size(joins); ++i) {
    std::string sql =
        std::string("SELECT Person.name, Movie.title FROM ") + joins[i] +
        " WHERE Person.person_id = Actor.person_id AND Actor.movie_id = "
        "Movie.movie_id";
    auto result = executor.ExecuteSql(sql);
    ASSERT_TRUE(result.ok()) << sql;
    if (i == 0) {
      reference = *result;
      EXPECT_FALSE(reference.rows.empty());
    } else {
      EXPECT_TRUE(result->SameRows(reference)) << sql;
    }
  }
}

TEST(ExecutorPropertyTest, PredicateOrderInvariance) {
  auto db = workloads::BuildMovie6();
  exec::Executor executor(db.get());
  auto a = executor.ExecuteSql(
      "SELECT name FROM Person WHERE gender = 'male' AND person_id > 1");
  auto b = executor.ExecuteSql(
      "SELECT name FROM Person WHERE person_id > 1 AND gender = 'male'");
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_TRUE(a->SameRows(*b));
}

TEST(ParserPropertyTest, PrintParseFixpoint) {
  // print(parse(x)) is a fixpoint: parsing the printed form and printing again
  // yields the same string, for a grab bag of queries.
  const char* queries[] = {
      workloads::Movie6SchemaFreeSql(),
      workloads::Movie6GoldSql(),
      "SELECT DISTINCT a?, count(*) FROM t? WHERE x IN (SELECT y FROM u WHERE "
      "z BETWEEN 1 AND 2) GROUP BY a? HAVING count(*) > 1 ORDER BY a? DESC "
      "LIMIT 3",
      "SELECT ?x, ? WHERE ?x > 1.5 AND name? LIKE '%a%' AND b IS NOT NULL",
      "SELECT a + b * c - -d FROM t WHERE NOT (x = 1 OR y = 2)",
  };
  for (const char* q : queries) {
    auto first = sql::ParseSelect(q);
    ASSERT_TRUE(first.ok()) << q;
    std::string printed = sql::PrintSelect(**first);
    auto second = sql::ParseSelect(printed);
    ASSERT_TRUE(second.ok()) << printed;
    EXPECT_EQ(printed, sql::PrintSelect(**second));
  }
}

// ---- §4.3 condition-satisfiability index properties ----

/// Characters deliberately overlapping the LIKE metacharacters ('%', '_') and
/// the escape used below ('!'), so random data and random patterns exercise
/// every escaping path.
std::string RandomPatternish(std::mt19937_64& rng, size_t max_len) {
  static const char kAlpha[] = "ab%_!xy";
  std::string s;
  size_t len = rng() % (max_len + 1);
  for (size_t i = 0; i < len; ++i) s += kAlpha[rng() % (sizeof(kAlpha) - 1)];
  return s;
}

storage::Value RandomValue(std::mt19937_64& rng, catalog::ValueType type,
                           bool allow_null) {
  if (allow_null && rng() % 6 == 0) return storage::Value::Null_();
  switch (type) {
    case catalog::ValueType::kInt64:
      return storage::Value::Int(static_cast<int64_t>(rng() % 21) - 10);
    case catalog::ValueType::kDouble:
      // Half the values are ints (legal in a double column), so probes hit
      // the int64/double coercion in both the index and the scan.
      return rng() % 2 ? storage::Value::Double(
                             static_cast<double>(rng() % 41) / 4.0 - 5.0)
                       : storage::Value::Int(static_cast<int64_t>(rng() % 11) -
                                             5);
    case catalog::ValueType::kBool:
      return storage::Value::Bool(rng() % 2 == 0);
    default:
      return storage::Value::String(RandomPatternish(rng, 8));
  }
}

TEST(IndexPropertyTest, IndexedMatchesScanOnRandomData) {
  std::mt19937_64 rng(43);
  SchemaBuilder b;
  b.Rel("T", "id:int*, i:int, d:double, s:str, b:bool");
  // Small chunks, so the prune test sees many chunks.
  storage::Database db(b.Build(), /*chunk_capacity=*/32);
  auto insert_rows = [&](int count, int base) {
    for (int i = 0; i < count; ++i) {
      ASSERT_TRUE(
          db.Insert(0, {storage::Value::Int(base + i),
                        RandomValue(rng, catalog::ValueType::kInt64, true),
                        RandomValue(rng, catalog::ValueType::kDouble, true),
                        RandomValue(rng, catalog::ValueType::kString, true),
                        RandomValue(rng, catalog::ValueType::kBool, true)})
              .ok());
    }
  };
  insert_rows(300, 0);

  using storage::ColumnPredicate;
  const catalog::ValueType kTypes[] = {
      catalog::ValueType::kInt64, catalog::ValueType::kDouble,
      catalog::ValueType::kString, catalog::ValueType::kBool};
  const char* kOps[] = {"=", "<>", "!=", "<", "<=", ">", ">="};
  // IN lists and BETWEEN bounds come from their own stream, leaving the
  // compare and LIKE cases above exactly as drawn by `rng`.
  std::mt19937_64 list_rng(4343);
  for (int trial = 0; trial < 2000; ++trial) {
    // Appending mid-stream exercises the stamp invalidation + lazy rebuild.
    if (trial == 1000) insert_rows(100, 300);
    const int attr = 1 + static_cast<int>(rng() % 4);
    if (trial % 3 == 0) {
      const char escape = rng() % 2 == 0 ? '!' : '\0';
      const std::string pattern = RandomPatternish(rng, 6);
      const core::Condition like{"like", {storage::Value::String(pattern),
                                          storage::Value::String({escape})}};
      const std::string what = "attr " + std::to_string(attr) + " pattern '" +
                               pattern + "' escape '" +
                               (escape ? escape : ' ') + "'";
      EXPECT_EQ(
          db.AnyTupleSatisfies(0, attr, ColumnPredicate::Like(pattern, escape)),
          workloads::ScanConditionSatisfiable(db, 0, attr, like))
          << what;
      test_support::ExpectIndexAnswersAgree(
          db, 0, attr, ColumnPredicate::Like(pattern, escape), what);
    } else {
      const char* op = kOps[rng() % std::size(kOps)];
      const storage::Value v = RandomValue(rng, kTypes[rng() % 4], true);
      const std::string what = "attr " + std::to_string(attr) + " op " + op +
                               " value " + v.ToSqlLiteral();
      EXPECT_EQ(db.AnyTupleSatisfies(0, attr, ColumnPredicate::Compare(op, v)),
                workloads::ScanConditionSatisfiable(db, 0, attr,
                                                    core::Condition{op, {v}}))
          << what;
      test_support::ExpectIndexAnswersAgree(
          db, 0, attr, ColumnPredicate::Compare(op, v), what);
    }
    // An IN list of the column's own class (duplicates likely) with NULLs
    // and strays of other classes, and a BETWEEN whose bounds are drawn
    // independently (low > high about half the time).
    const catalog::ValueType own =
        db.catalog().relation(0).attributes[attr].type;
    std::vector<storage::Value> items;
    const size_t n = list_rng() % 5;
    for (size_t k = 0; k < n; ++k) {
      items.push_back(RandomValue(
          list_rng, list_rng() % 4 == 0 ? kTypes[list_rng() % 4] : own, true));
    }
    if (n > 0) items.push_back(items[list_rng() % n]);
    const std::string in_what = "attr " + std::to_string(attr) + " IN of " +
                                std::to_string(items.size());
    EXPECT_EQ(db.AnyTupleSatisfies(0, attr, ColumnPredicate::In(items)),
              workloads::ScanConditionSatisfiable(db, 0, attr,
                                                  core::Condition{"in", items}))
        << in_what;
    test_support::ExpectIndexAnswersAgree(db, 0, attr,
                                          ColumnPredicate::In(items), in_what);
    const storage::Value low = RandomValue(list_rng, own, true);
    const storage::Value high = RandomValue(list_rng, own, true);
    test_support::ExpectIndexAnswersAgree(
        db, 0, attr, ColumnPredicate::Between(low, high),
        "attr " + std::to_string(attr) + " BETWEEN " + low.ToSqlLiteral() +
            " AND " + high.ToSqlLiteral());
  }
}

TEST(IndexPropertyTest, MapperProbesMatchScanOnRandomConditions) {
  std::mt19937_64 rng(4406);
  SchemaBuilder b;
  b.Rel("A", "a_id:int*, s:str, i:int, d:double, flag:bool");
  b.Rel("B", "b_id:int*, s:str, ref:int");
  b.Fk("B.ref", "A.a_id");
  storage::Database db(b.Build());
  for (int i = 0; i < 150; ++i) {
    ASSERT_TRUE(
        db.Insert(0, {storage::Value::Int(i),
                      RandomValue(rng, catalog::ValueType::kString, true),
                      RandomValue(rng, catalog::ValueType::kInt64, true),
                      RandomValue(rng, catalog::ValueType::kDouble, true),
                      RandomValue(rng, catalog::ValueType::kBool, true)})
            .ok());
    ASSERT_TRUE(
        db.Insert(1, {storage::Value::Int(i),
                      RandomValue(rng, catalog::ValueType::kString, true),
                      storage::Value::Int(static_cast<int64_t>(rng() % 150))})
            .ok());
  }

  // A pool of random conditions, every operator the mapper knows (IN lists,
  // LIKE with and without escape, an unknown op) plus out-of-range ordinals.
  struct Probe {
    int relation;
    int attr;
    core::Condition cond;
  };
  const catalog::ValueType kTypes[] = {
      catalog::ValueType::kInt64, catalog::ValueType::kDouble,
      catalog::ValueType::kString, catalog::ValueType::kBool};
  std::vector<Probe> pool;
  const char* kOps[] = {"=", "<>", "<", "<=", ">", ">=", "~~nonsense"};
  for (int i = 0; i < 80; ++i) {
    Probe p;
    p.relation = rng() % 10 == 0 ? 7 : static_cast<int>(rng() % 2);
    p.attr = rng() % 10 == 0 ? 9 : static_cast<int>(rng() % 5);
    switch (rng() % 4) {
      case 0: {
        p.cond.op = "in";
        const size_t n = 1 + rng() % 3;
        for (size_t k = 0; k < n; ++k) {
          p.cond.values.push_back(RandomValue(rng, kTypes[rng() % 4], true));
        }
        break;
      }
      case 1: {
        p.cond.op = "like";
        p.cond.values.push_back(
            storage::Value::String(RandomPatternish(rng, 6)));
        if (rng() % 2 == 0) {
          p.cond.values.push_back(storage::Value::String("!"));
        }
        break;
      }
      default: {
        p.cond.op = kOps[rng() % std::size(kOps)];
        p.cond.values.push_back(RandomValue(rng, kTypes[rng() % 4], true));
      }
    }
    pool.push_back(std::move(p));
  }

  core::RelationTreeMapper mapper(&db, core::SimilarityConfig{});

  for (int step = 0; step < 1500; ++step) {
    if (step == 750) {
      // Appends invalidate the indexes; the next probe of each column rebuilds.
      ASSERT_TRUE(db.Insert(0, {storage::Value::Int(150),
                                storage::Value::String("a_b%c"),
                                storage::Value::Int(3), storage::Value::Int(4),
                                storage::Value::Bool(true)})
                      .ok());
    }
    const Probe& p = pool[rng() % pool.size()];
    EXPECT_EQ(mapper.ConditionSatisfiable(p.relation, p.attr, p.cond),
              workloads::ScanConditionSatisfiable(db, p.relation, p.attr,
                                                  p.cond))
        << "step " << step << " cond " << p.cond.ToString();
  }
}

TEST(IndexPropertyTest, ConcurrentLazyIndexBuildIsConsistent) {
  std::mt19937_64 rng(1106);
  SchemaBuilder b;
  b.Rel("A", "a_id:int*, s:str, i:int, d:double, flag:bool");
  b.Rel("B", "b_id:int*, s:str, ref:int");
  b.Rel("C", "c_id:int*, name:str, val:int");
  storage::Database db(b.Build());
  for (int r = 0; r < 3; ++r) {
    const catalog::Relation& rel = db.catalog().relation(r);
    for (int i = 0; i < 200; ++i) {
      storage::Row row;
      row.push_back(storage::Value::Int(i));
      for (size_t a = 1; a < rel.attributes.size(); ++a) {
        row.push_back(RandomValue(rng, rel.attributes[a].type, true));
      }
      ASSERT_TRUE(db.Insert(r, std::move(row)).ok());
    }
  }

  // Reference answers from the scan oracle (builds no indexes), so the threads
  // below are the first to touch every column index and race on the builds.
  struct Probe {
    int relation;
    int attr;
    std::string op;  // "like:<pattern>" encodes a LIKE probe
    storage::Value value;
    bool want = false;
  };
  std::vector<Probe> probes;
  const char* kOps[] = {"=", "<>", "<", ">="};
  for (int r = 0; r < 3; ++r) {
    const catalog::Relation& rel = db.catalog().relation(r);
    for (int a = 0; a < static_cast<int>(rel.attributes.size()); ++a) {
      for (int k = 0; k < 8; ++k) {
        Probe p{r, a, kOps[rng() % std::size(kOps)],
                RandomValue(rng, rel.attributes[rng() % rel.attributes.size()]
                                     .type,
                            true),
                false};
        p.want = workloads::ScanConditionSatisfiable(
            db, r, a, core::Condition{p.op, {p.value}});
        probes.push_back(std::move(p));
      }
      Probe like{r, a, "like:" + RandomPatternish(rng, 5),
                 storage::Value::Null_(), false};
      like.want = workloads::ScanConditionSatisfiable(
          db, r, a,
          core::Condition{"like", {storage::Value::String(like.op.substr(5)),
                                   storage::Value::String("!")}});
      probes.push_back(std::move(like));
    }
  }

  std::atomic<int> mismatches{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&] {
      for (const Probe& p : probes) {
        const bool got = db.AnyTupleSatisfies(
            p.relation, p.attr,
            p.op.rfind("like:", 0) == 0
                ? storage::ColumnPredicate::Like(p.op.substr(5), '!')
                : storage::ColumnPredicate::Compare(p.op, p.value));
        if (got != p.want) mismatches.fetch_add(1);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(mismatches.load(), 0);
  // Each column index was built exactly once despite eight racing readers.
  EXPECT_EQ(db.column_index_stats().builds, 5u + 3u + 3u);
}

TEST(SimilarityPropertyTest, RangeAndSymmetry) {
  std::mt19937_64 rng(7);
  const char* pool[] = {"movie",   "movie_id",  "release_year", "person",
                       "name",    "actor",     "director",     "company",
                       "title",   "genre",     "a",            ""};
  for (const char* a : pool) {
    for (const char* b : pool) {
      double j = text::QGramJaccard(a, b);
      EXPECT_GE(j, 0.0);
      EXPECT_LE(j, 1.0);
      EXPECT_DOUBLE_EQ(j, text::QGramJaccard(b, a));
      double s = text::SchemaNameSimilarity(a, b);
      EXPECT_GE(s, 0.0);
      EXPECT_LE(s, 1.0);
      EXPECT_DOUBLE_EQ(s, text::SchemaNameSimilarity(b, a));
      EXPECT_EQ(text::EditDistance(a, b), text::EditDistance(b, a));
    }
    EXPECT_DOUBLE_EQ(text::QGramJaccard(a, a), 1.0);
  }
  (void)rng;
}

/// Plan-cache transparency: over the serving request set (every movie43
/// benchmark query plus literal variants that share probe signatures), a
/// caching engine must return bit-identical ranked lists — SQL text, weights,
/// network rendering, tie-break order — to a cache-disabled engine on every
/// serving path: cold miss (pass 1, each query's first variant), tier-1
/// structure hit with literal substitution (pass 1, later variants), and
/// tier-2 exact hit (pass 2). Checked at two k values since k is part of the
/// cache key.
TEST(PlanCachePropertyTest, CachedServingBitIdenticalToUncached) {
  auto db = workloads::BuildMovie43(42, 30);
  const std::vector<std::string> requests = workloads::ServingRequests(3);
  ASSERT_GT(requests.size(), 100u);

  core::EngineConfig plain;
  plain.plan_cache_enabled = false;
  core::SchemaFreeEngine off(db.get(), plain);
  core::SchemaFreeEngine on(db.get());

  for (int k : {1, 5}) {
    for (int pass = 0; pass < 2; ++pass) {
      for (const std::string& q : requests) {
        auto cached = on.Translate(q, k);
        auto fresh = off.Translate(q, k);
        ASSERT_EQ(cached.ok(), fresh.ok()) << q;
        if (!cached.ok()) {
          EXPECT_EQ(cached.status().ToString(), fresh.status().ToString());
          continue;
        }
        ASSERT_EQ(cached->size(), fresh->size()) << q;
        for (size_t i = 0; i < cached->size(); ++i) {
          EXPECT_EQ((*cached)[i].sql, (*fresh)[i].sql)
              << "k=" << k << " pass=" << pass << " rank=" << i << "\n" << q;
          EXPECT_EQ((*cached)[i].weight, (*fresh)[i].weight) << q;
          EXPECT_EQ((*cached)[i].network_text, (*fresh)[i].network_text) << q;
        }
      }
    }
  }
  // The run must actually have exercised both tiers.
  const core::PlanCacheStats stats = on.plan_cache_stats();
  EXPECT_GT(stats.full_hits, 0u);
  EXPECT_GT(stats.structure_hits, 0u);
  EXPECT_GT(stats.structure_misses, 0u);
}

}  // namespace
}  // namespace sfsql
