// End-to-end integration tests: schema-free input -> translation -> execution,
// across the SQL feature matrix, plus failure-path behavior of the engine API.

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "common/strings.h"
#include "core/engine.h"
#include "core/plan_cache.h"
#include "exec/executor.h"
#include "sql/parser.h"
#include "storage/database.h"
#include "text/similarity.h"
#include "workloads/course.h"
#include "workloads/deriver.h"
#include "workloads/movie43.h"
#include "workloads/movie6.h"

namespace sfsql {
namespace {

class EndToEndTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    db_ = workloads::BuildMovie43(42, 60).release();
    engine_ = new core::SchemaFreeEngine(db_);
  }
  static void TearDownTestSuite() {
    delete engine_;
    delete db_;
    engine_ = nullptr;
    db_ = nullptr;
  }

  /// Translates and executes `sfsql`, expecting the same rows as `gold`.
  void ExpectSameAsGold(const char* sfsql, const char* gold) {
    auto got = engine_->Execute(sfsql);
    ASSERT_TRUE(got.ok()) << sfsql << "\n" << got.status().ToString();
    exec::Executor executor(db_);
    auto want = executor.ExecuteSql(gold);
    ASSERT_TRUE(want.ok()) << gold << "\n" << want.status().ToString();
    EXPECT_TRUE(got->SameRows(*want))
        << sfsql << "\n got " << got->rows.size() << " rows, want "
        << want->rows.size();
  }

  static storage::Database* db_;
  static core::SchemaFreeEngine* engine_;
};

storage::Database* EndToEndTest::db_ = nullptr;
core::SchemaFreeEngine* EndToEndTest::engine_ = nullptr;

TEST_F(EndToEndTest, ComparisonOperators) {
  ExpectSameAsGold("SELECT title? WHERE year? >= 2005 AND year? <= 2009",
                   "SELECT title FROM Movie WHERE release_year >= 2005 AND "
                   "release_year <= 2009");
  ExpectSameAsGold("SELECT title? WHERE year? <> 1997 AND year? > 1990 AND "
                   "year? < 1999",
                   "SELECT title FROM Movie WHERE release_year <> 1997 AND "
                   "release_year > 1990 AND release_year < 1999");
}

TEST_F(EndToEndTest, BetweenInLike) {
  ExpectSameAsGold("SELECT title? WHERE year? BETWEEN 2002 AND 2005",
                   "SELECT title FROM Movie WHERE release_year BETWEEN 2002 "
                   "AND 2005");
  ExpectSameAsGold("SELECT title? WHERE year? IN (1997, 2009)",
                   "SELECT title FROM Movie WHERE release_year IN (1997, "
                   "2009)");
  ExpectSameAsGold("SELECT person?.name? WHERE person?.name? LIKE 'Tom%'",
                   "SELECT name FROM Person WHERE name LIKE 'Tom%'");
  // ESCAPE survives translation: the '!'-escaped '_' is a literal underscore,
  // so nothing matches; without the clause '_' is a wildcard.
  ExpectSameAsGold(
      "SELECT person?.name? WHERE person?.name? LIKE 'Tom!_%' ESCAPE '!'",
      "SELECT name FROM Person WHERE name LIKE 'Tom!_%' ESCAPE '!'");
  ExpectSameAsGold("SELECT person?.name? WHERE person?.name? LIKE 'Tom_%'",
                   "SELECT name FROM Person WHERE name LIKE 'Tom_%'");
}

TEST_F(EndToEndTest, OrAndNotSurviveTranslation) {
  // Disjunctions are not condition triples, but the references inside still
  // anchor the relation trees and the predicate must survive rewriting.
  ExpectSameAsGold(
      "SELECT title? WHERE year? = 1997 OR year? = 2009",
      "SELECT title FROM Movie WHERE release_year = 1997 OR release_year = "
      "2009");
  ExpectSameAsGold(
      "SELECT person?.name? WHERE NOT person?.gender? = 'male'",
      "SELECT name FROM Person WHERE NOT gender = 'male'");
}

TEST_F(EndToEndTest, AggregatesAndGrouping) {
  ExpectSameAsGold(
      "SELECT gender?, count(*) GROUP BY gender?",
      "SELECT gender, count(*) FROM Person GROUP BY gender");
  ExpectSameAsGold(
      "SELECT min(movie?.year?), max(movie?.year?), avg(movie?.runtime?) "
      "WHERE movie?.year? > 1900",
      "SELECT min(release_year), max(release_year), avg(runtime) FROM Movie "
      "WHERE release_year > 1900");
}

TEST_F(EndToEndTest, OrderLimitDistinct) {
  ExpectSameAsGold(
      "SELECT DISTINCT genre?.name? ORDER BY genre?.name? LIMIT 3",
      "SELECT DISTINCT name FROM Genre ORDER BY name LIMIT 3");
}

TEST_F(EndToEndTest, ScalarAndInSubqueries) {
  ExpectSameAsGold(
      "SELECT movie?.title? WHERE movie?.year? = (SELECT max(movie?.year?))",
      "SELECT title FROM Movie WHERE release_year = (SELECT "
      "max(release_year) FROM Movie)");
  ExpectSameAsGold(
      "SELECT name FROM Person WHERE person_id IN (SELECT director?.person_id? "
      "WHERE movie_title? = 'Titanic')",
      "SELECT name FROM Person WHERE person_id IN (SELECT Director.person_id "
      "FROM Director, Movie WHERE Director.movie_id = Movie.movie_id AND "
      "Movie.title = 'Titanic')");
}

TEST_F(EndToEndTest, FullSqlIsAFixpointSemantically) {
  // Running full SQL through the translator must not change its meaning.
  const char* gold =
      "SELECT count(P.name) FROM Person AS P, Actor, Movie "
      "WHERE P.person_id = Actor.person_id AND Actor.movie_id = "
      "Movie.movie_id AND Movie.title = 'Titanic'";
  ExpectSameAsGold(gold, gold);
}

TEST_F(EndToEndTest, TopKOrderingIsStable) {
  auto a = engine_->Translate("SELECT name? WHERE movie? = 'Titanic'", 5);
  auto b = engine_->Translate("SELECT name? WHERE movie? = 'Titanic'", 5);
  ASSERT_TRUE(a.ok() && b.ok());
  ASSERT_EQ(a->size(), b->size());
  for (size_t i = 0; i < a->size(); ++i) {
    EXPECT_EQ((*a)[i].sql, (*b)[i].sql);
  }
}

TEST_F(EndToEndTest, TranslationsCarryNetworkMetadata) {
  auto best = engine_->TranslateBest(
      "SELECT director?.name? WHERE title? = 'Titanic'");
  ASSERT_TRUE(best.ok());
  EXPECT_EQ(best->network.relations.size(), 3u);  // Person, Director, Movie
  EXPECT_EQ(best->network.fk_edges.size(), 2u);
  EXPECT_FALSE(best->network_text.empty());
  EXPECT_GT(best->weight, 0.0);
  EXPECT_LE(best->weight, 1.0);
}

// ---------------------------------------------------------------------------
// Failure paths
// ---------------------------------------------------------------------------

TEST_F(EndToEndTest, ParseErrorsPropagate) {
  auto r = engine_->Translate("SELEC title", 1);
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kParseError);
  auto r2 = engine_->Translate("SELECT FROM WHERE", 1);
  EXPECT_FALSE(r2.ok());
}

TEST_F(EndToEndTest, EmptyAndWhitespaceInput) {
  EXPECT_FALSE(engine_->Translate("", 1).ok());
  EXPECT_FALSE(engine_->Translate("   \n\t  ", 1).ok());
}

TEST_F(EndToEndTest, StatusMessagesAreActionable) {
  auto r = engine_->Translate("SELECT", 1);
  ASSERT_FALSE(r.ok());
  EXPECT_FALSE(r.status().message().empty());
}

TEST_F(EndToEndTest, ViewRegistrationRejectsBadInput) {
  core::SchemaFreeEngine engine(db_);
  // Schema-free text is not a query-log entry.
  EXPECT_FALSE(engine.AddViewFromSql("SELECT title? WHERE year? > 2000").ok());
  // Missing join predicates: not a spanning tree.
  EXPECT_FALSE(engine.AddViewFromSql("SELECT 1 FROM Person, Movie").ok());
  // Single-relation entries are silently ignored (no join information).
  EXPECT_TRUE(engine.AddViewFromSql("SELECT name FROM Person").ok());
  EXPECT_TRUE(engine.view_graph().views().empty());
}

TEST_F(EndToEndTest, DuplicateLogEntriesAccumulateCounts) {
  core::SchemaFreeEngine engine(db_);
  const char* entry =
      "SELECT P.name FROM Person AS P, Actor WHERE P.person_id = "
      "Actor.person_id";
  ASSERT_TRUE(engine.AddViewFromSql(entry).ok());
  ASSERT_TRUE(engine.AddViewFromSql(entry).ok());
  ASSERT_EQ(engine.view_graph().views().size(), 1u);
  EXPECT_EQ(engine.view_graph().views()[0].count, 2);
}

TEST_F(EndToEndTest, ClearViewsResets) {
  core::SchemaFreeEngine engine(db_);
  ASSERT_TRUE(engine
                  .AddViewFromSql("SELECT P.name FROM Person AS P, Actor WHERE "
                                  "P.person_id = Actor.person_id")
                  .ok());
  EXPECT_EQ(engine.view_graph().views().size(), 1u);
  engine.ClearViews();
  EXPECT_TRUE(engine.view_graph().views().empty());
}

// ---------------------------------------------------------------------------
// Name similarity: the mapper's profiled scores against the string oracle
// ---------------------------------------------------------------------------

/// Every distinct name hint of `sfsql`, subqueries included.
std::set<std::string> NameHints(const std::string& sfsql) {
  std::set<std::string> out;
  auto stmt = sql::ParseSelect(sfsql);
  EXPECT_TRUE(stmt.ok()) << sfsql;
  if (!stmt.ok()) return out;
  auto add = [&](const sql::NameRef& n) {
    if (n.has_name_hint()) out.insert(n.name);
  };
  std::function<void(sql::SelectStatement&)> block =
      [&](sql::SelectStatement& s) {
        for (const sql::TableRef& t : s.from) add(t.relation);
        std::function<void(sql::Expr&)> walk = [&](sql::Expr& e) {
          add(e.relation);
          add(e.attribute);
          if (e.subquery) block(*e.subquery);
          if (e.lhs) walk(*e.lhs);
          if (e.rhs) walk(*e.rhs);
          for (sql::ExprPtr& a : e.args) walk(*a);
        };
        sql::ForEachTopLevelExpr(s, [&](sql::ExprPtr& e) { walk(*e); });
      };
  block(**stmt);
  return out;
}

/// `name` without the words of `relation`, the way §4.3's tie-break strips
/// qualified names: identifier words joined by '_'.
std::string StripWords(const std::string& name, const std::string& relation) {
  const std::vector<std::string> drop = SplitIdentifierWords(relation);
  std::vector<std::string> kept;
  for (const std::string& w : SplitIdentifierWords(name)) {
    if (std::find(drop.begin(), drop.end(), w) == drop.end()) kept.push_back(w);
  }
  return Join(kept, "_");
}

/// Checks every score the mapper gives `guesses` against
/// text::SchemaNameSimilarity on the plain strings, bit for bit; returns how
/// many qualified remainders were compared.
int ExpectScoresMatchOracle(const storage::Database& db,
                            const std::set<std::string>& guesses) {
  const core::SimilarityConfig config;
  const core::RelationTreeMapper mapper(&db, config);
  core::QueryNameProfiles names(config.qgram);
  const catalog::Catalog& cat = db.catalog();
  int remainders = 0;
  for (int r = 0; r < cat.num_relations(); ++r) {
    EXPECT_EQ(mapper.RelationNameSimilarity(nullptr, r), config.kdef);
  }
  for (const std::string& g : guesses) {
    const text::NameProfile& guess = names.Get(g);
    for (int r = 0; r < cat.num_relations(); ++r) {
      const catalog::Relation& rel = cat.relation(r);
      EXPECT_EQ(mapper.RelationNameSimilarity(&guess, r),
                text::SchemaNameSimilarity(g, rel.name, config.qgram))
          << g << " vs " << rel.name;
      const std::string stripped = StripWords(g, rel.name);
      const bool qualified = !stripped.empty() && stripped != ToLower(g);
      const text::NameProfile* remainder =
          mapper.QualifiedRemainder(guess, r, names);
      EXPECT_EQ(remainder != nullptr, qualified) << g << " in " << rel.name;
      for (int a = 0; a < static_cast<int>(rel.attributes.size()); ++a) {
        const std::string& attr = rel.attributes[a].name;
        EXPECT_EQ(mapper.AttributeNameSimilarity(&guess, r, a),
                  text::SchemaNameSimilarity(g, attr, config.qgram))
            << g << " vs " << rel.name << "." << attr;
        if (remainder == nullptr) continue;
        ++remainders;
        const std::string stripped_attr = StripWords(attr, rel.name);
        EXPECT_EQ(mapper.RemainderSimilarity(*remainder, r, a),
                  stripped_attr.empty()
                      ? 0.0
                      : text::SchemaNameSimilarity(stripped, stripped_attr,
                                                   config.qgram))
            << stripped << " vs " << stripped_attr << " (" << g << " vs "
            << rel.name << "." << attr << ")";
      }
    }
  }
  return remainders;
}

TEST(NameOracleTest, MapperScoresEqualSchemaNameSimilarity) {
  std::set<std::string> movie_guesses;
  auto add = [](std::set<std::string>* to, const std::string& sfsql) {
    const std::set<std::string> hints = NameHints(sfsql);
    to->insert(hints.begin(), hints.end());
  };
  for (const workloads::BenchQuery& q : workloads::TextbookQueries()) {
    add(&movie_guesses, q.sfsql);
  }
  for (const workloads::BenchQuery& q : workloads::SophisticatedQueries()) {
    add(&movie_guesses, q.sfsql);
  }
  for (int i = 0; i < 6; ++i) {
    for (const std::string& v : workloads::UserVariants(i)) {
      add(&movie_guesses, v);
    }
  }
  auto movie = workloads::BuildMovie43(42, 30);
  EXPECT_GT(ExpectScoresMatchOracle(*movie, movie_guesses), 0);

  auto course = workloads::BuildCourse53();
  std::set<std::string> course_guesses;
  for (const workloads::CourseQuery& q : workloads::CourseQueries()) {
    auto sf = workloads::DeriveSchemaFree(course->catalog(), q.gold_sql53);
    ASSERT_TRUE(sf.ok()) << q.id << ": " << sf.status().ToString();
    add(&course_guesses, *sf);
  }
  EXPECT_GT(ExpectScoresMatchOracle(*course, course_guesses), 0);
}

// ---------------------------------------------------------------------------
// Determinism across database rebuilds
// ---------------------------------------------------------------------------

TEST(DeterminismTest, SameSeedSameTranslations) {
  auto db1 = workloads::BuildMovie43(42, 60);
  auto db2 = workloads::BuildMovie43(42, 60);
  core::SchemaFreeEngine e1(db1.get());
  core::SchemaFreeEngine e2(db2.get());
  for (const workloads::BenchQuery& q : workloads::SophisticatedQueries()) {
    auto a = e1.TranslateBest(q.sfsql);
    auto b = e2.TranslateBest(q.sfsql);
    ASSERT_TRUE(a.ok() && b.ok()) << q.id;
    EXPECT_EQ(a->sql, b->sql) << q.id;
  }
}

TEST(DeterminismTest, CacheConfigsDoNotChangeTranslations) {
  // The mapping memo is exact for an unchanged database, so an engine with it
  // on must emit exactly the same SQL, weights, and order as one with it off.
  auto db = workloads::BuildMovie43(42, 60);
  core::EngineConfig plain;
  plain.mapping_cache_capacity = 0;
  core::EngineConfig cached;  // defaults: memo on
  core::SchemaFreeEngine e_plain(db.get(), plain);
  core::SchemaFreeEngine e_cached(db.get(), cached);
  for (const workloads::BenchQuery& q : workloads::SophisticatedQueries()) {
    auto a = e_plain.Translate(q.sfsql, 5);
    auto b = e_cached.Translate(q.sfsql, 5);
    ASSERT_TRUE(a.ok() && b.ok()) << q.id;
    ASSERT_EQ(a->size(), b->size()) << q.id;
    for (size_t i = 0; i < a->size(); ++i) {
      EXPECT_EQ((*a)[i].sql, (*b)[i].sql) << q.id << " rank " << i;
      EXPECT_EQ((*a)[i].weight, (*b)[i].weight) << q.id << " rank " << i;
    }
  }
}

TEST(TranslateStatsTest, PhaseTimingsAndCacheCountersArePopulated) {
  auto db = workloads::BuildMovie43(42, 60);
  // Plan cache off: this test asserts on the *pipeline's* phases, so the
  // repeat call must run the pipeline again instead of being served from the
  // plan cache.
  core::EngineConfig config;
  config.plan_cache_enabled = false;
  core::SchemaFreeEngine engine(db.get(), config);
  const char* q = "SELECT count(actor?.name?) WHERE director_name? = 'James "
                  "Cameron'";

  core::TranslateStats first;
  auto r1 = engine.Translate(q, 5, &first);
  ASSERT_TRUE(r1.ok());
  EXPECT_GT(first.generator.roots, 0);
  EXPECT_GT(first.generator.pushed, 0);
  EXPECT_GE(first.map_seconds, 0.0);
  EXPECT_GT(first.generate_seconds, 0.0);

  core::TranslateStats second;
  auto r2 = engine.Translate(q, 5, &second);
  ASSERT_TRUE(r2.ok());
  ASSERT_EQ(r1->size(), r2->size());
  for (size_t i = 0; i < r1->size(); ++i) {
    EXPECT_EQ((*r1)[i].sql, (*r2)[i].sql);
    EXPECT_EQ((*r1)[i].weight, (*r2)[i].weight);
  }
}

// A network node maps at most one relation tree, so 13 trees cannot fit the
// default 12-node cap: the generator answers before it searches any root.
TEST(TranslateStatsTest, TooManyRelationTreesFailBeforeTheSearch) {
  auto db = workloads::BuildMovie43(42);
  core::EngineConfig config;
  config.plan_cache_enabled = false;
  core::SchemaFreeEngine engine(db.get(), config);
  std::string q = "SELECT ";
  for (int i = 1; i <= 13; ++i) {
    if (i > 1) q += ", ";
    q += "zq" + std::to_string(i) + "x?." + std::string(1, 'a' + i - 1) + "?";
  }
  ASSERT_GT(config.gen.max_jn_nodes, 0);
  ASSERT_LT(config.gen.max_jn_nodes, 13);

  core::TranslateStats stats;
  auto r = engine.Translate(q, 10, &stats);
  ASSERT_FALSE(r.ok()) << q;
  EXPECT_EQ(r.status().message(),
            "no join network connects the query's relation trees");
  EXPECT_EQ(stats.generator.expansions, 0);
  EXPECT_EQ(stats.generator.popped, 0);
  EXPECT_EQ(stats.generator.roots, 0);
}

TEST(PlanCacheTest, ServedTierCountersAndBitIdenticalResults) {
  auto db = workloads::BuildMovie43(42, 30);
  core::SchemaFreeEngine engine(db.get());
  // Two statements sharing a canonical form; the unique unsatisfiable
  // strings give them the same probe signature, so the second is a tier-1
  // (structure) hit served by literal substitution.
  const char* qa = "SELECT title? WHERE genre? = 'zzz_plan_a'";
  const char* qb = "SELECT title? WHERE genre? = 'zzz_plan_b'";

  core::TranslateStats cold;
  auto a1 = engine.Translate(qa, 5, &cold);
  ASSERT_TRUE(a1.ok());
  EXPECT_EQ(cold.plan_misses, 1);
  EXPECT_EQ(cold.plan_tier1_hits, 0);
  EXPECT_EQ(cold.plan_tier2_hits, 0);

  core::TranslateStats warm;
  auto a2 = engine.Translate(qa, 5, &warm);
  ASSERT_TRUE(a2.ok());
  EXPECT_EQ(warm.plan_tier2_hits, 1);
  EXPECT_EQ(warm.plan_misses, 0);

  core::TranslateStats sibling;
  auto b1 = engine.Translate(qb, 5, &sibling);
  ASSERT_TRUE(b1.ok());
  EXPECT_EQ(sibling.plan_tier1_hits, 1) << "same structure + signature";
  EXPECT_EQ(sibling.plan_misses, 0);

  // Every cached answer bit-identical to a cache-disabled engine, including
  // rank order and weights.
  core::EngineConfig plain;
  plain.plan_cache_enabled = false;
  core::SchemaFreeEngine off(db.get(), plain);
  for (const char* q : {qa, qb}) {
    auto cached = engine.Translate(q, 5);
    auto fresh = off.Translate(q, 5);
    ASSERT_TRUE(cached.ok() && fresh.ok());
    ASSERT_EQ(cached->size(), fresh->size());
    for (size_t i = 0; i < cached->size(); ++i) {
      EXPECT_EQ((*cached)[i].sql, (*fresh)[i].sql) << q << " rank " << i;
      EXPECT_EQ((*cached)[i].weight, (*fresh)[i].weight) << q << " rank " << i;
      EXPECT_EQ((*cached)[i].network_text, (*fresh)[i].network_text);
    }
  }

  const core::PlanCacheStats stats = engine.plan_cache_stats();
  EXPECT_GE(stats.full_hits, 1u);
  EXPECT_GE(stats.structure_hits, 1u);
  EXPECT_GT(stats.entries, 0u);
}

TEST(PlanCacheTest, InsertInvalidatesCachedTranslations) {
  auto db = workloads::BuildMovie43(42, 30);
  core::SchemaFreeEngine engine(db.get());
  const char* q = "SELECT title? WHERE genre? = 'zzz_epoch_probe'";

  auto before = engine.Translate(q, 5);
  ASSERT_TRUE(before.ok());
  core::TranslateStats warm;
  ASSERT_TRUE(engine.Translate(q, 5, &warm).ok());
  EXPECT_EQ(warm.plan_tier2_hits, 1);

  // The insert makes the condition satisfiable: the epoch bump must prevent
  // both the tier-2 entry (stale epoch) and the tier-1 entry (different
  // probe signature) from serving the old answer.
  const int genre_rel = *db->catalog().FindRelation("Genre");
  ASSERT_TRUE(db->Insert(genre_rel, {storage::Value::Int(999002),
                                     storage::Value::String("zzz_epoch_probe"),
                                     storage::Value()})
                  .ok());

  core::TranslateStats after_stats;
  auto after = engine.Translate(q, 5, &after_stats);
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(after_stats.plan_tier2_hits, 0);

  core::EngineConfig plain;
  plain.plan_cache_enabled = false;
  auto fresh = core::SchemaFreeEngine(db.get(), plain).Translate(q, 5);
  ASSERT_TRUE(fresh.ok());
  ASSERT_EQ(after->size(), fresh->size());
  for (size_t i = 0; i < after->size(); ++i) {
    EXPECT_EQ((*after)[i].sql, (*fresh)[i].sql) << "rank " << i;
    EXPECT_EQ((*after)[i].weight, (*fresh)[i].weight) << "rank " << i;
  }
  EXPECT_GE(engine.plan_cache_stats().stale_evictions, 1u);
}

TEST(PlanCacheTest, UnrelatedWriteDoesNotEvictTier2Plans) {
  auto db = workloads::BuildMovie43(42, 30);
  core::SchemaFreeEngine engine(db.get());
  const char* q = "SELECT title? WHERE genre? = 'zzz_unrelated_probe'";

  auto before = engine.Translate(q, 5);
  ASSERT_TRUE(before.ok());
  core::TranslateStats warm;
  ASSERT_TRUE(engine.Translate(q, 5, &warm).ok());
  EXPECT_EQ(warm.plan_tier2_hits, 1);

  // Pick a relation none of the cached translations read (all-int Box_Office
  // cannot host either string attribute) and write to it. With per-relation
  // epoch stamps this must NOT evict the tier-2 entry.
  const int box_office = *db->catalog().FindRelation("Box_Office");
  for (const core::Translation& t : *before) {
    for (int rel : t.network.relations) ASSERT_NE(rel, box_office);
  }
  const auto evictions_before = engine.plan_cache_stats().stale_evictions;
  ASSERT_TRUE(db->Insert(box_office,
                         {storage::Value::Int(1), storage::Value::Int(1),
                          storage::Value::Int(1000), storage::Value::Int(1)})
                  .ok());

  core::TranslateStats after_stats;
  auto after = engine.Translate(q, 5, &after_stats);
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(after_stats.plan_tier2_hits, 1)
      << "a write to an unread relation must leave the tier-2 entry servable";
  EXPECT_EQ(engine.plan_cache_stats().stale_evictions, evictions_before);
  ASSERT_EQ(after->size(), before->size());
  for (size_t i = 0; i < after->size(); ++i) {
    EXPECT_EQ((*after)[i].sql, (*before)[i].sql) << "rank " << i;
    EXPECT_EQ((*after)[i].weight, (*before)[i].weight) << "rank " << i;
  }
}

TEST(DeterminismTest, DifferentSeedSameStructure) {
  // Different data, same schema: structural translations should agree for
  // queries whose conditions are satisfiable in both (planted rows are).
  auto db1 = workloads::BuildMovie43(42, 60);
  auto db2 = workloads::BuildMovie43(1234, 60);
  core::SchemaFreeEngine e1(db1.get());
  core::SchemaFreeEngine e2(db2.get());
  const workloads::BenchQuery& q = workloads::SophisticatedQueries()[0];
  auto a = e1.TranslateBest(q.sfsql);
  auto b = e2.TranslateBest(q.sfsql);
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_EQ(a->network.relations, b->network.relations);
}

}  // namespace
}  // namespace sfsql
