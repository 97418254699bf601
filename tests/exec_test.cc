#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/engine.h"
#include "core/profile.h"
#include "exec/executor.h"
#include "exec/like.h"
#include "obs/clock.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "storage/database.h"

namespace sfsql::exec {
namespace {

using catalog::Attribute;
using catalog::Catalog;
using catalog::ForeignKey;
using catalog::Relation;
using catalog::ValueType;
using storage::Database;
using storage::Row;
using storage::Value;

// Builds the paper's running-example movie database (Fig. 1) with a small
// hand-authored data set.
std::unique_ptr<Database> MovieDb() {
  Catalog c;
  Relation person;
  person.name = "Person";
  person.attributes = {{"person_id", ValueType::kInt64},
                       {"name", ValueType::kString},
                       {"gender", ValueType::kString}};
  person.primary_key = {0};
  int person_id = *c.AddRelation(person);

  Relation movie;
  movie.name = "Movie";
  movie.attributes = {{"movie_id", ValueType::kInt64},
                      {"title", ValueType::kString},
                      {"release_year", ValueType::kInt64}};
  movie.primary_key = {0};
  int movie_id = *c.AddRelation(movie);

  Relation actor;
  actor.name = "Actor";
  actor.attributes = {{"person_id", ValueType::kInt64},
                      {"movie_id", ValueType::kInt64}};
  actor.primary_key = {0, 1};
  int actor_id = *c.AddRelation(actor);

  Relation director;
  director.name = "Director";
  director.attributes = {{"person_id", ValueType::kInt64},
                         {"movie_id", ValueType::kInt64}};
  director.primary_key = {0, 1};
  int director_id = *c.AddRelation(director);

  EXPECT_TRUE(c.AddForeignKey(ForeignKey{actor_id, 0, person_id, 0}).ok());
  EXPECT_TRUE(c.AddForeignKey(ForeignKey{actor_id, 1, movie_id, 0}).ok());
  EXPECT_TRUE(c.AddForeignKey(ForeignKey{director_id, 0, person_id, 0}).ok());
  EXPECT_TRUE(c.AddForeignKey(ForeignKey{director_id, 1, movie_id, 0}).ok());

  auto db = std::make_unique<Database>(std::move(c));
  // People: 1 Cameron (m), 2 DiCaprio (m), 3 Winslet (f), 4 Hanks (m).
  auto P = [&](int64_t id, const char* name, const char* g) {
    EXPECT_TRUE(db->Insert(person_id, {Value::Int(id), Value::String(name),
                                       Value::String(g)})
                    .ok());
  };
  P(1, "James Cameron", "male");
  P(2, "Leonardo DiCaprio", "male");
  P(3, "Kate Winslet", "female");
  P(4, "Tom Hanks", "male");
  // Movies: 10 Titanic (1997), 11 Avatar (2009), 12 Terminal (2004).
  auto M = [&](int64_t id, const char* title, int64_t year) {
    EXPECT_TRUE(db->Insert(movie_id, {Value::Int(id), Value::String(title),
                                      Value::Int(year)})
                    .ok());
  };
  M(10, "Titanic", 1997);
  M(11, "Avatar", 2009);
  M(12, "The Terminal", 2004);
  auto A = [&](int64_t p, int64_t m) {
    EXPECT_TRUE(db->Insert(actor_id, {Value::Int(p), Value::Int(m)}).ok());
  };
  A(2, 10);  // DiCaprio in Titanic
  A(3, 10);  // Winslet in Titanic
  A(4, 12);  // Hanks in Terminal
  auto D = [&](int64_t p, int64_t m) {
    EXPECT_TRUE(db->Insert(director_id, {Value::Int(p), Value::Int(m)}).ok());
  };
  D(1, 10);  // Cameron directed Titanic
  D(1, 11);  // Cameron directed Avatar
  return db;
}

class ExecutorTest : public ::testing::Test {
 protected:
  ExecutorTest() : db_(MovieDb()), exec_(db_.get()) {}

  QueryResult Run(const std::string& sql) {
    auto r = exec_.ExecuteSql(sql);
    EXPECT_TRUE(r.ok()) << r.status().ToString() << " for: " << sql;
    return r.ok() ? *r : QueryResult{};
  }

  std::unique_ptr<Database> db_;
  Executor exec_;
};

TEST_F(ExecutorTest, SimpleScanAndFilter) {
  QueryResult r = Run("SELECT name FROM Person WHERE gender = 'male'");
  EXPECT_EQ(r.rows.size(), 3u);
  EXPECT_EQ(r.columns.size(), 1u);
  EXPECT_EQ(r.columns[0], "name");
}

TEST_F(ExecutorTest, Projection) {
  QueryResult r = Run("SELECT name, person_id + 100 FROM Person WHERE "
                      "person_id = 1");
  ASSERT_EQ(r.rows.size(), 1u);
  EXPECT_EQ(r.rows[0][0].AsString(), "James Cameron");
  EXPECT_EQ(r.rows[0][1].AsInt(), 101);
}

TEST_F(ExecutorTest, StarExpansion) {
  QueryResult r = Run("SELECT * FROM Movie WHERE movie_id = 10");
  ASSERT_EQ(r.rows.size(), 1u);
  EXPECT_EQ(r.columns.size(), 3u);
  EXPECT_EQ(r.rows[0][1].AsString(), "Titanic");
}

TEST_F(ExecutorTest, TwoWayJoin) {
  QueryResult r = Run(
      "SELECT Person.name FROM Person, Director WHERE Person.person_id = "
      "Director.person_id AND Director.movie_id = 10");
  ASSERT_EQ(r.rows.size(), 1u);
  EXPECT_EQ(r.rows[0][0].AsString(), "James Cameron");
}

TEST_F(ExecutorTest, ThreeWayJoinWithAliases) {
  // Actors who appeared in a movie directed by James Cameron.
  QueryResult r = Run(
      "SELECT p2.name FROM Person AS p1, Director, Movie, Actor, Person AS p2 "
      "WHERE p1.person_id = Director.person_id AND Director.movie_id = "
      "Movie.movie_id AND Movie.movie_id = Actor.movie_id AND Actor.person_id "
      "= p2.person_id AND p1.name = 'James Cameron' ORDER BY p2.name");
  ASSERT_EQ(r.rows.size(), 2u);
  EXPECT_EQ(r.rows[0][0].AsString(), "Kate Winslet");
  EXPECT_EQ(r.rows[1][0].AsString(), "Leonardo DiCaprio");
}

TEST_F(ExecutorTest, SelfJoinNeedsAliases) {
  auto r = exec_.ExecuteSql(
      "SELECT name FROM Person, Person WHERE person_id = person_id");
  EXPECT_FALSE(r.ok());  // duplicate binding
}

TEST_F(ExecutorTest, AmbiguousColumnRejected) {
  auto r = exec_.ExecuteSql(
      "SELECT person_id FROM Person, Actor WHERE gender = 'male'");
  EXPECT_FALSE(r.ok());
}

TEST_F(ExecutorTest, Aggregates) {
  QueryResult r = Run("SELECT count(*), min(release_year), max(release_year), "
                      "avg(release_year), sum(release_year) FROM Movie");
  ASSERT_EQ(r.rows.size(), 1u);
  EXPECT_EQ(r.rows[0][0].AsInt(), 3);
  EXPECT_EQ(r.rows[0][1].AsInt(), 1997);
  EXPECT_EQ(r.rows[0][2].AsInt(), 2009);
  EXPECT_DOUBLE_EQ(r.rows[0][3].AsDouble(), (1997.0 + 2009 + 2004) / 3);
  EXPECT_EQ(r.rows[0][4].AsInt(), 1997 + 2009 + 2004);
}

TEST_F(ExecutorTest, CountDistinct) {
  QueryResult r = Run("SELECT count(DISTINCT gender) FROM Person");
  ASSERT_EQ(r.rows.size(), 1u);
  EXPECT_EQ(r.rows[0][0].AsInt(), 2);
}

TEST_F(ExecutorTest, EmptyAggregate) {
  QueryResult r = Run("SELECT count(*), sum(release_year) FROM Movie WHERE "
                      "release_year > 3000");
  ASSERT_EQ(r.rows.size(), 1u);
  EXPECT_EQ(r.rows[0][0].AsInt(), 0);
  EXPECT_TRUE(r.rows[0][1].is_null());
}

TEST_F(ExecutorTest, GroupByHaving) {
  QueryResult r = Run(
      "SELECT gender, count(*) FROM Person GROUP BY gender HAVING count(*) > 1 "
      "ORDER BY gender");
  ASSERT_EQ(r.rows.size(), 1u);
  EXPECT_EQ(r.rows[0][0].AsString(), "male");
  EXPECT_EQ(r.rows[0][1].AsInt(), 3);
}

TEST_F(ExecutorTest, GroupByCountsPerKey) {
  // Movies per director person_id.
  QueryResult r = Run(
      "SELECT person_id, count(movie_id) FROM Director GROUP BY person_id");
  ASSERT_EQ(r.rows.size(), 1u);
  EXPECT_EQ(r.rows[0][0].AsInt(), 1);
  EXPECT_EQ(r.rows[0][1].AsInt(), 2);
}

TEST_F(ExecutorTest, OrderByAndLimit) {
  QueryResult r = Run("SELECT title FROM Movie ORDER BY release_year DESC LIMIT 2");
  ASSERT_EQ(r.rows.size(), 2u);
  EXPECT_EQ(r.rows[0][0].AsString(), "Avatar");
  EXPECT_EQ(r.rows[1][0].AsString(), "The Terminal");
}

TEST_F(ExecutorTest, OrderBySelectAlias) {
  QueryResult r = Run("SELECT title AS t FROM Movie ORDER BY t");
  ASSERT_EQ(r.rows.size(), 3u);
  EXPECT_EQ(r.rows[0][0].AsString(), "Avatar");
}

TEST_F(ExecutorTest, Distinct) {
  QueryResult r = Run("SELECT DISTINCT gender FROM Person");
  EXPECT_EQ(r.rows.size(), 2u);
}

TEST_F(ExecutorTest, InList) {
  QueryResult r = Run("SELECT title FROM Movie WHERE release_year IN (1997, 2004)");
  EXPECT_EQ(r.rows.size(), 2u);
  r = Run("SELECT title FROM Movie WHERE release_year NOT IN (1997, 2004)");
  ASSERT_EQ(r.rows.size(), 1u);
  EXPECT_EQ(r.rows[0][0].AsString(), "Avatar");
}

TEST_F(ExecutorTest, InSubquery) {
  QueryResult r = Run(
      "SELECT name FROM Person WHERE person_id IN (SELECT person_id FROM "
      "Director)");
  ASSERT_EQ(r.rows.size(), 1u);
  EXPECT_EQ(r.rows[0][0].AsString(), "James Cameron");
}

TEST_F(ExecutorTest, CorrelatedExists) {
  QueryResult r = Run(
      "SELECT name FROM Person WHERE EXISTS (SELECT * FROM Actor WHERE "
      "Actor.person_id = Person.person_id AND Actor.movie_id = 10) ORDER BY "
      "name");
  ASSERT_EQ(r.rows.size(), 2u);
  EXPECT_EQ(r.rows[0][0].AsString(), "Kate Winslet");
}

TEST_F(ExecutorTest, NotExists) {
  QueryResult r = Run(
      "SELECT name FROM Person WHERE NOT EXISTS (SELECT * FROM Actor WHERE "
      "Actor.person_id = Person.person_id)");
  // Cameron never acted.
  ASSERT_EQ(r.rows.size(), 1u);
  EXPECT_EQ(r.rows[0][0].AsString(), "James Cameron");
}

TEST_F(ExecutorTest, ScalarSubquery) {
  QueryResult r = Run(
      "SELECT title FROM Movie WHERE release_year = (SELECT max(release_year) "
      "FROM Movie)");
  ASSERT_EQ(r.rows.size(), 1u);
  EXPECT_EQ(r.rows[0][0].AsString(), "Avatar");
}

TEST_F(ExecutorTest, CorrelatedScalarSubqueryInSelect) {
  QueryResult r = Run(
      "SELECT name, (SELECT count(*) FROM Director WHERE Director.person_id = "
      "Person.person_id) FROM Person WHERE person_id = 1");
  ASSERT_EQ(r.rows.size(), 1u);
  EXPECT_EQ(r.rows[0][1].AsInt(), 2);
}

TEST_F(ExecutorTest, BetweenAndLike) {
  QueryResult r = Run(
      "SELECT title FROM Movie WHERE release_year BETWEEN 1995 AND 2005 ORDER "
      "BY title");
  ASSERT_EQ(r.rows.size(), 2u);
  r = Run("SELECT name FROM Person WHERE name LIKE 'James%'");
  ASSERT_EQ(r.rows.size(), 1u);
  r = Run("SELECT name FROM Person WHERE name LIKE '%a%'");
  EXPECT_EQ(r.rows.size(), 4u);
}

TEST_F(ExecutorTest, NullSemantics) {
  // Insert a person with NULL gender; predicates over NULL are false.
  ASSERT_TRUE(
      db_->Insert(0, {Value::Int(9), Value::String("Mx Null"), Value::Null_()})
          .ok());
  QueryResult all = Run("SELECT count(*) FROM Person");
  EXPECT_EQ(all.rows[0][0].AsInt(), 5);
  QueryResult eq = Run("SELECT count(*) FROM Person WHERE gender = 'male'");
  EXPECT_EQ(eq.rows[0][0].AsInt(), 3);
  QueryResult ne = Run("SELECT count(*) FROM Person WHERE gender <> 'male'");
  EXPECT_EQ(ne.rows[0][0].AsInt(), 1);  // NULL row excluded
  QueryResult isnull = Run("SELECT name FROM Person WHERE gender IS NULL");
  ASSERT_EQ(isnull.rows.size(), 1u);
  EXPECT_EQ(isnull.rows[0][0].AsString(), "Mx Null");
  // count(gender) skips NULL.
  QueryResult cnt = Run("SELECT count(gender) FROM Person");
  EXPECT_EQ(cnt.rows[0][0].AsInt(), 4);
}

TEST_F(ExecutorTest, ScalarFunctions) {
  QueryResult r = Run("SELECT upper(name), lower(name), length(name), abs(0 - "
                      "person_id) FROM Person WHERE person_id = 1");
  ASSERT_EQ(r.rows.size(), 1u);
  EXPECT_EQ(r.rows[0][0].AsString(), "JAMES CAMERON");
  EXPECT_EQ(r.rows[0][1].AsString(), "james cameron");
  EXPECT_EQ(r.rows[0][2].AsInt(), 13);
  EXPECT_EQ(r.rows[0][3].AsInt(), 1);
}

TEST_F(ExecutorTest, RejectsSchemaFreeInput) {
  auto r = exec_.ExecuteSql("SELECT count(actor?.name?) WHERE year? > 1995");
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kExecutionError);
  auto r2 = exec_.ExecuteSql("SELECT name FROM person?");
  EXPECT_FALSE(r2.ok());
}

TEST_F(ExecutorTest, UnknownRelationOrColumn) {
  EXPECT_FALSE(exec_.ExecuteSql("SELECT x FROM Nope").ok());
  EXPECT_FALSE(exec_.ExecuteSql("SELECT nope FROM Person").ok());
  EXPECT_FALSE(exec_.ExecuteSql("SELECT Person.nope FROM Person").ok());
}

TEST_F(ExecutorTest, SameRowsComparesAsMultiset) {
  QueryResult a = Run("SELECT name FROM Person ORDER BY name");
  QueryResult b = Run("SELECT name FROM Person ORDER BY name DESC");
  EXPECT_TRUE(a.SameRows(b));
  QueryResult c = Run("SELECT name FROM Person WHERE gender = 'male'");
  EXPECT_FALSE(a.SameRows(c));
}

TEST_F(ExecutorTest, ToStringRendersTable) {
  QueryResult r = Run("SELECT name FROM Person WHERE person_id = 1");
  std::string s = r.ToString();
  EXPECT_NE(s.find("name"), std::string::npos);
  EXPECT_NE(s.find("James Cameron"), std::string::npos);
}

TEST(LikeTest, Patterns) {
  EXPECT_TRUE(LikeMatch("James Cameron", "James%"));
  EXPECT_TRUE(LikeMatch("James Cameron", "%Cameron"));
  EXPECT_TRUE(LikeMatch("James Cameron", "%ame%"));
  EXPECT_TRUE(LikeMatch("abc", "a_c"));
  EXPECT_FALSE(LikeMatch("abc", "a_d"));
  EXPECT_TRUE(LikeMatch("", "%"));
  EXPECT_FALSE(LikeMatch("", "_"));
  EXPECT_TRUE(LikeMatch("a", "%%a%%"));
  EXPECT_FALSE(LikeMatch("abc", "abcd"));
}

TEST(LikeTest, EscapedWildcardsMatchLiterally) {
  EXPECT_TRUE(LikeMatch("100%", "100\\%", '\\'));
  EXPECT_FALSE(LikeMatch("100x", "100\\%", '\\'));
  EXPECT_TRUE(LikeMatch("a_c", "a\\_c", '\\'));
  EXPECT_FALSE(LikeMatch("abc", "a\\_c", '\\'));
  EXPECT_TRUE(LikeMatch("50% off", "%\\%%", '\\'));
  // The escape character escapes itself.
  EXPECT_TRUE(LikeMatch("a\\b", "a\\\\b", '\\'));
  // Any character can serve as the escape; without one, it stays literal.
  EXPECT_TRUE(LikeMatch("100%", "100!%", '!'));
  EXPECT_FALSE(LikeMatch("100%", "100!%", '\0'));
  // Escaping a non-wildcard just yields that character.
  EXPECT_TRUE(LikeMatch("abc", "a!bc", '!'));
  // A dangling escape at the end of the pattern is taken literally.
  EXPECT_TRUE(LikeMatch("ab!", "ab!", '!'));
  // Escaped wildcards still compose with real ones.
  EXPECT_TRUE(LikeMatch("total: 10%", "total:%\\%", '\\'));
  EXPECT_FALSE(LikeMatch("total: 10c", "total:%\\%", '\\'));
}

TEST_F(ExecutorTest, LikeEscapeClause) {
  QueryResult r =
      Run("SELECT name FROM Person WHERE name LIKE 'James%' ESCAPE '!'");
  ASSERT_EQ(r.rows.size(), 1u);
  // No person name contains a literal '%'.
  r = Run("SELECT name FROM Person WHERE name LIKE '%!%%' ESCAPE '!'");
  EXPECT_EQ(r.rows.size(), 0u);
  r = Run("SELECT name FROM Person WHERE name NOT LIKE '%!%%' ESCAPE '!'");
  EXPECT_EQ(r.rows.size(), 4u);
}

// --- Slow log: a filter over the engine's per-call record (fake clock) ----

core::EngineConfig SlowLogConfig(const obs::Clock* clock, double threshold_ms,
                                 std::vector<std::string>* lines) {
  core::EngineConfig config;
  config.clock = clock;
  config.slow_execute_threshold_ms = threshold_ms;
  config.slow_log_sink = [lines](const std::string& line) {
    lines->push_back(line);
  };
  return config;
}

TEST(SlowExecuteTest, EmitsOneStructuredLineAboveThreshold) {
  auto db = MovieDb();
  // Every clock reading advances 1 ms, so an Execute "takes" several ms of
  // fake time: over a 1 ms threshold.
  obs::FakeClock clock(0, /*auto_advance_nanos=*/1'000'000);
  std::vector<std::string> lines;
  core::QueryProfileStore profiles;
  core::EngineConfig config = SlowLogConfig(&clock, 1.0, &lines);
  config.profiles = &profiles;
  core::SchemaFreeEngine engine(db.get(), config);

  auto r = engine.Execute("SELECT name FROM Person WHERE gender = 'male'");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(lines.size(), 1u);
  ASSERT_EQ(lines[0].back(), '\n');
  auto parsed = obs::ParseJson(lines[0]);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->Find("kind")->string, "execute");
  EXPECT_GE(parsed->Find("latency_ms")->number, 1.0);
  EXPECT_DOUBLE_EQ(parsed->Find("rows_returned")->number, 3.0);
  EXPECT_GT(parsed->Find("exec_rows_scanned")->number, 0.0);

  // The line is the call's record as the ring holds it, in its one-line JSON.
  const std::vector<core::QueryProfile> captured = profiles.Snapshot();
  ASSERT_EQ(captured.size(), 1u);
  obs::JsonWriter w(/*pretty=*/false);
  captured[0].WriteJson(w);
  EXPECT_EQ(lines[0], w.TakeString() + "\n");
}

TEST(SlowExecuteTest, FastExecutionsAndDisabledThresholdStaySilent) {
  auto db = MovieDb();
  std::vector<std::string> lines;
  obs::FakeClock fast(0, /*auto_advance_nanos=*/1'000);  // 1 µs per reading
  core::SchemaFreeEngine below(db.get(), SlowLogConfig(&fast, 10.0, &lines));
  ASSERT_TRUE(below.Execute("SELECT name FROM Person").ok());

  obs::FakeClock slow(0, /*auto_advance_nanos=*/1'000'000);
  core::SchemaFreeEngine disarmed(db.get(), SlowLogConfig(&slow, 0.0, &lines));
  ASSERT_TRUE(disarmed.Execute("SELECT name FROM Person").ok());
  EXPECT_TRUE(lines.empty());
}

TEST(SlowExecuteTest, TranslationsNeverLog) {
  auto db = MovieDb();
  std::vector<std::string> lines;
  obs::FakeClock slow(0, /*auto_advance_nanos=*/1'000'000);
  core::SchemaFreeEngine engine(db.get(), SlowLogConfig(&slow, 1.0, &lines));
  core::TranslateStats stats;
  ASSERT_TRUE(engine.Translate("SELECT name FROM Person", 3).ok());
  ASSERT_TRUE(engine.Translate("SELECT title FROM Movie", 3, &stats).ok());
  EXPECT_GT(stats.parse_seconds, 0.0);  // the calls did run on the slow clock
  EXPECT_TRUE(lines.empty());
}

// --- Counter descriptors ----------------------------------------------------

// The engine publishes the sfsql_exec_* series from the same record its
// profile ring keeps: each series equals the recorded ExecStats field.
TEST(ExecCountersTest, EveryDescriptorRegistersOneMetricMatchingStats) {
  auto db = MovieDb();
  obs::MetricsRegistry registry;
  core::QueryProfileStore profiles;
  core::EngineConfig config;
  config.metrics = &registry;
  config.profiles = &profiles;
  core::SchemaFreeEngine engine(db.get(), config);
  auto r = engine.Execute(
      "SELECT Movie.title FROM Person, Actor, Movie "
      "WHERE Person.person_id = Actor.person_id "
      "AND Actor.movie_id = Movie.movie_id AND Person.gender = 'female'");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  const std::vector<core::QueryProfile> captured = profiles.Snapshot();
  ASSERT_EQ(captured.size(), 1u);
  const ExecStats& stats = captured[0].exec.stats;
  EXPECT_GT(stats.rows_scanned, 0u);

  std::map<std::string, std::vector<uint64_t>> exported;  // family -> values
  registry.ForEachFamily([&](const obs::MetricsRegistry::Family& f) {
    if (f.name.rfind("sfsql_exec_", 0) != 0) return;
    for (const obs::MetricsRegistry::Series& series : f.series) {
      ASSERT_NE(series.counter, nullptr) << f.name;
      exported[f.name].push_back(series.counter->Value());
    }
  });
  EXPECT_EQ(exported.size(), kNumExecCounters);
  for (const ExecCounter& c : kExecCounters) {
    const std::string name = std::string("sfsql_exec_") + c.name + "_total";
    ASSERT_EQ(exported[name].size(), 1u) << name;
    EXPECT_EQ(exported[name][0], stats.*c.field) << name;
  }
}

}  // namespace
}  // namespace sfsql::exec
