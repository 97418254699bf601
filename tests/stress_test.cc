// Concurrency stress: Engine::Translate racing Database::InsertRows on one
// shared engine with every accelerator enabled (plan cache, mapping cache,
// column indexes). Each satisfiability probe pins the
// current version of the one relation it reads, and the insert publishes a
// new version (with no indexes built yet) without waiting for the probes.
// Designed for the TSan CI configuration, but the assertions are meaningful
// under any build:
//
//   * every translation observed during the race equals the pre-insert or the
//     post-insert expectation (the insert flips exactly one attribute's
//     satisfiability, so no probe interleaving can produce a third result),
//   * after the writer quiesces, the shared engine serves the post-insert
//     translation — no cache layer (plan cache tier-1/2, mapping cache,
//     the column indexes of a superseded version) may hold a stale answer.
//
// A third test races two Translate loops with no writer and checks that each
// call's TranslateStats count only that call's own lookups and probes. A
// fourth publishes call records from several serving threads into every
// sink at once.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/engine.h"
#include "core/plan_cache.h"
#include "core/profile.h"
#include "obs/metrics.h"
#include "storage/database.h"
#include "workloads/movie43.h"

namespace sfsql {
namespace {

/// Comparison key over the full ranked list: SQL text, weight bits, network.
std::string ResultKey(const Result<std::vector<core::Translation>>& r) {
  if (!r.ok()) return "<" + r.status().ToString() + ">";
  std::string key;
  for (const core::Translation& t : *r) {
    char weight[64];
    std::snprintf(weight, sizeof(weight), "%.17g", t.weight);
    key += t.sql + "\x1f" + weight + "\x1f" + t.network_text + "\x1e";
  }
  return key;
}

// The inserted Genre row makes exactly one probe flip: `= 'zzz_stress_genre'`
// against Genre.name goes unsatisfiable -> satisfiable. Both queries avoid
// numeric comparisons so the fresh genre_id cannot flip anything else.
constexpr const char* kFlipQuery =
    "SELECT title? WHERE genre? = 'zzz_stress_genre'";
constexpr const char* kStableQuery =
    "SELECT title? WHERE director_name? = 'zq_nonexistent_director'";
constexpr int kK = 3;

TEST(TranslateInsertStressTest, RacingInsertYieldsOnlyObservableEpochs) {
  auto db = workloads::BuildMovie43(42, 30);
  const int genre_rel = *db->catalog().FindRelation("Genre");

  // Expectations from throwaway cache-less engines (translation output is
  // independent of the accelerators; the cross-config benches guard that).
  core::EngineConfig plain;
  plain.plan_cache_enabled = false;
  const std::string flip_before =
      ResultKey(core::SchemaFreeEngine(db.get(), plain)
                    .Translate(kFlipQuery, kK));
  const std::string stable_expected =
      ResultKey(core::SchemaFreeEngine(db.get(), plain)
                    .Translate(kStableQuery, kK));

  core::SchemaFreeEngine engine(db.get());  // all accelerators on
  // Warm every cache with pre-insert state so the race starts from the worst
  // case: everything primed to serve stale answers.
  EXPECT_EQ(ResultKey(engine.Translate(kFlipQuery, kK)), flip_before);
  EXPECT_EQ(ResultKey(engine.Translate(kStableQuery, kK)), stable_expected);

  constexpr int kThreads = 4;
  constexpr int kIterations = 25;
  std::vector<std::vector<std::string>> flip_seen(kThreads);
  std::vector<std::string> stable_mismatch(kThreads);
  std::atomic<int> started{0};

  std::vector<std::thread> readers;
  for (int t = 0; t < kThreads; ++t) {
    readers.emplace_back([&, t] {
      started.fetch_add(1);
      for (int i = 0; i < kIterations; ++i) {
        flip_seen[t].push_back(ResultKey(engine.Translate(kFlipQuery, kK)));
        std::string stable = ResultKey(engine.Translate(kStableQuery, kK));
        if (stable != stable_expected && stable_mismatch[t].empty()) {
          stable_mismatch[t] = stable;
        }
      }
    });
  }
  std::thread writer([&] {
    while (started.load() < kThreads) std::this_thread::yield();
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    std::vector<storage::Row> rows;
    rows.push_back({storage::Value::Int(999001),
                    storage::Value::String("zzz_stress_genre"),
                    storage::Value()});
    ASSERT_TRUE(db->InsertRows(genre_rel, std::move(rows)).ok());
  });
  for (std::thread& r : readers) r.join();
  writer.join();

  const std::string flip_after =
      ResultKey(core::SchemaFreeEngine(db.get(), plain)
                    .Translate(kFlipQuery, kK));
  ASSERT_NE(flip_before, flip_after)
      << "the insert must actually change the flip query's translation for "
         "the membership assertion to mean anything";

  for (int t = 0; t < kThreads; ++t) {
    EXPECT_TRUE(stable_mismatch[t].empty())
        << "thread " << t << " saw a stable-query divergence:\n"
        << stable_mismatch[t];
    for (size_t i = 0; i < flip_seen[t].size(); ++i) {
      EXPECT_TRUE(flip_seen[t][i] == flip_before ||
                  flip_seen[t][i] == flip_after)
          << "thread " << t << " call " << i
          << " returned a translation valid for no observed epoch:\n"
          << flip_seen[t][i];
    }
  }

  // Quiesced: no cache layer may still serve the pre-insert answer.
  EXPECT_EQ(ResultKey(engine.Translate(kFlipQuery, kK)), flip_after);
  EXPECT_EQ(ResultKey(engine.Translate(kStableQuery, kK)), stable_expected);
  // And the post-insert answer is itself cached and stable.
  EXPECT_EQ(ResultKey(engine.Translate(kFlipQuery, kK)), flip_after);
}

// A second writer pattern: repeated small inserts while readers hammer one
// query whose expectation set grows per epoch. Membership can't be checked
// cheaply per intermediate epoch, so this variant only asserts crash/race
// freedom plus quiesced freshness — it exists to give TSan a longer window of
// real write/read overlap than the single-batch test above.
TEST(TranslateInsertStressTest, RepeatedInsertsQuiesceFresh) {
  auto db = workloads::BuildMovie43(42, 30);
  const int genre_rel = *db->catalog().FindRelation("Genre");
  core::SchemaFreeEngine engine(db.get());

  std::atomic<bool> stop{false};
  std::vector<std::thread> readers;
  for (int t = 0; t < 3; ++t) {
    readers.emplace_back([&] {
      while (!stop.load(std::memory_order_acquire)) {
        auto r = engine.Translate(kFlipQuery, kK);
        EXPECT_TRUE(r.ok());
      }
    });
  }
  for (int i = 0; i < 8; ++i) {
    std::vector<storage::Row> rows;
    rows.push_back({storage::Value::Int(999100 + i),
                    storage::Value::String("zzz_stress_genre"),
                    storage::Value()});
    ASSERT_TRUE(db->InsertRows(genre_rel, std::move(rows)).ok());
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  stop.store(true, std::memory_order_release);
  for (std::thread& r : readers) r.join();

  core::EngineConfig plain;
  plain.plan_cache_enabled = false;
  EXPECT_EQ(ResultKey(engine.Translate(kFlipQuery, kK)),
            ResultKey(core::SchemaFreeEngine(db.get(), plain)
                          .Translate(kFlipQuery, kK)));
}

// Every call of query A repeats the same satisfiability probes (no plan
// cache, no mapping cache, warm indexes), so its counters must equal the
// serial values even while thread B runs other probes on the same engine and
// database.
TEST(TranslateCountersStressTest, ConcurrentCallsCountOnlyTheirOwnWork) {
  auto db = workloads::BuildMovie43(42, 30);
  core::EngineConfig config;
  config.plan_cache_enabled = false;
  config.mapping_cache_capacity = 0;
  core::SchemaFreeEngine engine(db.get(), config);
  constexpr const char* kQueryA =
      "SELECT title? WHERE actor_name? = 'Kate Winslet' "
      "AND director_name? = 'James Cameron'";
  constexpr const char* kQueryB =
      "SELECT name? WHERE title? LIKE '%Titanic%' AND year? > 1990";

  // Warm both queries so no call builds an index, then take A's serial counts.
  core::TranslateStats serial;
  ASSERT_TRUE(engine.Translate(kQueryB, kK).ok());
  ASSERT_TRUE(engine.Translate(kQueryA, kK).ok());
  ASSERT_TRUE(engine.Translate(kQueryA, kK, &serial).ok());
  ASSERT_GT(serial.sat_index_probes, 0);

  std::atomic<bool> started{false};
  std::atomic<bool> done{false};
  std::thread other([&] {
    started.store(true, std::memory_order_release);
    while (!done.load(std::memory_order_acquire)) {
      core::TranslateStats stats;
      EXPECT_TRUE(engine.Translate(kQueryB, kK, &stats).ok());
    }
  });
  while (!started.load(std::memory_order_acquire)) std::this_thread::yield();
  int mismatches = 0;
  for (int i = 0; i < 200; ++i) {
    core::TranslateStats stats;
    ASSERT_TRUE(engine.Translate(kQueryA, kK, &stats).ok());
    const bool same =
        stats.sat_index_probes == serial.sat_index_probes &&
        stats.like_candidates_verified == serial.like_candidates_verified &&
        stats.index_builds == 0;
    if (!same && mismatches++ == 0) {
      ADD_FAILURE() << "call " << i << ": sat_index_probes "
                    << stats.sat_index_probes << " (serial "
                    << serial.sat_index_probes
                    << "), like_candidates_verified "
                    << stats.like_candidates_verified << " (serial "
                    << serial.like_candidates_verified << "), index_builds "
                    << stats.index_builds;
    }
  }
  done.store(true, std::memory_order_release);
  other.join();
  EXPECT_EQ(mismatches, 0);
}

// Serving threads publish their Execute records into one metrics registry,
// one profile ring and the slow log at once, while a reader snapshots the
// ring and a tiny plan cache evicts the plans that ring records point into.
TEST(PublishStressTest, ConcurrentExecutesReachEverySinkOnce) {
  auto db = workloads::BuildMovie43(42, 30);
  obs::MetricsRegistry registry;
  core::QueryProfileStore profiles(/*capacity=*/64);
  std::mutex lines_mu;
  long long lines = 0;
  core::EngineConfig config;
  config.metrics = &registry;
  config.profiles = &profiles;
  config.plan_cache_capacity = 8;
  config.slow_execute_threshold_ms = 1e-9;  // every Execute is slow
  config.slow_log_sink = [&](const std::string&) {
    std::lock_guard<std::mutex> lock(lines_mu);
    ++lines;
  };
  core::SchemaFreeEngine engine(db.get(), config);
  const std::vector<std::string> queries = {
      "SELECT title? WHERE year? > 2000",
      "SELECT title? WHERE genre? = 'Drama'",
      "SELECT title? WHERE director_name? = 'James Cameron'",
      "SELECT title? WHERE actor_name? = 'Kate Winslet'",
      "SELECT name? WHERE title? LIKE '%Titanic%' AND year? > 1990",
  };

  constexpr int kThreads = 4;
  constexpr int kCalls = 30;
  std::atomic<bool> done{false};
  std::thread reader([&] {
    while (!done.load(std::memory_order_acquire)) {
      for (const core::QueryProfile& p : profiles.Snapshot()) {
        ASSERT_NE(p.statement, nullptr);
        EXPECT_NE(std::find(queries.begin(), queries.end(), *p.statement),
                  queries.end());
      }
    }
  });
  std::vector<std::thread> servers;
  for (int t = 0; t < kThreads; ++t) {
    servers.emplace_back([&, t] {
      for (int i = 0; i < kCalls; ++i) {
        auto r = engine.Execute(queries[(t + i) % queries.size()]);
        EXPECT_TRUE(r.ok()) << r.status().ToString();
      }
    });
  }
  for (std::thread& s : servers) s.join();
  done.store(true, std::memory_order_release);
  reader.join();

  const long long total = kThreads * kCalls;
  EXPECT_EQ(lines, total);
  EXPECT_EQ(registry
                .GetCounter("sfsql_execute_total",
                            "Executed SELECT statements")
                ->Value(),
            static_cast<uint64_t>(total));
  // Every record reached the ring or was counted as dropped there.
  EXPECT_GE(profiles.recorded() + profiles.dropped(),
            static_cast<uint64_t>(total));
  EXPECT_GT(engine.plan_cache_stats().lru_evictions, 0u);
}

}  // namespace
}  // namespace sfsql
