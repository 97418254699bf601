// Tests for translation EXPLAIN provenance (core/explain.h, engine
// TranslateExplained) and the generator's per-root timing aggregation — all
// on injected fake clocks so every timing in the assertions and the golden
// file is deterministic.
//
// Golden files live in tests/goldens/; regenerate after an intentional format
// change with:  SFSQL_REGEN_GOLDENS=1 ./test_explain

#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "core/engine.h"
#include "obs/clock.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "workloads/movie43.h"

namespace sfsql {
namespace {

using core::SchemaFreeEngine;
using core::TranslationExplain;
using workloads::BuildMovie43;

constexpr const char* kQuery =
    "SELECT title? WHERE actor_name? = 'Kate Winslet' "
    "AND director_name? = 'James Cameron'";

std::string GoldenPath(const std::string& name) {
  return std::string(SFSQL_SOURCE_DIR) + "/tests/goldens/" + name;
}

void ExpectMatchesGolden(const std::string& actual, const std::string& name) {
  const std::string path = GoldenPath(name);
  if (std::getenv("SFSQL_REGEN_GOLDENS") != nullptr) {
    std::ofstream out(path);
    ASSERT_TRUE(out.good()) << "cannot write " << path;
    out << actual;
    return;
  }
  std::ifstream in(path);
  ASSERT_TRUE(in.good()) << "missing golden " << path
                         << " (regenerate with SFSQL_REGEN_GOLDENS=1)";
  std::ostringstream buf;
  buf << in.rdbuf();
  EXPECT_EQ(actual, buf.str()) << "golden mismatch: " << path;
}

TEST(ExplainTest, ProvenanceMatchesTopOneTranslation) {
  auto db = BuildMovie43();
  SchemaFreeEngine engine(db.get());
  TranslationExplain explain;
  auto translations = engine.TranslateExplained(kQuery, 3, &explain);
  ASSERT_TRUE(translations.ok()) << translations.status().ToString();
  ASSERT_TRUE(explain.ok);
  ASSERT_FALSE(explain.results.empty());

  // The ranked results mirror the Translate output exactly.
  ASSERT_EQ(explain.results.size(), translations->size());
  for (size_t i = 0; i < translations->size(); ++i) {
    EXPECT_EQ(explain.results[i].sql, (*translations)[i].sql);
    EXPECT_DOUBLE_EQ(explain.results[i].weight, (*translations)[i].weight);
  }

  // Every relation tree reports a non-empty mapping set, best first, with
  // exactly one candidate marked as chosen by the top-1 network — and that
  // candidate's relation actually appears in the winning network.
  ASSERT_FALSE(explain.trees.empty());
  for (const core::ExplainTree& tree : explain.trees) {
    ASSERT_FALSE(tree.candidates.empty()) << tree.tree;
    int chosen = 0;
    for (size_t i = 0; i < tree.candidates.size(); ++i) {
      const core::ExplainCandidate& c = tree.candidates[i];
      EXPECT_GT(c.similarity, 0.0);
      if (i > 0) {
        EXPECT_LE(c.similarity, tree.candidates[i - 1].similarity);
      }
      if (c.chosen) {
        ++chosen;
        EXPECT_NE(explain.results[0].network.find(c.relation_name),
                  std::string::npos)
            << c.relation_name << " chosen but absent from top-1 network "
            << explain.results[0].network;
      }
      // Bound attributes carry their argmax similarity.
      for (const core::ExplainAttribute& a : c.attributes) {
        if (!a.bound_name.empty()) EXPECT_GT(a.similarity, 0.0);
      }
    }
    EXPECT_EQ(chosen, 1) << tree.tree;
  }

  // Per-root searches cover the generator's roots and respect the seeding
  // protocol: later roots start from at least the root-0 bound.
  ASSERT_EQ(static_cast<long long>(explain.roots.size()),
            explain.stats.generator.roots);
  for (size_t i = 1; i < explain.roots.size(); ++i) {
    EXPECT_GE(explain.roots[i].search.initial_bound, explain.seed_bound);
  }
  for (const core::ExplainRootSearch& root : explain.roots) {
    EXPECT_GE(root.search.final_bound, root.search.initial_bound);
    EXPECT_FALSE(root.root.empty());
  }
}

TEST(ExplainTest, JsonMatchesGoldenOnFakeClock) {
  auto db = BuildMovie43();
  core::EngineConfig config;
  obs::FakeClock clock(0, 1'000'000);  // every reading advances 1 ms
  config.clock = &clock;
  SchemaFreeEngine engine(db.get(), config);

  TranslationExplain explain;
  auto translations = engine.TranslateExplained(kQuery, 3, &explain);
  ASSERT_TRUE(translations.ok()) << translations.status().ToString();

  // Precision 6 keeps deterministic doubles rendering identically everywhere.
  std::string json = explain.ToJson(/*pretty=*/true, /*double_precision=*/6);
  auto parsed = obs::ParseJson(json);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  ExpectMatchesGolden(json, "explain_movie43.json");

  // The human rendering carries the same provenance headline.
  std::string tree = explain.RenderTree();
  EXPECT_NE(tree.find("Movie"), std::string::npos);
  EXPECT_NE(tree.find("translation"), std::string::npos);
}

TEST(ExplainTest, FailedParseKeepsErrorProvenance) {
  auto db = BuildMovie43();
  SchemaFreeEngine engine(db.get());
  TranslationExplain explain;
  auto result = engine.TranslateExplained("SELEC nonsense", 3, &explain);
  EXPECT_FALSE(result.ok());
  EXPECT_FALSE(explain.ok);
  EXPECT_FALSE(explain.error.empty());
  EXPECT_TRUE(explain.results.empty());
}

// EXPLAIN reads its provenance from the one mapping pass, so it probes
// satisfiability exactly as often as the Translate it explains.
TEST(ExplainTest, ProbesAsOftenAsTranslate) {
  constexpr const char* kProbeQuery =
      "SELECT title? WHERE director_name? = 'James Cameron' AND year? > 1990";
  auto db = BuildMovie43();
  core::EngineConfig config;
  config.plan_cache_enabled = false;
  config.mapping_cache_capacity = 0;

  core::TranslateStats translated;
  ASSERT_TRUE(SchemaFreeEngine(db.get(), config)
                  .Translate(kProbeQuery, 3, &translated)
                  .ok());
  TranslationExplain explain;
  ASSERT_TRUE(SchemaFreeEngine(db.get(), config)
                  .TranslateExplained(kProbeQuery, 3, &explain)
                  .ok());
  EXPECT_GT(translated.sat_index_probes, 0);
  EXPECT_EQ(explain.stats.sat_index_probes, translated.sat_index_probes);
}

TEST(GeneratorTimingTest, RootSecondsSumAndMaxAggregateDeterministically) {
  auto db = BuildMovie43();
  core::EngineConfig config;
  obs::FakeClock clock(0, 1'000'000);
  config.clock = &clock;
  SchemaFreeEngine engine(db.get(), config);

  core::TranslateStats stats;
  auto result = engine.Translate(kQuery, 3, &stats);
  ASSERT_TRUE(result.ok());
  const core::GeneratorStats& g = stats.generator;
  ASSERT_GT(g.roots, 0);
  // Each root's bracket is (start, end) on the same fake clock, so the sum
  // counts total work and the max the slowest root: sum >= max > 0, and with
  // more than one root the sum strictly exceeds the max.
  EXPECT_GT(g.root_seconds_max, 0.0);
  EXPECT_GE(g.root_seconds_sum, g.root_seconds_max);
  if (g.roots > 1) {
    EXPECT_GT(g.root_seconds_sum, g.root_seconds_max);
  }
}

}  // namespace
}  // namespace sfsql
