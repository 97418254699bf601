// Tests for the observability layer (src/obs): metric primitives and their
// edge cases, registry registration rules and thread safety (run under TSan
// in the sanitizer CI job), the Prometheus/JSON exporters against golden
// files, the span tracer on a fake clock, the JSON writer/parser pair, and
// the machine-readable bench report — plus the query-profile ring the engine
// records into (core/profile), whose JSON export is golden-tested here too.
//
// Golden files live in tests/goldens/; regenerate after an intentional format
// change with:  SFSQL_REGEN_GOLDENS=1 ./test_obs

#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <limits>
#include <sstream>
#include <thread>
#include <vector>

#include "core/profile.h"
#include "obs/bench_report.h"
#include "obs/clock.h"
#include "obs/export.h"
#include "obs/json.h"
#include "obs/metrics.h"

namespace sfsql::obs {
namespace {

// --- Golden-file helper -----------------------------------------------------

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

// --- Counter / Gauge --------------------------------------------------------

TEST(CounterTest, AccumulatesDeltas) {
  MetricsRegistry registry;
  Counter* c = registry.GetCounter("c_total", "help");
  ASSERT_NE(c, nullptr);
  EXPECT_EQ(c->Value(), 0u);
  c->Increment();
  c->Increment(41);
  EXPECT_EQ(c->Value(), 42u);
}

TEST(GaugeTest, SetAndAdd) {
  MetricsRegistry registry;
  Gauge* g = registry.GetGauge("g", "help");
  ASSERT_NE(g, nullptr);
  g->Set(2.5);
  EXPECT_DOUBLE_EQ(g->Value(), 2.5);
  g->Add(-1.0);
  EXPECT_DOUBLE_EQ(g->Value(), 1.5);
  g->Set(-7.0);  // gauges go down
  EXPECT_DOUBLE_EQ(g->Value(), -7.0);
}

// --- Histogram bucket edges -------------------------------------------------

TEST(HistogramTest, BucketEdgeCases) {
  MetricsRegistry registry;
  Histogram* h = registry.GetHistogram("h", "help", {1.0, 10.0, 100.0});
  ASSERT_NE(h, nullptr);

  h->Observe(0.5);     // under the first bound -> bucket 0
  h->Observe(1.0);     // exactly on a bound belongs to that bound (le)
  h->Observe(1.0001);  // just past -> bucket 1
  h->Observe(10.0);    // bucket 1
  h->Observe(99.999);  // bucket 2
  h->Observe(100.0);   // bucket 2
  h->Observe(1e6);     // overflow (+Inf) bucket
  h->Observe(-3.0);    // negative still lands in the first bucket

  EXPECT_EQ(h->BucketCount(0), 3u);  // 0.5, 1.0, -3.0
  EXPECT_EQ(h->BucketCount(1), 2u);  // 1.0001, 10.0
  EXPECT_EQ(h->BucketCount(2), 2u);  // 99.999, 100.0
  EXPECT_EQ(h->BucketCount(3), 1u);  // 1e6
  EXPECT_EQ(h->Count(), 8u);
  EXPECT_NEAR(h->Sum(), 0.5 + 1.0 + 1.0001 + 10.0 + 99.999 + 100.0 + 1e6 - 3.0,
              1e-9);
}

TEST(HistogramTest, LatencyBucketsAreStrictlyIncreasing) {
  const std::vector<double>& bounds = LatencyBuckets();
  ASSERT_GE(bounds.size(), 2u);
  for (size_t i = 1; i < bounds.size(); ++i) {
    EXPECT_LT(bounds[i - 1], bounds[i]);
  }
}

// --- Registry registration rules --------------------------------------------

TEST(MetricsRegistryTest, SameNameAndLabelsYieldSameHandle) {
  MetricsRegistry registry;
  Counter* a = registry.GetCounter("x_total", "help", {{"phase", "map"}});
  Counter* b = registry.GetCounter("x_total", "ignored", {{"phase", "map"}});
  Counter* other = registry.GetCounter("x_total", "help", {{"phase", "parse"}});
  EXPECT_EQ(a, b);
  EXPECT_NE(a, other);
}

TEST(MetricsRegistryTest, TypeMismatchReturnsNull) {
  MetricsRegistry registry;
  ASSERT_NE(registry.GetCounter("m", "help"), nullptr);
  EXPECT_EQ(registry.GetGauge("m", "help"), nullptr);
  EXPECT_EQ(registry.GetHistogram("m", "help", {1.0}), nullptr);
}

TEST(MetricsRegistryTest, HistogramBoundsFixedByFirstRegistration) {
  MetricsRegistry registry;
  Histogram* a = registry.GetHistogram("h", "help", {1.0, 2.0});
  Histogram* b = registry.GetHistogram("h", "help", {5.0});
  ASSERT_EQ(a, b);
  EXPECT_EQ(a->bounds(), (std::vector<double>{1.0, 2.0}));
}

// Hammers one counter and one histogram from many threads; the sharded slots
// must neither lose increments nor trip TSan.
TEST(MetricsRegistryTest, ConcurrentWritesAreExact) {
  MetricsRegistry registry;
  Counter* c = registry.GetCounter("c_total", "help");
  Histogram* h = registry.GetHistogram("h", "help", {0.5});
  constexpr int kThreads = 8;
  constexpr int kPerThread = 20'000;
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) {
        c->Increment();
        h->Observe(t % 2 == 0 ? 0.25 : 1.0);
        // Concurrent registration of an existing family must also be safe.
        if (i % 4096 == 0) (void)registry.GetCounter("c_total", "help");
      }
    });
  }
  for (std::thread& w : workers) w.join();
  EXPECT_EQ(c->Value(), static_cast<uint64_t>(kThreads) * kPerThread);
  EXPECT_EQ(h->Count(), static_cast<uint64_t>(kThreads) * kPerThread);
  EXPECT_EQ(h->BucketCount(0) + h->BucketCount(1), h->Count());
}

// --- Exporters (golden files) -----------------------------------------------

// A small registry with every metric type, fixed values, and a label needing
// escaping — shared by both exporter goldens.
void PopulateDemoRegistry(MetricsRegistry& registry) {
  registry.GetCounter("demo_requests_total", "Requests served.")->Increment(3);
  registry
      .GetCounter("demo_requests_total", "Requests served.",
                  {{"route", "a\"b\\c"}})
      ->Increment(1);
  registry.GetGauge("demo_queue_depth", "Jobs waiting.")->Set(2.5);
  Histogram* h = registry.GetHistogram("demo_latency_seconds",
                                       "Request latency.", {0.001, 0.01, 0.1});
  h->Observe(0.0005);
  h->Observe(0.001);
  h->Observe(0.05);
  h->Observe(7.0);
}

TEST(ExportTest, PrometheusTextMatchesGolden) {
  MetricsRegistry registry;
  PopulateDemoRegistry(registry);
  ExpectMatchesGolden(ToPrometheusText(registry), "export_demo.prom");
}

TEST(ExportTest, JsonMatchesGoldenAndParses) {
  MetricsRegistry registry;
  PopulateDemoRegistry(registry);
  std::string json = ToJson(registry);
  ExpectMatchesGolden(json, "export_demo.json");
  auto parsed = ParseJson(json);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const JsonValue* families = parsed->Find("metrics");
  ASSERT_NE(families, nullptr);
  ASSERT_TRUE(families->is_array());
  EXPECT_EQ(families->items.size(), 3u);
}

// --- JsonWriter / ParseJson -------------------------------------------------

TEST(JsonTest, WriterParserRoundTrip) {
  JsonWriter w;
  w.BeginObject();
  w.KV("name", "q\"1\"\n");
  w.KV("count", 3LL);
  w.KV("ratio", 0.25);
  w.KV("flag", true);
  w.Key("missing");
  w.Null();
  w.Key("items");
  w.BeginArray();
  w.Int(1);
  w.Double(2.5);
  w.String("x");
  w.EndArray();
  w.EndObject();
  std::string json = w.TakeString();

  auto parsed = ParseJson(json);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString() << "\n" << json;
  EXPECT_EQ(parsed->Find("name")->string, "q\"1\"\n");
  EXPECT_DOUBLE_EQ(parsed->Find("count")->number, 3.0);
  EXPECT_DOUBLE_EQ(parsed->Find("ratio")->number, 0.25);
  EXPECT_TRUE(parsed->Find("flag")->boolean);
  EXPECT_EQ(parsed->Find("missing")->kind, JsonValue::Kind::kNull);
  const JsonValue* items = parsed->Find("items");
  ASSERT_TRUE(items->is_array());
  ASSERT_EQ(items->items.size(), 3u);
  EXPECT_EQ(items->items[2].string, "x");
}

TEST(JsonTest, ParserRejectsMalformedInput) {
  EXPECT_FALSE(ParseJson("{").ok());
  EXPECT_FALSE(ParseJson("{\"a\":1,}").ok());
  EXPECT_FALSE(ParseJson("[1 2]").ok());
  EXPECT_FALSE(ParseJson("").ok());
  EXPECT_FALSE(ParseJson("{\"a\":1} trailing").ok());
}

TEST(JsonTest, UnicodeEscapesDecodeToUtf8) {
  // BMP escapes: ASCII, two-byte, and three-byte UTF-8 targets.
  auto parsed = ParseJson("[\"\\u0041\", \"\\u00e9\", \"\\u20ac\"]");
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->items[0].string, "A");
  EXPECT_EQ(parsed->items[1].string, "\xc3\xa9");      // é
  EXPECT_EQ(parsed->items[2].string, "\xe2\x82\xac");  // €

  // Surrogate pair: U+1F600 as \ud83d\ude00 → four-byte UTF-8.
  auto pair = ParseJson("\"\\ud83d\\ude00\"");
  ASSERT_TRUE(pair.ok()) << pair.status().ToString();
  EXPECT_EQ(pair->string, "\xf0\x9f\x98\x80");

  // Upper/lowercase hex digits are both accepted.
  auto upper = ParseJson("\"\\u20AC\"");
  ASSERT_TRUE(upper.ok());
  EXPECT_EQ(upper->string, "\xe2\x82\xac");
}

TEST(JsonTest, UnicodeEscapesRoundTripThroughWriter) {
  // The writer escapes control characters as \u00XX; the parser must decode
  // them back to the original bytes.
  JsonWriter w;
  w.BeginArray();
  w.String(std::string("a\x01z", 3));
  w.EndArray();
  const std::string json = w.TakeString();
  EXPECT_NE(json.find("\\u0001"), std::string::npos);
  auto parsed = ParseJson(json);
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->items[0].string, std::string("a\x01z", 3));
}

TEST(JsonTest, MalformedUnicodeEscapesAreRejected) {
  EXPECT_FALSE(ParseJson("\"\\u12\"").ok());          // too few digits
  EXPECT_FALSE(ParseJson("\"\\u12g4\"").ok());        // non-hex digit
  EXPECT_FALSE(ParseJson("\"\\ud83d\"").ok());        // lone high surrogate
  EXPECT_FALSE(ParseJson("\"\\ud83dxyz\"").ok());     // high w/o \u follower
  EXPECT_FALSE(ParseJson("\"\\ud83d\\u0041\"").ok()); // high + non-low
  EXPECT_FALSE(ParseJson("\"\\ude00\"").ok());        // lone low surrogate
}

TEST(JsonTest, NonFiniteDoublesRenderAsNull) {
  JsonWriter w;
  w.BeginArray();
  w.Double(std::numeric_limits<double>::infinity());
  w.Double(std::numeric_limits<double>::quiet_NaN());
  w.EndArray();
  EXPECT_EQ(w.TakeString(), "[null,null]");
}

// --- BenchReport ------------------------------------------------------------

TEST(BenchReportTest, MedianHandlesOddEvenEmpty) {
  EXPECT_DOUBLE_EQ(BenchReport::Median({}), 0.0);
  EXPECT_DOUBLE_EQ(BenchReport::Median({3.0}), 3.0);
  EXPECT_DOUBLE_EQ(BenchReport::Median({5.0, 1.0, 3.0}), 3.0);
  EXPECT_DOUBLE_EQ(BenchReport::Median({4.0, 1.0, 2.0, 3.0}), 2.5);
}

TEST(BenchReportTest, JsonHasDocumentedShape) {
  BenchReport report("demo");
  report.SetConfig("database", "movie43");
  report.SetConfig("rounds", 5LL);
  report.SetMetric("queries_per_second", 123.5);
  report.AddRow("queries", BenchReport::Row()
                               .Text("id", "q1")
                               .Number("units", 4));

  auto parsed = ParseJson(report.ToJson());
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->Find("bench")->string, "demo");
  EXPECT_DOUBLE_EQ(parsed->Find("schema_version")->number, 1.0);
  const JsonValue* config = parsed->Find("config");
  ASSERT_TRUE(config != nullptr && config->is_object());
  EXPECT_EQ(config->Find("database")->string, "movie43");
  EXPECT_DOUBLE_EQ(config->Find("rounds")->number, 5.0);
  const JsonValue* metrics = parsed->Find("metrics");
  ASSERT_TRUE(metrics != nullptr && metrics->is_object());
  EXPECT_DOUBLE_EQ(metrics->Find("queries_per_second")->number, 123.5);
  const JsonValue* tables = parsed->Find("tables");
  ASSERT_TRUE(tables != nullptr && tables->is_object());
  const JsonValue* rows = tables->Find("queries");
  ASSERT_TRUE(rows != nullptr && rows->is_array());
  ASSERT_EQ(rows->items.size(), 1u);
  EXPECT_EQ(rows->items[0].Find("id")->string, "q1");
  EXPECT_DOUBLE_EQ(rows->items[0].Find("units")->number, 4.0);
}

// --- Registration conflicts --------------------------------------------------

TEST(MetricsRegistryTest, RegistrationConflictsAreCounted) {
  MetricsRegistry registry;
  EXPECT_EQ(registry.registration_conflicts(), 0u);

  Counter* c = registry.GetCounter("m_total", "requests served");
  ASSERT_NE(c, nullptr);
  // Same name + help + type: no conflict, same handle.
  EXPECT_EQ(registry.GetCounter("m_total", "requests served"), c);
  EXPECT_EQ(registry.registration_conflicts(), 0u);

  // Type mismatch: null handle, one conflict.
  EXPECT_EQ(registry.GetGauge("m_total", "requests served"), nullptr);
  EXPECT_EQ(registry.registration_conflicts(), 1u);

  // Help mismatch: the existing handle (first registration wins), one more.
  EXPECT_EQ(registry.GetCounter("m_total", "different help"), c);
  EXPECT_EQ(registry.registration_conflicts(), 2u);

  // Histogram bounds mismatch: existing bounds win, one more conflict.
  Histogram* h = registry.GetHistogram("h", "latency", {1.0, 2.0});
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(registry.GetHistogram("h", "latency", {5.0}), h);
  EXPECT_EQ(h->bounds(), (std::vector<double>{1.0, 2.0}));
  EXPECT_EQ(registry.registration_conflicts(), 3u);

  // The counter is an ordinary family, visible in every export.
  EXPECT_NE(ToPrometheusText(registry)
                .find("sfsql_obs_registration_conflicts_total 3"),
            std::string::npos);
}

// --- QueryProfileStore -------------------------------------------------------

using core::QueryProfile;
using core::QueryProfileStore;

QueryProfile DemoProfile(uint64_t start_nanos, const char* statement) {
  QueryProfile p;
  p.start_nanos = start_nanos;
  p.kind = core::CallKind::kTranslate;
  p.statement = std::make_shared<const std::string>(statement);
  p.cache_tier = core::CacheTier::kMiss;
  p.latency_seconds = 0.002;
  p.translate.parse_seconds = 0.0005;
  p.translations = 3;
  return p;
}

TEST(QueryProfileStoreTest, AssignsIdsAndSnapshotsInOrder) {
  QueryProfileStore store(/*capacity=*/8);
  store.Record(DemoProfile(100, "a"));
  store.Record(DemoProfile(200, "b"));
  store.Record(DemoProfile(300, "c"));
  EXPECT_EQ(store.recorded(), 3u);
  EXPECT_EQ(store.dropped(), 0u);
  std::vector<QueryProfile> got = store.Snapshot();
  ASSERT_EQ(got.size(), 3u);
  EXPECT_EQ(got[0].id, 1u);
  EXPECT_EQ(got[1].id, 2u);
  EXPECT_EQ(got[2].id, 3u);
  EXPECT_EQ(*got[0].statement, "a");
  EXPECT_EQ(*got[2].statement, "c");
  EXPECT_EQ(got[0].cache_tier, core::CacheTier::kMiss);
  EXPECT_EQ(got[0].translations, 3);
}

TEST(QueryProfileStoreTest, RingWrapsOverwritingOldestAndCountsDrops) {
  QueryProfileStore store(/*capacity=*/4);
  for (int i = 0; i < 6; ++i) {
    store.Record(DemoProfile(100 * (i + 1), "q"));
  }
  EXPECT_EQ(store.recorded(), 6u);
  EXPECT_EQ(store.dropped(), 2u);  // ids 1 and 2 were overwritten
  std::vector<QueryProfile> got = store.Snapshot();
  ASSERT_EQ(got.size(), 4u);
  EXPECT_EQ(got.front().id, 3u);
  EXPECT_EQ(got.back().id, 6u);
}

TEST(QueryProfileStoreTest, CapacityIsExactAndAtLeastOne) {
  QueryProfileStore store(/*capacity=*/10);
  EXPECT_EQ(store.capacity(), 10u);
  QueryProfileStore tiny(/*capacity=*/0);
  EXPECT_EQ(tiny.capacity(), 1u);  // a degenerate capacity stays usable
  tiny.Record(DemoProfile(1, "only"));
  EXPECT_EQ(tiny.Snapshot().size(), 1u);
}

TEST(QueryProfileStoreTest, JsonMatchesGolden) {
  QueryProfileStore store(/*capacity=*/4);

  QueryProfile translate = DemoProfile(1'000'000, "SELECT name FROM people");
  translate.fingerprint = 0xdeadbeef;
  translate.translate.map_seconds = 0.001;
  translate.translate.sat_index_probes = 5;
  translate.translate.generator.pushed = 12;
  store.Record(std::move(translate));

  QueryProfile execute = DemoProfile(5'000'000, "SELECT * FROM movies");
  execute.kind = core::CallKind::kExecute;
  execute.cache_tier = core::CacheTier::kTier2;
  execute.translate.parse_seconds = 0.0;
  execute.translations = 1;
  execute.exec.seconds = 0.0007;
  execute.exec.stats.rows_scanned = 120;
  execute.exec.stats.index_scans = 1;
  execute.exec.rows_returned = 7;
  execute.exec.access_paths = {{.binding = "m", .relation = "Movie",
                                .index_scan = true, .table_rows = 120,
                                .estimated_rows = 9, .chunks_total = 4,
                                .chunks_pruned = 2, .join_algo = ""}};
  store.Record(std::move(execute));

  QueryProfile failed = DemoProfile(9'000'000, "SELECT FROM nothing");
  failed.ok = false;
  failed.error = "no relation matches 'nothing'";
  failed.translations = 0;
  store.Record(std::move(failed));

  ExpectMatchesGolden(store.ToJson(/*pretty=*/true) + "\n",
                      "profile_store.json");

  // And the export parses back with the documented shape.
  auto parsed = ParseJson(store.ToJson());
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_DOUBLE_EQ(parsed->Find("capacity")->number, 4.0);
  EXPECT_DOUBLE_EQ(parsed->Find("recorded")->number, 3.0);
  const JsonValue* profiles = parsed->Find("profiles");
  ASSERT_TRUE(profiles != nullptr && profiles->is_array());
  ASSERT_EQ(profiles->items.size(), 3u);
  EXPECT_EQ(profiles->items[0].Find("fingerprint")->string,
            "00000000deadbeef");
  EXPECT_EQ(profiles->items[1].Find("kind")->string, "execute");
  ASSERT_NE(profiles->items[1].Find("access_paths"), nullptr);
  EXPECT_EQ(profiles->items[2].Find("error")->string,
            "no relation matches 'nothing'");
}

// Slots follow record ids, not writer threads, so a ring with room for every
// record keeps them all however few threads write.
TEST(QueryProfileStoreTest, FewWritersFillTheWholeRing) {
  QueryProfileStore store(/*capacity=*/4096);
  constexpr int kPerThread = 1'500;
  std::vector<std::thread> workers;
  for (int t = 0; t < 2; ++t) {
    workers.emplace_back([&store] {
      for (int i = 0; i < kPerThread; ++i) {
        store.Record(DemoProfile(i, "few"));
      }
    });
  }
  for (std::thread& w : workers) w.join();
  EXPECT_EQ(store.Snapshot().size(), 2u * kPerThread);
  EXPECT_EQ(store.recorded(), 2u * kPerThread);
  EXPECT_EQ(store.dropped(), 0u);
}

TEST(QueryProfileStoreTest, ConcurrentRecordsNeitherBlockNorCorrupt) {
  QueryProfileStore store(/*capacity=*/64);
  constexpr int kThreads = 8;
  constexpr int kPerThread = 2'000;
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&store] {
      for (int i = 0; i < kPerThread; ++i) {
        store.Record(DemoProfile(i, "hammer"));
      }
    });
  }
  for (std::thread& w : workers) w.join();
  const uint64_t total = static_cast<uint64_t>(kThreads) * kPerThread;
  // recorded + contention-skips == total, and every record that is not
  // live was dropped.
  EXPECT_LE(store.recorded(), total);
  EXPECT_GE(store.recorded() + store.dropped(), total);
  std::vector<QueryProfile> got = store.Snapshot();
  EXPECT_LE(got.size(), store.capacity());
  EXPECT_EQ(got.size() + store.dropped(), total);
  for (size_t i = 1; i < got.size(); ++i) {
    EXPECT_LT(got[i - 1].id, got[i].id);  // Snapshot sorts by id
  }
}

}  // namespace
}  // namespace sfsql::obs
