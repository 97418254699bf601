// Top-query inspector over a serve_driver --stats-json dump (or any JSON
// document containing a QueryProfileStore dump): aggregates the captured
// QueryProfile records by statement and prints the heaviest ones.
//
// Usage:
//   sfsql_top FILE [--by total|max|mean|count] [--limit N]
//
// Accepts either the full serve_driver dump ({"driver": .., "profiles":
// {"profiles": [..]}, ..}) or a bare store dump ({"profiles": [..]}).
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "obs/json.h"

using sfsql::obs::JsonValue;

namespace {

struct Aggregate {
  std::string statement;
  long long count = 0;
  long long errors = 0;
  double total_ms = 0.0;
  double max_ms = 0.0;
  double execute_ms = 0.0;
  long long tier2 = 0;
  long long tier1 = 0;
  long long miss = 0;
  unsigned long long rows_scanned = 0;

  double mean_ms() const { return count > 0 ? total_ms / count : 0.0; }
};

double NumberOr(const JsonValue* v, double fallback) {
  return v != nullptr && v->is_number() ? v->number : fallback;
}

/// The profile array lives at .profiles (bare store dump) or
/// .profiles.profiles (full serve_driver dump).
const JsonValue* FindProfileArray(const JsonValue& root) {
  const JsonValue* profiles = root.Find("profiles");
  if (profiles == nullptr) return nullptr;
  if (profiles->is_array()) return profiles;
  return profiles->Find("profiles");
}

std::string Truncate(const std::string& s, size_t max) {
  if (s.size() <= max) return s;
  return s.substr(0, max - 3) + "...";
}

}  // namespace

int main(int argc, char** argv) {
  std::string path;
  std::string by = "total";
  long long limit = 20;
  for (int i = 1; i < argc; ++i) {
    auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    if (std::strcmp(argv[i], "--by") == 0) {
      const char* v = next();
      by = v ? v : "";
    } else if (std::strcmp(argv[i], "--limit") == 0) {
      const char* v = next();
      limit = v ? std::atoll(v) : 0;
    } else if (argv[i][0] == '-') {
      std::fprintf(stderr,
                   "usage: sfsql_top FILE [--by total|max|mean|count] "
                   "[--limit N]\n");
      return 2;
    } else {
      path = argv[i];
    }
  }
  if (path.empty() || limit < 1 ||
      (by != "total" && by != "max" && by != "mean" && by != "count")) {
    std::fprintf(stderr,
                 "usage: sfsql_top FILE [--by total|max|mean|count] "
                 "[--limit N]\n");
    return 2;
  }

  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "sfsql_top: cannot read %s\n", path.c_str());
    return 1;
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  auto parsed = sfsql::obs::ParseJson(buffer.str());
  if (!parsed.ok()) {
    std::fprintf(stderr, "sfsql_top: %s: %s\n", path.c_str(),
                 parsed.status().message().c_str());
    return 1;
  }

  const JsonValue* profile_array = FindProfileArray(*parsed);
  if (profile_array == nullptr || !profile_array->is_array()) {
    std::fprintf(stderr, "sfsql_top: %s has no profiles array\n",
                 path.c_str());
    return 1;
  }

  if (const JsonValue* driver = parsed->Find("driver")) {
    std::printf("run: %.0f requests, %.1f q/s, "
                "p50 %.3f ms  p95 %.3f ms  p99 %.3f ms\n",
                NumberOr(driver->Find("requests"), 0),
                NumberOr(driver->Find("queries_per_second"), 0),
                NumberOr(driver->Find("latency_p50_ms"), 0),
                NumberOr(driver->Find("latency_p95_ms"), 0),
                NumberOr(driver->Find("latency_p99_ms"), 0));
  }
  if (const JsonValue* store = parsed->Find("profiles");
      store != nullptr && store->is_object()) {
    std::printf("profile ring: %.0f recorded, %.0f dropped "
                "(capacity %.0f)\n",
                NumberOr(store->Find("recorded"), 0),
                NumberOr(store->Find("dropped"), 0),
                NumberOr(store->Find("capacity"), 0));
  }
  if (const JsonValue* pool = parsed->Find("pool");
      pool != nullptr && pool->is_object()) {
    std::printf("pool: %.0f workers, %.0f tasks, "
                "%.0f parallel loops (%.0f nested inline), idle %.0f ms\n",
                NumberOr(pool->Find("workers"), 0),
                NumberOr(pool->Find("tasks"), 0),
                NumberOr(pool->Find("parallel_fors"), 0),
                NumberOr(pool->Find("nested_inline"), 0),
                NumberOr(pool->Find("idle_ms"), 0));
  }

  std::map<std::string, Aggregate> by_statement;
  for (const JsonValue& p : profile_array->items) {
    if (!p.is_object()) continue;
    const JsonValue* statement = p.Find("statement");
    if (statement == nullptr || !statement->is_string()) continue;
    Aggregate& agg = by_statement[statement->string];
    agg.statement = statement->string;
    ++agg.count;
    const double ms = NumberOr(p.Find("latency_ms"), 0.0);
    agg.total_ms += ms;
    agg.max_ms = std::max(agg.max_ms, ms);
    agg.execute_ms += NumberOr(p.Find("execute_ms"), 0.0);
    agg.rows_scanned += static_cast<unsigned long long>(
        NumberOr(p.Find("exec_rows_scanned"), 0.0));
    if (const JsonValue* ok = p.Find("ok");
        ok != nullptr && ok->kind == JsonValue::Kind::kBool && !ok->boolean) {
      ++agg.errors;
    }
    if (const JsonValue* tier = p.Find("cache_tier");
        tier != nullptr && tier->is_string()) {
      if (tier->string == "tier2") ++agg.tier2;
      else if (tier->string == "tier1") ++agg.tier1;
      else if (tier->string == "miss") ++agg.miss;
    }
  }

  std::vector<Aggregate> rows;
  rows.reserve(by_statement.size());
  for (auto& [_, agg] : by_statement) rows.push_back(std::move(agg));
  std::sort(rows.begin(), rows.end(), [&](const Aggregate& a,
                                          const Aggregate& b) {
    if (by == "max") return a.max_ms > b.max_ms;
    if (by == "mean") return a.mean_ms() > b.mean_ms();
    if (by == "count") return a.count > b.count;
    return a.total_ms > b.total_ms;
  });

  std::printf("\n%zu distinct statements, sorted by %s\n", rows.size(),
              by.c_str());
  std::printf("%10s %8s %9s %9s %6s %6s %5s %5s %10s  %s\n", "total_ms",
              "count", "mean_ms", "max_ms", "tier2", "tier1", "miss", "err",
              "rows_scan", "statement");
  long long shown = 0;
  for (const Aggregate& agg : rows) {
    if (shown++ >= limit) break;
    std::printf("%10.3f %8lld %9.3f %9.3f %6lld %6lld %5lld %5lld %10llu  %s\n",
                agg.total_ms, agg.count, agg.mean_ms(), agg.max_ms, agg.tier2,
                agg.tier1, agg.miss, agg.errors, agg.rows_scanned,
                Truncate(agg.statement, 72).c_str());
  }
  return 0;
}
