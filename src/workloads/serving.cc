#include "workloads/serving.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <random>
#include <thread>

#include "common/strings.h"
#include "sql/canonicalize.h"
#include "sql/parser.h"
#include "sql/printer.h"
#include "workloads/movie43.h"

namespace sfsql::workloads {

namespace {

/// The 53-query movie43 benchmark mix: 17 textbook, 6 sophisticated and 30
/// user-variant queries.
std::vector<std::string> BaseQueries() {
  std::vector<std::string> queries;
  for (const BenchQuery& q : TextbookQueries()) queries.push_back(q.sfsql);
  for (const BenchQuery& q : SophisticatedQueries()) queries.push_back(q.sfsql);
  for (int i = 0; i < 6; ++i) {
    for (const std::string& v : UserVariants(i)) queries.push_back(v);
  }
  return queries;
}

}  // namespace

std::vector<std::string> ServingRequests(int variants_per_query) {
  std::vector<std::string> requests;
  const std::vector<std::string> base = BaseQueries();
  for (size_t qi = 0; qi < base.size(); ++qi) {
    requests.push_back(base[qi]);
    if (variants_per_query <= 1) continue;
    auto stmt = sql::ParseSelect(base[qi]);
    if (!stmt.ok()) continue;
    for (int v = 1; v < variants_per_query; ++v) {
      auto clone = (*stmt)->Clone();
      int slot = 0;
      sql::ForEachLiteral(*clone, [&](sql::Expr& e) {
        // Mirror the canonicalizer: only string/int/double literals are
        // rewritten; bools and NULLs stay structural.
        const long long unique = 900000000LL +
                                 static_cast<long long>(qi) * 100000 +
                                 v * 100 + slot;
        if (e.literal.is_string()) {
          e.literal = storage::Value::String(
              StrCat("zzz_q", qi, "_v", v, "_s", slot));
        } else if (e.literal.is_int()) {
          e.literal = storage::Value::Int(-unique);
        } else if (e.literal.is_double()) {
          e.literal = storage::Value::Double(-static_cast<double>(unique) -
                                             0.25);
        } else {
          return;
        }
        ++slot;
      });
      requests.push_back(sql::PrintSelect(*clone));
    }
  }
  return requests;
}

ZipfSampler::ZipfSampler(size_t n, double s) {
  cdf_.reserve(n);
  double total = 0.0;
  for (size_t i = 0; i < n; ++i) {
    total += 1.0 / std::pow(static_cast<double>(i + 1), s);
    cdf_.push_back(total);
  }
  for (double& c : cdf_) c /= total;
}

size_t ZipfSampler::Sample(double u) const {
  auto it = std::upper_bound(cdf_.begin(), cdf_.end(), u);
  if (it == cdf_.end()) return cdf_.size() - 1;
  return static_cast<size_t>(it - cdf_.begin());
}

ServeResult RunServe(const core::SchemaFreeEngine& engine,
                     const std::vector<std::string>& requests, int threads,
                     long long total_requests, double zipf_s, uint64_t seed,
                     int k) {
  ServeResult out;
  if (requests.empty() || threads <= 0 || total_requests <= 0) return out;
  const ZipfSampler sampler(requests.size(), zipf_s);

  struct Worker {
    long long ok = 0;
    long long errors = 0;
    std::vector<double> latencies;
  };
  std::vector<Worker> workers(threads);
  const long long per_thread = total_requests / threads;
  const long long remainder = total_requests % threads;

  const auto start = std::chrono::steady_clock::now();
  std::vector<std::thread> pool;
  pool.reserve(threads);
  for (int t = 0; t < threads; ++t) {
    pool.emplace_back([&, t] {
      Worker& w = workers[t];
      const long long calls = per_thread + (t < remainder ? 1 : 0);
      w.latencies.reserve(calls);
      std::mt19937_64 rng(seed + static_cast<uint64_t>(t) * 7919);
      std::uniform_real_distribution<double> uniform(0.0, 1.0);
      for (long long i = 0; i < calls; ++i) {
        const std::string& request = requests[sampler.Sample(uniform(rng))];
        const auto t0 = std::chrono::steady_clock::now();
        auto result = engine.Translate(request, k);
        w.latencies.push_back(
            std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                          t0)
                .count());
        if (result.ok()) {
          ++w.ok;
        } else {
          ++w.errors;
        }
      }
    });
  }
  for (std::thread& t : pool) t.join();
  out.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  for (Worker& w : workers) {
    out.ok += w.ok;
    out.errors += w.errors;
    out.latencies_seconds.insert(out.latencies_seconds.end(),
                                 w.latencies.begin(), w.latencies.end());
  }
  return out;
}

}  // namespace sfsql::workloads
