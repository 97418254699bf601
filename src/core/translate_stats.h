#ifndef SFSQL_CORE_TRANSLATE_STATS_H_
#define SFSQL_CORE_TRANSLATE_STATS_H_

#include <cstddef>
#include <iterator>
#include <variant>

#include "core/mtjn_generator.h"
#include "obs/metrics.h"

namespace sfsql::core {

/// Wall-clock phase breakdown and work counters for one Translate call.
/// Phases cover the outermost block; subquery translation (always k = 1) is
/// folded into compose_seconds. Probe and index counters count the call's
/// own work: a Translate runs entirely on its caller's thread, and the column
/// indexes keep a per-thread tally beside their shared totals, so concurrent
/// calls never see each other's probes.
/// kTranslateCounters below is the one definition of every
/// counter here except the plan-cache outcome: metrics, EXPLAIN, query
/// profiles and sys_queries derive from it.
struct TranslateStats {
  double parse_seconds = 0.0;
  double map_seconds = 0.0;       ///< tree extraction + mapping + consolidation
  double graph_seconds = 0.0;     ///< query views + extended view graph build
  double generate_seconds = 0.0;  ///< top-k MTJN generation
  double compose_seconds = 0.0;   ///< SQL composition, subqueries, printing
  long long cache_hits = 0;       ///< always 0; kept as perfbench reads it
  long long cache_misses = 0;     ///< always 0; kept as perfbench reads it
  GeneratorStats generator;       ///< counters/timings from the MTJN generator

  // Condition-satisfiability work of the call (§4.3).
  long long sat_index_probes = 0;   ///< answered by a column index (value + LIKE)
  long long sat_scan_probes = 0;    ///< always 0; kept as perfbench reads it
  long long sat_memo_hits = 0;      ///< always 0; kept as perfbench reads it
  long long sat_memo_misses = 0;    ///< always 0; kept as perfbench reads it
  long long index_builds = 0;       ///< column indexes (re)built during the call
  double index_build_seconds = 0.0; ///< wall time of those builds
  long long like_candidates_verified = 0;  ///< LikeMatch calls surviving the
                                           ///< trigram pre-filter

  // Plan-cache outcome of this call (see README "Serving & plan cache"). At
  // most one of the three is 1; all stay 0 when the cache is disabled or
  // bypassed (EXPLAIN calls).
  long long plan_tier2_hits = 0;  ///< served verbatim: exact text + data epoch
  long long plan_tier1_hits = 0;  ///< served by literal substitution into a
                                  ///< cached structure (probe signature match)
  long long plan_misses = 0;      ///< cache enabled but the pipeline ran
};

/// One TranslateStats counter. `key` names it in query profiles (JSON) and
/// as a sys_queries column; timings are reported there in milliseconds, so
/// their keys end in _ms. The metric is `family`{label_key=label_value} of
/// type `metric`.
struct TranslateCounter {
  const char* key;
  const char* family;
  obs::MetricType metric;
  const char* help;
  std::variant<double TranslateStats::*, long long TranslateStats::*,
               long long GeneratorStats::*>
      field;
  const char* label_key = nullptr;  ///< null: the series has no label
  const char* label_value = nullptr;

  bool is_timing() const { return field.index() == 0; }
  /// A pipeline phase: a histogram observed only when the pipeline ran.
  bool is_phase() const { return metric == obs::MetricType::kHistogram; }
  /// The raw value in `s` (seconds for timings).
  double Value(const TranslateStats& s) const {
    if (auto* f = std::get_if<0>(&field)) return s.**f;
    if (auto* f = std::get_if<1>(&field)) return static_cast<double>(s.**f);
    return static_cast<double>(s.generator.*std::get<2>(field));
  }
};

inline constexpr const char* kPhaseFamily = "sfsql_translate_phase_seconds";
inline constexpr const char* kPhaseHelp = "Per-phase Translate wall time";
inline constexpr const char* kProbeFamily = "sfsql_satisfiability_probes_total";
inline constexpr const char* kProbeHelp =
    "Condition-satisfiability probes by answer path";

inline constexpr TranslateCounter kTranslateCounters[] = {
    {"parse_ms", kPhaseFamily, obs::MetricType::kHistogram, kPhaseHelp,
     &TranslateStats::parse_seconds, "phase", "parse"},
    {"map_ms", kPhaseFamily, obs::MetricType::kHistogram, kPhaseHelp,
     &TranslateStats::map_seconds, "phase", "map"},
    {"graph_ms", kPhaseFamily, obs::MetricType::kHistogram, kPhaseHelp,
     &TranslateStats::graph_seconds, "phase", "graph"},
    {"generate_ms", kPhaseFamily, obs::MetricType::kHistogram, kPhaseHelp,
     &TranslateStats::generate_seconds, "phase", "generate"},
    {"compose_ms", kPhaseFamily, obs::MetricType::kHistogram, kPhaseHelp,
     &TranslateStats::compose_seconds, "phase", "compose"},
    {"gen_pushed", "sfsql_generator_pushed_total", obs::MetricType::kCounter,
     "Partial join networks enqueued", &GeneratorStats::pushed},
    {"gen_popped", "sfsql_generator_popped_total", obs::MetricType::kCounter,
     "Partial join networks expanded", &GeneratorStats::popped},
    {"gen_expansions", "sfsql_generator_expansions_total",
     obs::MetricType::kCounter, "Expansion attempts (edge or view)",
     &GeneratorStats::expansions},
    {"gen_pruned", "sfsql_generator_pruned_total", obs::MetricType::kCounter,
     "Partial join networks dropped by potential pruning",
     &GeneratorStats::pruned},
    {"gen_emitted", "sfsql_generator_emitted_total", obs::MetricType::kCounter,
     "MTJNs reaching a result set (pre-dedup)", &GeneratorStats::emitted},
    {"sat_index_probes", kProbeFamily, obs::MetricType::kCounter, kProbeHelp,
     &TranslateStats::sat_index_probes, "path", "index"},
    {"index_builds", "sfsql_column_index_builds_total",
     obs::MetricType::kCounter, "Per-column satisfiability indexes built",
     &TranslateStats::index_builds},
    {"index_build_ms", "sfsql_column_index_build_seconds_total",
     obs::MetricType::kGauge,
     "Cumulative wall time spent building column indexes",
     &TranslateStats::index_build_seconds},
    {"like_candidates_verified", "sfsql_like_candidates_verified_total",
     obs::MetricType::kCounter,
     "Distinct strings LikeMatch-verified after trigram pre-filtering",
     &TranslateStats::like_candidates_verified},
};
inline constexpr size_t kNumTranslateCounters = std::size(kTranslateCounters);

}  // namespace sfsql::core

#endif  // SFSQL_CORE_TRANSLATE_STATS_H_
