#ifndef SFSQL_CORE_CONFIG_H_
#define SFSQL_CORE_CONFIG_H_

#include <cstddef>
#include <functional>
#include <string>

namespace sfsql::obs {
class Clock;
class MetricsRegistry;
}  // namespace sfsql::obs

namespace sfsql::core {

class QueryProfileStore;  // core/profile.h

/// Tuning parameters of the translator. Defaults are the values the paper's
/// experiments settled on (§7.1): sigma = k_ref = c = 0.7 and k_def = 0.3.
struct SimilarityConfig {
  /// Relative mapping-set threshold: a relation R enters MAP(rt) when
  /// Sim(rt, R) > sigma * max_R' Sim(rt, R') (Definition 1).
  double sigma = 0.7;
  /// Damping applied when a name matches a *neighboring* relation's name
  /// instead of the relation itself (Sim' = k_ref * Sim, §4.2).
  double kref = 0.7;
  /// Default root similarity when the relation name is unspecified (§4.2).
  double kdef = 0.3;
  /// Default edge weight in the (extended) view graph before enhancement (§5.2).
  double c = 0.7;
  /// Default weight for *reference* foreign-key edges — FKs that are plain
  /// attributes rather than part of the owning relation's primary key (e.g.
  /// Person.birth_country_id). Junction-table edges (Actor.person_id) encode
  /// the relationships queries ask about; reference edges mostly encode
  /// attributes-of, and leaving both at `c` lets low-degree "hub" relations
  /// (Country, Language) short-circuit join networks. The paper notes that
  /// careful per-edge weighting is out of its scope (§5.2); this is the
  /// minimal such refinement, ablated in bench_micro.
  double c_reference = 0.6;
  /// q-gram size for the Jaccard string similarity.
  int qgram = 3;
  /// Attribute-level similarity multiplier when a value condition can never be
  /// satisfied by the attribute's declared type (e.g. a string equality
  /// against an integer column). Keeps such attributes from winning the
  /// attribute binding on name similarity alone.
  double type_mismatch_penalty = 0.3;
};

/// Knobs of the top-k MTJN generators (§6).
struct GeneratorConfig {
  /// Exponent applied to a view's edge-weight product (Definition 5 uses 0.5).
  /// The paper notes that query-log views "should have very high weight" and
  /// leaves the tuning open; 0.5 is too weak for a k-edge view to outrank a
  /// ~k/2-edge wrong shortcut, so we default to 1/3 (a k-edge view weighs
  /// like k/3 plain edges at count 1, less as the pattern recurs). Ablated in bench_ablation.
  double view_weight_exponent = 0.3333;
  /// Hard cap on join-network size (number of relation nodes); plays the role
  /// of the size threshold customary in schema-based keyword search.
  int max_jn_nodes = 12;
  /// Safety cap on expansions *per root-relation search*; a root's search
  /// stops (reporting what it has) if exceeded. Per-root rather than global so
  /// truncation — and with it the result set — does not depend on the order
  /// the roots are searched in. Mostly relevant to the Regular baseline, which
  /// has no isomorphism avoidance and explodes combinatorially.
  long long max_expansions = 5'000'000;
  /// Multiply each rt-mapped node's contribution by its normalized mapping
  /// similarity, so networks that bind relation trees to better-matching
  /// relations outrank structurally identical ones. With exactly specified
  /// names the factor is 1 and the paper's pure edge-weight ranking remains.
  bool use_mapping_scores = true;
  /// Time source for the generator's phase / per-root timings (rank_seconds,
  /// search_seconds, root_seconds_*, GeneratorTrace). Null = steady clock.
  /// Injected (engine copies EngineConfig::clock here) so EXPLAIN golden
  /// tests run on a deterministic fake clock. Timings never influence search
  /// decisions, so the clock cannot perturb results.
  const obs::Clock* clock = nullptr;
};

struct EngineConfig {
  SimilarityConfig sim;
  GeneratorConfig gen;
  /// Number of translations produced by default.
  int k = 10;
  /// Threads of the engine's execution pool (exec/task_pool), which is sized
  /// max(num_threads, exec_threads) - 1 workers. Translation is always
  /// serial. 1 = serial execution (the default).
  int num_threads = 1;
  /// Morsel threads one Execute may use. 0 = inherit num_threads (the
  /// default); 1 = serial execution; N > 1 = up to N-way morsels.
  int exec_threads = 0;
  /// Capacity (entries) of the engine's mapping memo: MAP(rt) keyed by the
  /// relation tree's canonical printed form. Mapping reads the catalog and,
  /// through the condition-satisfiability probes (§4.3), the stored data, so
  /// each entry is stamped with the database epoch it was computed at and a
  /// data change makes it stale; 0 disables the memo. When full the memo is
  /// cleared wholesale — trees repeat across a workload or not at all, so
  /// LRU bookkeeping buys nothing here.
  size_t mapping_cache_capacity = 1 << 12;

  // --- Cross-query translation plan cache (serving; see README) ---

  /// Enables the two-tier translation plan cache. Tier 2 caches the complete
  /// ranked translation list per exact statement text, stamped with the
  /// database's data epoch; tier 1 caches per canonical (literal-stripped)
  /// structure and condition-probe signature, so it survives data changes and
  /// serves the same statement shape with different literal values. Hits are
  /// bit-identical to cache-off translation. EXPLAIN calls always bypass the
  /// cache (they need full provenance); errors are never cached.
  bool plan_cache_enabled = true;
  /// Capacity (entries) shared by both tiers and the per-structure probe
  /// plans; LRU per shard. 0 also disables the cache.
  size_t plan_cache_capacity = 1 << 10;

  // --- Observability (src/obs) ---

  /// Metrics registry the engine publishes every call's QueryProfile into
  /// (translate and execute counters, phase histograms, generator counters,
  /// plan-cache series; see README "Observability" for the full list). Null
  /// disables metrics entirely: no handles are registered and the hot path
  /// runs no instrumentation code. The registry must outlive the engine.
  obs::MetricsRegistry* metrics = nullptr;

  /// Time source for every phase timer and every QueryProfile latency.
  /// Null = std::chrono::steady_clock; tests inject obs::FakeClock for
  /// deterministic timings (also copied into gen.clock at construction).
  const obs::Clock* clock = nullptr;

  /// Destination of the slow log; unset = stderr.
  std::function<void(const std::string&)> slow_log_sink;

  /// Slow log: an Execute whose QueryProfile latency (translate + execute)
  /// reaches this many milliseconds writes that record's one-line JSON
  /// (QueryProfile::WriteJson) to `slow_log_sink`. Translate calls never
  /// log; their records are in the profile ring. <= 0 disables (the
  /// default). ExecConfig's fields of the same names are inert; they remain
  /// only because the frozen perfbench harness still sets them.
  double slow_execute_threshold_ms = 0.0;

  /// Always-on query profile sink: when set, every Translate/Execute call
  /// (not TranslateExplained) records its QueryProfile (statement, cache
  /// tier, phase timings, access paths, rows/chunks counters) into this
  /// bounded ring. Designed to stay within a few percent of serving
  /// throughput (see bench_serving's profiling on/off section); null
  /// disables capture entirely. Must outlive the engine. Queryable as the
  /// sys_queries relation (core/introspection).
  QueryProfileStore* profiles = nullptr;
};

}  // namespace sfsql::core

#endif  // SFSQL_CORE_CONFIG_H_
