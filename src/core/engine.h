#ifndef SFSQL_CORE_ENGINE_H_
#define SFSQL_CORE_ENGINE_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/result.h"
#include "core/composer.h"
#include "core/config.h"
#include "core/explain.h"
#include "core/mapper.h"
#include "core/mtjn_generator.h"
#include "core/relation_tree.h"
#include "core/translate_stats.h"
#include "core/view_graph.h"
#include "exec/executor.h"
#include "storage/database.h"

namespace sfsql::core {

/// Pre-resolved metric handles for the translate and execute families
/// (engine.cc); exists only when EngineConfig::metrics is set, so a
/// metrics-off engine carries a null pointer and runs zero instrumentation
/// code.
struct PipelineMetrics;

struct QueryProfile;    // core/profile.h
class PlanCache;        // core/plan_cache.h
struct PlanCacheStats;  // core/plan_cache.h
struct PlanCacheEntry;  // core/plan_cache.h

/// Structural summary of the join network behind a translation; the
/// effectiveness harness compares this against the gold query's join tree.
struct NetworkSummary {
  std::vector<int> relations;  ///< relation ids, sorted (with multiplicity)
  std::vector<int> fk_edges;   ///< FK ids crossed, sorted (with multiplicity)

  bool operator==(const NetworkSummary& other) const = default;
};

/// One candidate interpretation of a schema-free query.
struct Translation {
  sql::SelectPtr statement;  ///< fully specified SQL
  std::string sql;           ///< printed form of `statement`
  double weight = 0.0;       ///< join-network weight (Definition 7, plus
                             ///< mapping factors when enabled)
  NetworkSummary network;
  std::string network_text;  ///< human-readable join network
};

/// The end-to-end Schema-free SQL system (Fig. 3): parser → relation tree
/// mapper → network builder → standard SQL composer, with optional evaluation
/// of the best translation on the in-memory database.
///
/// Typical use:
///   SchemaFreeEngine engine(&db);
///   engine.AddViewFromSql("SELECT ... full SQL from the query log ...");
///   auto translations = engine.Translate(
///       "SELECT count(actor?.name?) WHERE director_name? = 'James Cameron'",
///       /*k=*/10);
///   auto result = engine.Execute("SELECT title? WHERE genre? = 'Drama'");
class SchemaFreeEngine {
 public:
  explicit SchemaFreeEngine(const storage::Database* db,
                            EngineConfig config = {});
  ~SchemaFreeEngine();

  /// Registers a query-log entry: its join tree becomes a view (§5.1, Fig. 5).
  /// Queries over fewer than two relations are ignored (OK is returned).
  Status AddViewFromSql(std::string_view full_sql);

  /// Registers a hand-built view.
  Status AddView(View view);

  void ClearViews();
  const ViewGraph& view_graph() const { return views_; }
  const RelationTreeMapper& mapper() const { return mapper_; }
  /// Lookup/eviction/occupancy counters of the translation plan cache
  /// (all-zero when EngineConfig::plan_cache_enabled is false).
  PlanCacheStats plan_cache_stats() const;
  /// Decoded live plan-cache entries (empty when the cache is disabled);
  /// feeds the sys_plan_cache virtual relation.
  std::vector<PlanCacheEntry> plan_cache_snapshot() const;
  /// The engine's resolved configuration (introspection reads the profile
  /// store and thresholds from here).
  const EngineConfig& config() const { return config_; }
  /// The engine-owned task pool execution morsels run on; null when
  /// execution is serial (max(num_threads, exec_threads) <= 1). Feeds
  /// sys_pool and serve_driver stats.
  const exec::TaskPool* task_pool() const { return pool_.get(); }

  /// Translates a schema-free SELECT into up to `k` full-SQL candidates,
  /// best first. Nested blocks are translated outermost-first (§2.2.5); inner
  /// blocks always take their best interpretation.
  Result<std::vector<Translation>> Translate(std::string_view sfsql,
                                             int k) const;

  /// As above, but additionally fills `*stats` (when non-null) with the phase
  /// timings, the generator's counters, and the probe and index counters of
  /// this call: the `translate` part of the call's QueryProfile.
  Result<std::vector<Translation>> Translate(std::string_view sfsql, int k,
                                             TranslateStats* stats) const;

  /// Translation EXPLAIN mode: as Translate, but additionally collects full
  /// provenance into `*explain` — every relation tree's candidate relations
  /// with similarity scores and attribute bindings (the chosen top-1
  /// candidates marked), the generator's per-root searches with their pruning
  /// bounds and expanded/pruned counts, per-phase wall times, and the ranked
  /// results. On failure the translation error lands in explain->error and
  /// the provenance collected up to the failing phase is kept.
  Result<std::vector<Translation>> TranslateExplained(
      std::string_view sfsql, int k, TranslationExplain* explain) const;

  /// Translates with k = 1 and returns the single best interpretation.
  Result<Translation> TranslateBest(std::string_view sfsql) const;

  /// Translates (top 1) and evaluates on the database.
  Result<exec::QueryResult> Execute(std::string_view sfsql) const;

 private:
  /// Memoized MAP(rt): delegates to mapper_.Map and caches the result keyed by
  /// the tree's canonical printed form (NameRef kinds, conditions and LIKE
  /// escapes all round-trip through ToString, so equal keys imply equal
  /// mappings). Disabled when config_.mapping_cache_capacity == 0.
  MappingSet CachedMap(const RelationTree& rt, QueryNameProfiles& names) const;

  /// Shared body of Translate / TranslateExplained / Execute: plan cache,
  /// parse and outer-block translation. A non-null `record` (the caller's)
  /// receives the call's translate part: timings and counters, statement,
  /// fingerprint, cache tier, outcome and latency; null reads no clock and
  /// counts nothing. A non-null `explain` (which needs a `record`) bypasses
  /// the plan cache and collects full provenance.
  Result<std::vector<Translation>> TranslateImpl(
      std::string_view sfsql, int k, QueryProfile* record,
      TranslationExplain* explain) const;

  /// The one publish path of a finished call record: the metrics registry,
  /// the profile ring (EngineConfig::profiles) and, for an Execute at or over
  /// EngineConfig::slow_execute_threshold_ms, one JSON line to the slow log.
  /// Each sink is skipped when unset.
  void Publish(QueryProfile&& record) const;

  /// Translates one block (and, through TranslateSubqueries, its inner
  /// blocks). `names` holds the call's query-name profiles, shared by every
  /// block and every scorer.
  Result<std::vector<Translation>> TranslateStatement(
      sql::SelectStatement& stmt, const std::vector<std::string>& outer_bindings,
      int k, QueryNameProfiles& names, TranslateStats* stats = nullptr,
      TranslationExplain* explain = nullptr) const;

  /// Merges relation trees that clearly denote the same relation instance:
  /// an unspecified-relation tree is absorbed into a FROM-clause tree whose
  /// top-mapped relation matches (standard SQL scoping of unqualified
  /// columns), and two unspecified trees with the same top-mapped relation
  /// collapse into one (e.g. bare "title?" and "year?" both meaning the one
  /// Movie of the query). Trees whose relation the user *named* are never
  /// touched — Fig. 2's director_name? must stay a second Person. Rewrites the
  /// statement's annotations and recomputes the affected mappings.
  void ConsolidateTrees(sql::SelectStatement& stmt, Extraction& extraction,
                        std::vector<MappingSet>& mappings,
                        QueryNameProfiles& names) const;

  /// Translates every subquery of `stmt` in place (best interpretation),
  /// with `bindings` naming the enclosing blocks' FROM bindings.
  Status TranslateSubqueries(sql::SelectStatement& stmt,
                             const std::vector<std::string>& bindings,
                             QueryNameProfiles& names) const;

  /// Turns the user's partial join path fragments into per-query views over
  /// the top-mapped relations, returning a ViewGraph that also contains all
  /// persistent views.
  ViewGraph ViewsForQuery(const Extraction& extraction,
                          const std::vector<MappingSet>& mappings,
                          QueryNameProfiles& names) const;

  const storage::Database* db_;
  EngineConfig config_;
  /// One task pool per engine (exec/task_pool), shared by every
  /// Execute's morsel loops; sized max(num_threads, exec_threads) - 1
  /// workers, null when that is 0.
  /// Declared before everything that may reference it so it is destroyed
  /// last (after all users are gone).
  std::unique_ptr<exec::TaskPool> pool_;
  /// Runs every Execute and plans EXPLAIN's access paths. Configured once
  /// here; Execute is safe to call concurrently (its counters are atomics).
  /// Declared after pool_, which it borrows.
  mutable exec::Executor executor_;
  /// Null when config_.metrics is null (metrics off). Resolved once at
  /// construction so Publish never touches the registry's lock.
  std::unique_ptr<PipelineMetrics> metrics_;
  RelationTreeMapper mapper_;
  ViewGraph views_;
  /// Memoized MAP(rt) results (see CachedMap). Guarded by map_cache_mu_ so a
  /// const engine stays safe to Translate from several threads. Entries carry
  /// the database epoch at compute time: mapping scores read the stored data
  /// through the satisfiability probes, so a data change invalidates them.
  mutable std::mutex map_cache_mu_;
  mutable std::unordered_map<std::string, std::pair<uint64_t, MappingSet>>
      map_cache_;
  /// Two-tier translation plan cache (null when disabled by config). Cleared
  /// whenever the view set changes — view weights shape every ranked list.
  std::unique_ptr<PlanCache> plan_cache_;
};

}  // namespace sfsql::core

#endif  // SFSQL_CORE_ENGINE_H_
