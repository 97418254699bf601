#ifndef SFSQL_CORE_PLAN_CACHE_H_
#define SFSQL_CORE_PLAN_CACHE_H_

#include <atomic>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "core/engine.h"
#include "core/mapper.h"
#include "core/relation_tree.h"
#include "sql/canonicalize.h"

namespace sfsql::obs {
class Counter;
class Gauge;
class MetricsRegistry;
}  // namespace sfsql::obs

namespace sfsql::core {

/// Lookup / occupancy counters of the plan cache, cumulative over its
/// lifetime. Each is also a metric series when the cache is metered (see
/// PlanCache).
struct PlanCacheStats {
  uint64_t full_hits = 0;        ///< tier-2 hits (exact statement + epoch)
  uint64_t full_misses = 0;      ///< tier-2 misses (absent or stale epoch)
  uint64_t structure_hits = 0;   ///< tier-1 hits (canonical form + signature)
  uint64_t structure_misses = 0; ///< tier-1 misses
  uint64_t stale_evictions = 0;  ///< tier-2 entries dropped for epoch mismatch
  uint64_t lru_evictions = 0;    ///< entries dropped for capacity
  size_t entries = 0;            ///< current occupancy (all three key spaces)
};

/// One ranked translation in cached form: the composed statement plus the
/// slot each of its literals came from (-1 = structural, kept verbatim), so a
/// structure (tier-1) hit can substitute a different query's literal values
/// and re-print, reproducing what the full pipeline would have composed.
struct CachedTranslation {
  sql::SelectPtr statement;
  std::string sql;  ///< printed form with the fill-time literals (tier-2 path)
  /// Parallel to the ForEachLiteral walk of `statement`.
  std::vector<int> literal_slots;
  double weight = 0.0;
  NetworkSummary network;
  std::string network_text;
};

/// A complete ranked translation list for one (statement, k). Immutable once
/// published; shared_ptr lets lookups escape the shard lock before cloning.
struct TranslationPlan {
  /// The schema-free text the list was built for. A call's QueryProfile
  /// points here instead of copying the text.
  std::string statement;
  std::vector<CachedTranslation> translations;
};

/// One value condition of the canonical statement with its literal slots:
/// values[i] is taken from literal slot slots[i] when slots[i] >= 0, else the
/// canonical (structural) value is used as-is.
struct ProbeCondition {
  Condition tmpl;
  std::vector<int> slots;
};

/// The literal-dependent discriminator of a canonical structure: every value
/// condition the translation pipeline can probe for satisfiability (§4.3),
/// derived once per canonical form. Two structure-equal queries translate
/// bit-identically iff they agree on the literal equality partition and on
/// every probe answer over this plan (see ComputeProbeSignature) — name
/// similarities, type compatibility, and the view graph depend only on the
/// canonical text, and probe answers are the translation pipeline's only
/// window into the stored data.
struct ProbePlan {
  std::vector<ProbeCondition> conditions;
  size_t num_slots = 0;
};

/// Derives the probe plan from a canonical statement: extracts the relation
/// trees of every query block (outer and all nested subqueries, walk order)
/// and collects their conditions, decoding literal slots from the canonical
/// placeholder values. Returns nullopt when any block fails extraction — the
/// structure is then served through tier 2 only.
///
/// The collected condition set is a superset of what the pipeline probes
/// (blocks are extracted without outer-binding context, so correlated
/// references contribute conditions the pipeline later drops); a superset
/// only sharpens the signature, never weakens it.
std::optional<ProbePlan> BuildProbePlan(const sql::SelectStatement& canonical);

/// The literal-dependent signature of one concrete query under `plan`:
///  * the literal type tags and the equality partition of `literals`
///    (which slots hold equal values — this decides tree consolidation), and
///  * the answer bit of every (relation, attribute, condition) probe, in plan
///    × catalog order: the condition's RelationTreeMapper::ProbePredicate,
///    built once, answered by Database::AnyTupleSatisfies per column.
std::string ComputeProbeSignature(const ProbePlan& plan,
                                  const std::vector<storage::Value>& literals,
                                  const storage::Database& db);

/// Builds the cacheable form of `statement`'s ranked translation list:
/// statements are deep-cloned and each literal is matched back to the query
/// literal slot it was copied from (by type and value; -1 when structural).
std::shared_ptr<const TranslationPlan> BuildTranslationPlan(
    std::string_view statement, const std::vector<Translation>& translations,
    const std::vector<storage::Value>& literals);

/// Instantiates a cached plan: clones every statement and, when `literals` is
/// non-null, substitutes them into the recorded slots and re-prints the SQL
/// (tier-1 path); with null `literals` the fill-time SQL strings are reused
/// verbatim (tier-2 path).
std::vector<Translation> MaterializePlan(
    const TranslationPlan& plan,
    const std::vector<storage::Value>* literals);

/// As MaterializePlan with literals, but returns the substituted list as a new
/// immutable plan for `statement` (used to promote a tier-1 hit into a tier-2
/// entry for the exact statement text).
std::shared_ptr<const TranslationPlan> SubstitutePlan(
    std::string_view statement, const TranslationPlan& plan,
    const std::vector<storage::Value>& literals);

/// Per-relation epoch stamp of a tier-2 entry: (relation id, relation epoch
/// observed while the entry was computed), sorted by relation id. An entry is
/// stamped with exactly the relations its translations read, so writes to
/// unrelated tables never invalidate it. An empty stamp means the entry is
/// epoch-exempt (tier-1 / probe-plan keys, where staleness is impossible by
/// construction).
using RelationStamp = std::vector<std::pair<int, uint64_t>>;

/// One live plan-cache entry, decoded for introspection (the sys_plan_cache
/// virtual relation). `key` is the entry's key with the internal kind prefix
/// stripped: "k:statement" for full entries, "k:canonical[<sep>signature]"
/// for structure / probe-plan entries.
struct PlanCacheEntry {
  std::string kind;  ///< "full" | "structure" | "probe_plan"
  std::string key;
  long long translations = 0;       ///< ranked list length (0 for probe plans)
  long long stamped_relations = 0;  ///< tier-2 per-relation epoch stamp size
};

/// Two-tier, thread-safe, sharded-LRU translation plan cache.
///
/// Tier 2 ("full") keys on the exact statement text (plus k) and is stamped
/// with the per-relation epochs of the relations its translations read,
/// observed while the entry was computed: a data change to any of *those*
/// relations invalidates it on the next lookup, while writes to unrelated
/// relations leave it servable. Tier 1 ("structure") keys on the
/// literal-stripped canonical form (plus k) and the probe signature; its
/// entries survive data changes because the signature is recomputed against
/// live data on every lookup. A third key space holds the per-canonical-form
/// probe plans. All three share one capacity and LRU policy; shards are
/// selected by key hash so concurrent serving threads rarely contend.
///
/// View-graph changes are not versioned here — the owning engine clears the
/// cache when its views change (AddView / ClearViews).
///
/// With a metrics registry, every counter of PlanCacheStats is also written,
/// where it changes, to its series: sfsql_plan_cache_lookups_total{tier,
/// result}, sfsql_plan_cache_evictions_total{reason} and the
/// sfsql_plan_cache_entries gauge.
class PlanCache {
 public:
  /// `capacity` bounds the total entry count across the three key spaces;
  /// 0 disables storage (every lookup misses, puts are dropped). Null
  /// `metrics` leaves the cache unmetered.
  explicit PlanCache(size_t capacity, obs::MetricsRegistry* metrics = nullptr,
                     size_t num_shards = 8);

  PlanCache(const PlanCache&) = delete;
  PlanCache& operator=(const PlanCache&) = delete;

  // --- Tier 2: exact statement + per-relation epoch stamp ---
  /// `current_epochs` is the live per-relation epoch vector
  /// (Database::RelationEpochs()); a hit requires every stamped relation to
  /// still be at its fill-time epoch, otherwise the entry is dropped as stale.
  std::shared_ptr<const TranslationPlan> GetFull(
      std::string_view statement_key,
      const std::vector<uint64_t>& current_epochs);
  void PutFull(std::string_view statement_key, RelationStamp stamp,
               std::shared_ptr<const TranslationPlan> plan);

  // --- Tier 1: canonical structure ---
  std::shared_ptr<const ProbePlan> GetProbePlan(std::string_view canonical_key);
  void PutProbePlan(std::string_view canonical_key,
                    std::shared_ptr<const ProbePlan> plan);
  std::shared_ptr<const TranslationPlan> GetStructure(
      std::string_view canonical_key, std::string_view signature);
  void PutStructure(std::string_view canonical_key, std::string_view signature,
                    std::shared_ptr<const TranslationPlan> plan);

  /// Read-only probes for EXPLAIN: no counters, no LRU promotion, and no
  /// stale-entry eviction.
  std::shared_ptr<const TranslationPlan> PeekFull(
      std::string_view statement_key,
      const std::vector<uint64_t>& current_epochs) const;
  std::shared_ptr<const ProbePlan> PeekProbePlan(
      std::string_view canonical_key) const;

  void Clear();

  size_t capacity() const { return capacity_; }
  PlanCacheStats stats() const;

  /// Decoded copies of every live entry, shard by shard (each shard is
  /// internally consistent; the whole snapshot is not atomic across shards).
  /// MRU first within a shard. No counters and no LRU promotion.
  std::vector<PlanCacheEntry> Snapshot() const;

 private:
  /// Entries carry the tier-2 relation stamp (empty for tier-1 / probe-plan
  /// keys, where staleness is impossible by construction).
  struct Entry {
    RelationStamp stamp;
    std::shared_ptr<const void> value;
  };
  struct Shard {
    mutable std::mutex mu;
    /// Front = most recently used; pairs of (key, entry).
    std::list<std::pair<std::string, Entry>> lru;
    std::unordered_map<std::string_view,
                       std::list<std::pair<std::string, Entry>>::iterator>
        index;  ///< views into the list-owned key strings
  };

  /// One cumulative counter and, when metered, its metric series.
  struct Tally {
    std::atomic<uint64_t> count{0};
    obs::Counter* metric = nullptr;
    void Add();
    uint64_t value() const { return count.load(std::memory_order_relaxed); }
  };

  Shard& ShardFor(std::string_view key) const;
  /// Shared lookup: returns the entry's value on a hit (promoting it), null
  /// otherwise. `current_epochs` non-null enforces the tier-2 stamp.
  std::shared_ptr<const void> Get(std::string_view key,
                                  const std::vector<uint64_t>* current_epochs,
                                  Tally* hits, Tally* misses);
  void Put(std::string_view key, RelationStamp stamp,
           std::shared_ptr<const void> value);
  std::shared_ptr<const void> Peek(
      std::string_view key,
      const std::vector<uint64_t>* current_epochs) const;

  size_t capacity_;
  size_t per_shard_capacity_;
  mutable std::vector<Shard> shards_;
  Tally full_hits_;
  Tally full_misses_;
  Tally structure_hits_;
  Tally structure_misses_;
  Tally stale_evictions_;
  Tally lru_evictions_;
  /// Live entry count across all shards, maintained at insert/evict so
  /// stats() never touches a shard mutex.
  std::atomic<size_t> entries_{0};
  obs::Gauge* entries_metric_ = nullptr;
  /// Adds `delta` to entries_ and mirrors the count into entries_metric_.
  void AddEntries(long long delta);
};

}  // namespace sfsql::core

#endif  // SFSQL_CORE_PLAN_CACHE_H_
