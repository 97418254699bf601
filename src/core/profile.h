#ifndef SFSQL_CORE_PROFILE_H_
#define SFSQL_CORE_PROFILE_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/translate_stats.h"
#include "exec/executor.h"
#include "obs/json.h"
#include "storage/value.h"

namespace sfsql::core {

/// One query's end-to-end profile record: what the engine did for one
/// Translate or Execute call. Captured always-on into a QueryProfileStore
/// (EngineConfig::profiles) by the engine, its only producer; exported as
/// JSON and queryable through the sys_queries virtual relation
/// (core/introspection).
struct QueryProfile {
  uint64_t id = 0;           ///< global claim order, 1-based (store-assigned)
  uint64_t start_nanos = 0;  ///< clock reading when the call began
  std::string kind;          ///< "translate" | "execute"
  std::string statement;     ///< the schema-free text as submitted
  std::string fingerprint;   ///< canonical-structure hex fingerprint ("" when
                             ///< the call never canonicalized, e.g. tier-2 hits)
  bool ok = true;
  std::string error;       ///< status message when !ok
  std::string cache_tier;  ///< "tier2" | "tier1" | "miss" | "off"
  double latency_seconds = 0.0;  ///< end-to-end (translate + execute)
  long long translations = 0;    ///< ranked candidates returned

  /// The translate pipeline's counters (all zero on tier-2 hits, which skip
  /// the pipeline).
  TranslateStats translate;
  /// What the run phase did (execute only): its counters over every executed
  /// block, the top-level block's access paths, rows returned, wall time.
  exec::ExecInfo exec;

  void WriteJson(obs::JsonWriter& w) const;
};

/// One scalar QueryProfile field: its name and type, and how a profile
/// fills it.
struct ProfileColumn {
  std::string name;
  catalog::ValueType type;
  std::function<storage::Value(const QueryProfile&)> get;
};

/// Every scalar QueryProfile field, in order: the one list the profile JSON
/// and the sys_queries relation (schema and rows) come from. The counter
/// columns derive from kTranslateCounters (timings in ms) and kExecCounters
/// (as exec_<name>).
const std::vector<ProfileColumn>& ProfileColumns();

/// Bounded, sharded ring buffer of QueryProfile records — the always-on
/// profile sink behind EngineConfig::profiles.
///
/// Writers never block and never wait on each other: a writer claims a slot
/// with one relaxed fetch_add on its shard's cursor (shards are picked by the
/// caller's thread, the obs metric-shard assignment, so serving threads
/// rarely share a cursor cache line), takes the slot's try-lock, and moves
/// the record in. The only lock hold is the move itself; if the try-lock is
/// already taken (a reader copying the slot, or a wrapped-around writer), the
/// record is dropped and counted rather than waited for — capture must never
/// add latency to the serving path. Old records are overwritten ring-style;
/// every overwrite and contention skip increments dropped().
///
/// Readers (Snapshot / WriteJson) spin-acquire each slot briefly to copy it;
/// they are expected to be rare (periodic stats snapshots, sys_queries).
class QueryProfileStore {
 public:
  /// `capacity` is the total record bound across all shards (rounded up to a
  /// multiple of `num_shards`).
  explicit QueryProfileStore(size_t capacity = 4096, size_t num_shards = 8);

  QueryProfileStore(const QueryProfileStore&) = delete;
  QueryProfileStore& operator=(const QueryProfileStore&) = delete;

  /// Stores `profile`, assigning its global id. Wait-free for writers up to
  /// the slot try-lock; never blocks.
  void Record(QueryProfile&& profile);

  /// All currently live records, ascending id order.
  std::vector<QueryProfile> Snapshot() const;

  uint64_t recorded() const { return recorded_.load(std::memory_order_relaxed); }
  /// Records lost: overwritten by ring wrap-around or skipped under slot
  /// contention. The serving bench reports this as profile_ring_dropped.
  uint64_t dropped() const { return dropped_.load(std::memory_order_relaxed); }
  size_t capacity() const { return capacity_; }

  /// {"capacity": .., "recorded": .., "dropped": .., "profiles": [..]}.
  void WriteJson(obs::JsonWriter& w) const;
  std::string ToJson(bool pretty = false) const;

 private:
  struct Slot {
    mutable std::atomic_flag lock = ATOMIC_FLAG_INIT;
    bool filled = false;
    QueryProfile value;
  };
  struct alignas(64) Shard {
    std::atomic<uint64_t> cursor{0};
    std::vector<Slot> slots;
  };

  size_t capacity_;
  size_t num_shards_;
  std::unique_ptr<Shard[]> shards_;
  std::atomic<uint64_t> next_id_{0};
  std::atomic<uint64_t> recorded_{0};
  mutable std::atomic<uint64_t> dropped_{0};
};

}  // namespace sfsql::core

#endif  // SFSQL_CORE_PROFILE_H_
