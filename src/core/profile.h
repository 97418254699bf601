#ifndef SFSQL_CORE_PROFILE_H_
#define SFSQL_CORE_PROFILE_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/translate_stats.h"
#include "exec/executor.h"
#include "obs/json.h"
#include "storage/value.h"

namespace sfsql::core {

/// What kind of engine call a QueryProfile records.
enum class CallKind : uint8_t { kTranslate, kExecute };

/// How the translation plan cache served a call: off (disabled, or bypassed
/// for k <= 0), a pipeline run (miss), a literal substitution into a cached
/// structure (tier 1) or the exact statement (tier 2).
enum class CacheTier : uint8_t { kOff, kMiss, kTier1, kTier2 };

/// The rendered names ("translate", "tier2", ...) that sys_queries, the
/// profile JSON and sfsql_top read.
const char* CallKindName(CallKind kind);
const char* CacheTierName(CacheTier tier);
/// A canonical-structure fingerprint as 16 lowercase hex digits.
std::string HexFingerprint(uint64_t fingerprint);

/// The one record of one Translate or Execute call. The engine fills it while
/// the call runs (the translate part first, then Execute adds `exec`) and
/// publishes it once: into the metrics registry, the QueryProfileStore ring
/// (EngineConfig::profiles) and, for a slow Execute, the slow log. Only the
/// error message is a string; every other text field is rendered when the
/// record is read (ProfileColumns), so sys_queries, the profile JSON and
/// sfsql_top see the same text.
struct QueryProfile {
  uint64_t id = 0;           ///< global claim order, 1-based (store-assigned)
  uint64_t start_nanos = 0;  ///< clock reading when the call began
  CallKind kind = CallKind::kTranslate;
  /// The schema-free text as submitted. When the plan cache holds a plan for
  /// it, this points into that plan instead of copying the text (so a record
  /// in the ring keeps its plan alive until the slot is overwritten).
  std::shared_ptr<const std::string> statement;
  /// Canonical-structure fingerprint (absent when the call never
  /// canonicalized, e.g. tier-2 hits); rendered as 16 hex digits.
  std::optional<uint64_t> fingerprint;
  bool ok = true;
  std::string error;  ///< status message when !ok
  CacheTier cache_tier = CacheTier::kOff;
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

/// Bounded ring buffer of QueryProfile records — the always-on profile sink
/// behind EngineConfig::profiles.
///
/// Writers never block and never wait on each other: a writer draws its
/// record's id with one relaxed fetch_add, which also picks its slot
/// ((id - 1) mod capacity), takes the slot's try-lock, and moves the record
/// in. The only lock hold is the move itself; if the try-lock is already
/// taken (a reader copying the slot, or a wrapped-around writer), the record
/// is dropped and counted rather than waited for — capture must never add
/// latency to the serving path. Old records are overwritten ring-style;
/// dropped() counts both.
///
/// Readers (Snapshot / WriteJson / dropped) spin-acquire each slot briefly;
/// they are expected to be rare (periodic stats snapshots, sys_queries).
class QueryProfileStore {
 public:
  /// `capacity` is the record bound (at least 1).
  explicit QueryProfileStore(size_t capacity = 4096);

  QueryProfileStore(const QueryProfileStore&) = delete;
  QueryProfileStore& operator=(const QueryProfileStore&) = delete;

  /// Stores `profile`, assigning and returning its global id. Wait-free for
  /// writers up to the slot try-lock; never blocks.
  uint64_t Record(QueryProfile&& profile);

  /// All currently live records, ascending id order.
  std::vector<QueryProfile> Snapshot() const;

  /// Records stored: Record calls less those skipped under slot contention.
  uint64_t recorded() const {
    return next_id_.load(std::memory_order_relaxed) -
           skipped_.load(std::memory_order_relaxed);
  }
  /// Records lost: overwritten by ring wrap-around or skipped under slot
  /// contention — every Record call whose record is not live. The serving
  /// bench reports this as profile_ring_dropped.
  uint64_t dropped() const;
  size_t capacity() const { return slots_.size(); }

  /// {"capacity": .., "recorded": .., "dropped": .., "profiles": [..]}.
  void WriteJson(obs::JsonWriter& w) const;
  std::string ToJson(bool pretty = false) const;

 private:
  struct Slot {
    mutable std::atomic_flag lock = ATOMIC_FLAG_INIT;
    bool filled = false;
    QueryProfile value;
  };

  /// Calls `f(slot)` for every slot under its lock.
  template <typename F>
  void ForEachLocked(F f) const;

  std::vector<Slot> slots_;
  std::atomic<uint64_t> next_id_{0};
  std::atomic<uint64_t> skipped_{0};  ///< contention skips (rare)
};

}  // namespace sfsql::core

#endif  // SFSQL_CORE_PROFILE_H_
