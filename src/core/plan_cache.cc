#include "core/plan_cache.h"

#include <algorithm>
#include <functional>
#include <unordered_set>
#include <utility>

#include "common/strings.h"
#include "sql/printer.h"

namespace sfsql::core {

namespace {

/// Key-space prefixes keep the three entry kinds apart in the shared LRU.
constexpr char kFullPrefix = 'F';
constexpr char kProbePrefix = 'P';
constexpr char kStructurePrefix = 'S';
/// Separates canonical text from signature in structure keys; cannot occur in
/// printed SQL (printer output is printable ASCII).
constexpr char kKeySep = '\x1f';

/// A tier-2 stamp is fresh iff every stamped relation is still at its
/// fill-time epoch. Relations outside the snapshot (catalog shrank — cannot
/// happen today, but cheap to guard) count as stale.
bool StampFresh(const RelationStamp& stamp,
                const std::vector<uint64_t>& current_epochs) {
  for (const auto& [relation, epoch] : stamp) {
    if (relation < 0 ||
        static_cast<size_t>(relation) >= current_epochs.size() ||
        current_epochs[static_cast<size_t>(relation)] != epoch) {
      return false;
    }
  }
  return true;
}

std::string MakeKey(char prefix, std::string_view a, std::string_view b = {}) {
  std::string key;
  key.reserve(1 + a.size() + (b.empty() ? 0 : 1 + b.size()));
  key.push_back(prefix);
  key.append(a);
  if (!b.empty()) {
    key.push_back(kKeySep);
    key.append(b);
  }
  return key;
}

/// Collects every query block of `stmt` (outer first, then subqueries in the
/// deterministic expression-walk order, recursively).
void CollectBlocks(sql::SelectStatement& stmt,
                   std::vector<sql::SelectStatement*>* out) {
  out->push_back(&stmt);
  std::vector<sql::SelectStatement*> nested;
  const std::function<void(sql::Expr&)> walk = [&](sql::Expr& e) {
    if (e.lhs) walk(*e.lhs);
    if (e.rhs) walk(*e.rhs);
    for (sql::ExprPtr& a : e.args) walk(*a);
    if (e.subquery) nested.push_back(e.subquery.get());
  };
  sql::ForEachTopLevelExpr(stmt, [&](sql::ExprPtr& e) { walk(*e); });
  for (sql::SelectStatement* sub : nested) CollectBlocks(*sub, out);
}

}  // namespace

std::optional<ProbePlan> BuildProbePlan(const sql::SelectStatement& canonical) {
  // Extraction annotates the statement, so work on a private clone.
  sql::SelectPtr clone = canonical.Clone();
  std::vector<sql::SelectStatement*> blocks;
  CollectBlocks(*clone, &blocks);

  ProbePlan plan;
  std::unordered_set<std::string> seen;
  for (sql::SelectStatement* block : blocks) {
    // No outer bindings: correlated references then extract as additional
    // trees, yielding a superset of the pipeline's conditions (see header).
    Result<Extraction> extraction = ExtractRelationTrees(*block);
    if (!extraction.ok()) return std::nullopt;
    for (const RelationTree& rt : extraction->trees) {
      for (const AttributeTree& at : rt.attributes) {
        for (const Condition& cond : at.conditions) {
          ProbeCondition pc;
          pc.tmpl = cond;
          pc.slots.reserve(cond.values.size());
          for (const storage::Value& v : cond.values) {
            int slot = sql::DecodeSlot(v);
            pc.slots.push_back(slot);
            if (slot >= 0) {
              plan.num_slots =
                  std::max(plan.num_slots, static_cast<size_t>(slot) + 1);
            }
          }
          std::string dedup_key = pc.tmpl.ToString();
          for (int s : pc.slots) dedup_key += StrCat(",", s);
          if (seen.insert(std::move(dedup_key)).second) {
            plan.conditions.push_back(std::move(pc));
          }
        }
      }
    }
  }
  return plan;
}

std::string ComputeProbeSignature(const ProbePlan& plan,
                                  const std::vector<storage::Value>& literals,
                                  const storage::Database& db) {
  std::string sig;
  // Literal part: type tag plus equality-partition representative. Two literal
  // vectors agree here iff tree consolidation sees the same value conflicts
  // and every typed comparison resolves identically.
  for (size_t i = 0; i < literals.size(); ++i) {
    size_t rep = i;
    for (size_t j = 0; j < i; ++j) {
      if (literals[j].type() == literals[i].type() &&
          literals[j].Equals(literals[i])) {
        rep = j;
        break;
      }
    }
    sig += StrCat(static_cast<int>(literals[i].type()), ":", rep, ";");
  }
  sig.push_back('|');

  // Probe part: one bit per (condition, relation, attribute), packed.
  const catalog::Catalog& catalog = db.catalog();
  uint8_t bits = 0;
  int nbits = 0;
  auto flush = [&] {
    sig.push_back(static_cast<char>('A' + (bits & 0x0f)));
    sig.push_back(static_cast<char>('A' + (bits >> 4)));
    bits = 0;
    nbits = 0;
  };
  for (const ProbeCondition& pc : plan.conditions) {
    Condition cond = pc.tmpl;
    for (size_t i = 0; i < pc.slots.size(); ++i) {
      const int slot = pc.slots[i];
      if (slot >= 0 && static_cast<size_t>(slot) < literals.size()) {
        cond.values[i] = literals[slot];
      }
    }
    const storage::ColumnPredicate probe =
        RelationTreeMapper::ProbePredicate(cond);
    for (int r = 0; r < catalog.num_relations(); ++r) {
      const int num_attrs =
          static_cast<int>(catalog.relation(r).attributes.size());
      for (int a = 0; a < num_attrs; ++a) {
        if (db.AnyTupleSatisfies(r, a, probe)) bits |= 1 << nbits;
        if (++nbits == 8) flush();
      }
    }
  }
  if (nbits > 0) flush();
  return sig;
}

std::shared_ptr<const TranslationPlan> BuildTranslationPlan(
    const std::vector<Translation>& translations,
    const std::vector<storage::Value>& literals) {
  auto plan = std::make_shared<TranslationPlan>();
  plan->translations.reserve(translations.size());
  for (const Translation& t : translations) {
    CachedTranslation ct;
    ct.statement = t.statement->Clone();
    ct.sql = t.sql;
    ct.weight = t.weight;
    ct.network = t.network;
    ct.network_text = t.network_text;
    sql::ForEachLiteral(
        static_cast<const sql::SelectStatement&>(*ct.statement),
        [&](const sql::Expr& e) {
          int slot = -1;
          if (!e.literal.is_null()) {
            for (size_t j = 0; j < literals.size(); ++j) {
              if (literals[j].type() == e.literal.type() &&
                  literals[j].Equals(e.literal)) {
                slot = static_cast<int>(j);
                break;
              }
            }
          }
          ct.literal_slots.push_back(slot);
        });
    plan->translations.push_back(std::move(ct));
  }
  return plan;
}

namespace {

/// Clones one cached translation, substituting `literals` into the recorded
/// slots when non-null, and re-printing the SQL when anything could differ.
void Instantiate(const CachedTranslation& ct,
                 const std::vector<storage::Value>* literals,
                 sql::SelectPtr* statement, std::string* sql) {
  *statement = ct.statement->Clone();
  if (literals == nullptr) {
    *sql = ct.sql;
    return;
  }
  size_t li = 0;
  sql::ForEachLiteral(**statement, [&](sql::Expr& e) {
    if (li < ct.literal_slots.size()) {
      const int slot = ct.literal_slots[li];
      if (slot >= 0 && static_cast<size_t>(slot) < literals->size()) {
        e.literal = (*literals)[slot];
      }
    }
    ++li;
  });
  *sql = sql::PrintSelect(**statement);
}

}  // namespace

std::vector<Translation> MaterializePlan(
    const TranslationPlan& plan, const std::vector<storage::Value>* literals) {
  std::vector<Translation> out;
  out.reserve(plan.translations.size());
  for (const CachedTranslation& ct : plan.translations) {
    Translation t;
    Instantiate(ct, literals, &t.statement, &t.sql);
    t.weight = ct.weight;
    t.network = ct.network;
    t.network_text = ct.network_text;
    out.push_back(std::move(t));
  }
  return out;
}

std::shared_ptr<const TranslationPlan> SubstitutePlan(
    const TranslationPlan& plan, const std::vector<storage::Value>& literals) {
  auto out = std::make_shared<TranslationPlan>();
  out->translations.reserve(plan.translations.size());
  for (const CachedTranslation& ct : plan.translations) {
    CachedTranslation nt;
    Instantiate(ct, &literals, &nt.statement, &nt.sql);
    nt.literal_slots = ct.literal_slots;
    nt.weight = ct.weight;
    nt.network = ct.network;
    nt.network_text = ct.network_text;
    out->translations.push_back(std::move(nt));
  }
  return out;
}

PlanCache::PlanCache(size_t capacity, size_t num_shards)
    : capacity_(capacity),
      per_shard_capacity_(
          std::max<size_t>(1, capacity / std::max<size_t>(1, num_shards))),
      shards_(std::max<size_t>(1, num_shards)) {}

PlanCache::Shard& PlanCache::ShardFor(std::string_view key) const {
  return shards_[sql::FingerprintBytes(key) % shards_.size()];
}

std::shared_ptr<const void> PlanCache::Get(
    std::string_view key, const std::vector<uint64_t>* current_epochs,
    std::atomic<uint64_t>* hits, std::atomic<uint64_t>* misses) {
  Shard& shard = ShardFor(key);
  std::shared_ptr<const void> value;
  {
    std::lock_guard<std::mutex> lock(shard.mu);
    auto it = shard.index.find(key);
    if (it != shard.index.end()) {
      if (current_epochs != nullptr &&
          !StampFresh(it->second->second.stamp, *current_epochs)) {
        // Stale tier-2 entry: drop it so the slot is free for the refill.
        shard.lru.erase(it->second);
        shard.index.erase(it);
        stale_evictions_.fetch_add(1, std::memory_order_relaxed);
        entries_.fetch_sub(1, std::memory_order_relaxed);
      } else {
        shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
        value = it->second->second.value;
      }
    }
  }
  if (value != nullptr) {
    if (hits) hits->fetch_add(1, std::memory_order_relaxed);
  } else {
    if (misses) misses->fetch_add(1, std::memory_order_relaxed);
  }
  return value;
}

void PlanCache::Put(std::string_view key, RelationStamp stamp,
                    std::shared_ptr<const void> value) {
  if (capacity_ == 0 || value == nullptr) return;
  Shard& shard = ShardFor(key);
  std::shared_ptr<const void> evicted;  // destroyed outside the lock
  std::lock_guard<std::mutex> lock(shard.mu);
  auto it = shard.index.find(key);
  if (it != shard.index.end()) {
    it->second->second = Entry{std::move(stamp), std::move(value)};
    shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
    return;
  }
  shard.lru.emplace_front(std::string(key),
                          Entry{std::move(stamp), std::move(value)});
  shard.index.emplace(std::string_view(shard.lru.front().first),
                      shard.lru.begin());
  entries_.fetch_add(1, std::memory_order_relaxed);
  if (shard.lru.size() > per_shard_capacity_) {
    evicted = std::move(shard.lru.back().second.value);
    shard.index.erase(std::string_view(shard.lru.back().first));
    shard.lru.pop_back();
    lru_evictions_.fetch_add(1, std::memory_order_relaxed);
    entries_.fetch_sub(1, std::memory_order_relaxed);
  }
}

std::shared_ptr<const void> PlanCache::Peek(
    std::string_view key, const std::vector<uint64_t>* current_epochs) const {
  const Shard& shard = ShardFor(key);
  std::lock_guard<std::mutex> lock(shard.mu);
  auto it = shard.index.find(key);
  if (it == shard.index.end()) return nullptr;
  if (current_epochs != nullptr &&
      !StampFresh(it->second->second.stamp, *current_epochs)) {
    return nullptr;
  }
  return it->second->second.value;
}

std::shared_ptr<const TranslationPlan> PlanCache::GetFull(
    std::string_view statement_key,
    const std::vector<uint64_t>& current_epochs) {
  return std::static_pointer_cast<const TranslationPlan>(
      Get(MakeKey(kFullPrefix, statement_key), &current_epochs, &full_hits_,
          &full_misses_));
}

void PlanCache::PutFull(std::string_view statement_key, RelationStamp stamp,
                        std::shared_ptr<const TranslationPlan> plan) {
  Put(MakeKey(kFullPrefix, statement_key), std::move(stamp), std::move(plan));
}

std::shared_ptr<const ProbePlan> PlanCache::GetProbePlan(
    std::string_view canonical_key) {
  return std::static_pointer_cast<const ProbePlan>(
      Get(MakeKey(kProbePrefix, canonical_key), nullptr, nullptr, nullptr));
}

void PlanCache::PutProbePlan(std::string_view canonical_key,
                             std::shared_ptr<const ProbePlan> plan) {
  Put(MakeKey(kProbePrefix, canonical_key), {}, std::move(plan));
}

std::shared_ptr<const TranslationPlan> PlanCache::GetStructure(
    std::string_view canonical_key, std::string_view signature) {
  return std::static_pointer_cast<const TranslationPlan>(
      Get(MakeKey(kStructurePrefix, canonical_key, signature), nullptr,
          &structure_hits_, &structure_misses_));
}

void PlanCache::PutStructure(std::string_view canonical_key,
                             std::string_view signature,
                             std::shared_ptr<const TranslationPlan> plan) {
  Put(MakeKey(kStructurePrefix, canonical_key, signature), {},
      std::move(plan));
}

std::shared_ptr<const TranslationPlan> PlanCache::PeekFull(
    std::string_view statement_key,
    const std::vector<uint64_t>& current_epochs) const {
  return std::static_pointer_cast<const TranslationPlan>(
      Peek(MakeKey(kFullPrefix, statement_key), &current_epochs));
}

std::shared_ptr<const ProbePlan> PlanCache::PeekProbePlan(
    std::string_view canonical_key) const {
  return std::static_pointer_cast<const ProbePlan>(
      Peek(MakeKey(kProbePrefix, canonical_key), nullptr));
}

void PlanCache::Clear() {
  for (Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mu);
    entries_.fetch_sub(shard.lru.size(), std::memory_order_relaxed);
    shard.index.clear();
    shard.lru.clear();
  }
}

PlanCacheStats PlanCache::stats() const {
  PlanCacheStats s;
  s.full_hits = full_hits_.load(std::memory_order_relaxed);
  s.full_misses = full_misses_.load(std::memory_order_relaxed);
  s.structure_hits = structure_hits_.load(std::memory_order_relaxed);
  s.structure_misses = structure_misses_.load(std::memory_order_relaxed);
  s.stale_evictions = stale_evictions_.load(std::memory_order_relaxed);
  s.lru_evictions = lru_evictions_.load(std::memory_order_relaxed);
  // Lock-free: the entry count is maintained at insert/evict. stats() runs
  // twice per metered translate, so walking the shard mutexes here would put
  // cross-thread contention on the serving hot path.
  s.entries = entries_.load(std::memory_order_relaxed);
  return s;
}

std::vector<PlanCacheEntry> PlanCache::Snapshot() const {
  std::vector<PlanCacheEntry> out;
  for (const Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mu);
    for (const auto& [key, entry] : shard.lru) {
      PlanCacheEntry e;
      const char prefix = key.empty() ? '\0' : key[0];
      e.key = key.substr(1);
      e.stamped_relations = static_cast<long long>(entry.stamp.size());
      switch (prefix) {
        case kFullPrefix:
        case kStructurePrefix: {
          e.kind = prefix == kFullPrefix ? "full" : "structure";
          auto plan = std::static_pointer_cast<const TranslationPlan>(
              entry.value);
          if (plan != nullptr) {
            e.translations = static_cast<long long>(plan->translations.size());
          }
          break;
        }
        case kProbePrefix:
          e.kind = "probe_plan";
          break;
        default:
          e.kind = "unknown";
          break;
      }
      out.push_back(std::move(e));
    }
  }
  return out;
}

}  // namespace sfsql::core
