#include "core/profile.h"

#include <algorithm>
#include <cstdio>
#include <thread>

#include "common/strings.h"

namespace sfsql::core {

const char* CallKindName(CallKind kind) {
  return kind == CallKind::kExecute ? "execute" : "translate";
}

const char* CacheTierName(CacheTier tier) {
  static constexpr const char* kNames[] = {"off", "miss", "tier1", "tier2"};
  return kNames[static_cast<size_t>(tier)];
}

std::string HexFingerprint(uint64_t fp) {
  char buf[20];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(fp));
  return buf;
}

const std::vector<ProfileColumn>& ProfileColumns() {
  using catalog::ValueType;
  using storage::Value;
  using P = QueryProfile;
  static const std::vector<ProfileColumn> columns = [] {
    constexpr ValueType kInt = ValueType::kInt64;
    constexpr ValueType kDouble = ValueType::kDouble;
    constexpr ValueType kString = ValueType::kString;
    auto to_int = [](auto v) { return Value::Int(static_cast<int64_t>(v)); };
    auto ms = [](double seconds) { return Value::Double(seconds * 1e3); };
    auto text = [](const char* name, auto render) {
      return ProfileColumn{name, kString, [=](const P& p) {
                             return Value::String(std::string(render(p)));
                           }};
    };
    // Chunks of the top-level block's planned tables, summed as EXPLAIN
    // shows them.
    auto chunks = [=](const char* name, size_t exec::TableAccessExplain::*f) {
      return ProfileColumn{name, kInt, [=](const P& p) {
                             size_t n = 0;
                             for (const auto& t : p.exec.access_paths) {
                               n += t.*f;
                             }
                             return to_int(n);
                           }};
    };
    std::vector<ProfileColumn> cols = {
        {"id", kInt, [=](const P& p) { return to_int(p.id); }},
        {"start_nanos", kInt,
         [=](const P& p) { return to_int(p.start_nanos); }},
        text("kind", [](const P& p) { return CallKindName(p.kind); }),
        text("statement",
             [](const P& p) { return p.statement ? *p.statement : ""; }),
        text("fingerprint",
             [](const P& p) {
               return p.fingerprint ? HexFingerprint(*p.fingerprint) : "";
             }),
        {"ok", ValueType::kBool, [](const P& p) { return Value::Bool(p.ok); }},
        text("error", [](const P& p) { return p.error; }),
        text("cache_tier",
             [](const P& p) { return CacheTierName(p.cache_tier); }),
        {"latency_ms", kDouble,
         [=](const P& p) { return ms(p.latency_seconds); }},
        {"execute_ms", kDouble, [=](const P& p) { return ms(p.exec.seconds); }},
        {"translations", kInt,
         [=](const P& p) { return to_int(p.translations); }},
        {"rows_returned", kInt,
         [=](const P& p) { return to_int(p.exec.rows_returned); }},
        chunks("chunks_total", &exec::TableAccessExplain::chunks_total),
        chunks("chunks_pruned", &exec::TableAccessExplain::chunks_pruned),
    };
    for (const TranslateCounter& c : kTranslateCounters) {
      const TranslateCounter* counter = &c;
      cols.push_back({c.key, c.is_timing() ? kDouble : kInt,
                      [=](const P& p) {
                        const double v = counter->Value(p.translate);
                        return counter->is_timing() ? ms(v) : to_int(v);
                      }});
    }
    for (const exec::ExecCounter& c : exec::kExecCounters) {
      cols.push_back({StrCat("exec_", c.name), kInt,
                      [=, field = c.field](const P& p) {
                        return to_int(p.exec.stats.*field);
                      }});
    }
    return cols;
  }();
  return columns;
}

void QueryProfile::WriteJson(obs::JsonWriter& w) const {
  w.BeginObject();
  for (const ProfileColumn& c : ProfileColumns()) {
    const storage::Value v = c.get(*this);
    w.Key(c.name);
    if (v.is_int()) {
      w.Int(v.AsInt());
    } else if (v.is_double()) {
      w.Double(v.AsDouble());
    } else if (v.is_bool()) {
      w.Bool(v.AsBool());
    } else {
      w.String(v.AsString());
    }
  }
  if (!exec.access_paths.empty()) {
    w.Key("access_paths");
    w.BeginArray();
    for (const exec::TableAccessExplain& p : exec.access_paths) {
      w.BeginObject();
      w.KV("binding", p.binding);
      w.KV("relation", p.relation);
      w.KV("access", p.access());
      w.KV("table_rows", static_cast<unsigned long long>(p.table_rows));
      w.KV("estimated_rows", static_cast<unsigned long long>(p.estimated_rows));
      w.KV("chunks_total", static_cast<unsigned long long>(p.chunks_total));
      w.KV("chunks_pruned", static_cast<unsigned long long>(p.chunks_pruned));
      w.EndObject();
    }
    w.EndArray();
  }
  w.EndObject();
}

QueryProfileStore::QueryProfileStore(size_t capacity)
    : slots_(std::max<size_t>(capacity, 1)) {}

uint64_t QueryProfileStore::Record(QueryProfile&& profile) {
  const uint64_t id = next_id_.fetch_add(1, std::memory_order_relaxed) + 1;
  profile.id = id;
  Slot& slot = slots_[(id - 1) % slots_.size()];
  if (slot.lock.test_and_set(std::memory_order_acquire)) {
    // Someone is copying (or wrapped onto) this slot right now. Dropping is
    // cheaper than waiting — capture must never stall the serving path.
    skipped_.fetch_add(1, std::memory_order_relaxed);
    return id;
  }
  slot.filled = true;
  slot.value = std::move(profile);
  slot.lock.clear(std::memory_order_release);
  return id;
}

template <typename F>
void QueryProfileStore::ForEachLocked(F f) const {
  for (const Slot& slot : slots_) {
    // Spin-acquire: writers hold the flag only for one move, so this is
    // bounded; a blocked writer meanwhile drops instead of waiting on us.
    while (slot.lock.test_and_set(std::memory_order_acquire)) {
      std::this_thread::yield();
    }
    f(slot);
    slot.lock.clear(std::memory_order_release);
  }
}

uint64_t QueryProfileStore::dropped() const {
  uint64_t live = 0;
  ForEachLocked([&](const Slot& slot) { live += slot.filled; });
  return next_id_.load(std::memory_order_relaxed) - live;
}

std::vector<QueryProfile> QueryProfileStore::Snapshot() const {
  std::vector<QueryProfile> out;
  ForEachLocked([&](const Slot& slot) {
    if (slot.filled) out.push_back(slot.value);
  });
  std::sort(out.begin(), out.end(),
            [](const QueryProfile& a, const QueryProfile& b) {
              return a.id < b.id;
            });
  return out;
}

void QueryProfileStore::WriteJson(obs::JsonWriter& w) const {
  const std::vector<QueryProfile> profiles = Snapshot();
  w.BeginObject();
  w.KV("capacity", static_cast<unsigned long long>(capacity()));
  w.KV("recorded", static_cast<unsigned long long>(recorded()));
  w.KV("dropped", static_cast<unsigned long long>(dropped()));
  w.Key("profiles");
  w.BeginArray();
  for (const QueryProfile& p : profiles) p.WriteJson(w);
  w.EndArray();
  w.EndObject();
}

std::string QueryProfileStore::ToJson(bool pretty) const {
  obs::JsonWriter w(pretty);
  WriteJson(w);
  return w.TakeString();
}

}  // namespace sfsql::core
