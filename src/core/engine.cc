#include "core/engine.h"

#include <algorithm>
#include <cstdio>
#include <functional>
#include <iostream>
#include <map>
#include <optional>

#include "common/macros.h"
#include "common/strings.h"
#include "core/plan_cache.h"
#include "core/profile.h"
#include "exec/task_pool.h"
#include "obs/clock.h"
#include "obs/metrics.h"
#include "sql/canonicalize.h"
#include "sql/parser.h"
#include "sql/printer.h"

namespace sfsql::core {

using sql::Expr;
using sql::ExprKind;
using sql::ExprPtr;

/// Handles into the registry's translate families, resolved once at engine
/// construction so the per-query path is pure lock-free atomic writes.
struct PipelineMetrics {
  explicit PipelineMetrics(obs::MetricsRegistry* reg) {
    translate_total =
        reg->GetCounter("sfsql_translate_total", "Translate calls");
    translate_errors = reg->GetCounter("sfsql_translate_errors_total",
                                       "Translate calls that returned an error");
    slow_translations = reg->GetCounter(
        "sfsql_slow_translations_total",
        "Translations exceeding EngineConfig::slow_translate_threshold_ms");
    translate_seconds = reg->GetHistogram(
        "sfsql_translate_seconds", "End-to-end Translate wall time",
        obs::LatencyBuckets());
    for (size_t i = 0; i < kNumTranslateCounters; ++i) {
      const TranslateCounter& c = kTranslateCounters[i];
      obs::Labels labels;
      if (c.label_key != nullptr) {
        labels.push_back({c.label_key, c.label_value});
      }
      switch (c.metric) {
        case obs::MetricType::kCounter:
          counters[i] = reg->GetCounter(c.family, c.help, labels);
          break;
        case obs::MetricType::kGauge:
          gauges[i] = reg->GetGauge(c.family, c.help, labels);
          break;
        case obs::MetricType::kHistogram:
          histograms[i] = reg->GetHistogram(c.family, c.help,
                                            obs::LatencyBuckets(), labels);
          break;
      }
    }
    cache_evictions = reg->GetCounter("sfsql_similarity_cache_evictions_total",
                                      "Similarity-cache evictions");
    cache_entries = reg->GetGauge("sfsql_similarity_cache_entries",
                                  "Similarity-cache occupancy");
    static constexpr const char* kPlanLookupHelp =
        "Plan-cache lookups by tier and result";
    plan_full_hits =
        reg->GetCounter("sfsql_plan_cache_lookups_total", kPlanLookupHelp,
                        obs::Labels{{"tier", "full"}, {"result", "hit"}});
    plan_full_misses =
        reg->GetCounter("sfsql_plan_cache_lookups_total", kPlanLookupHelp,
                        obs::Labels{{"tier", "full"}, {"result", "miss"}});
    plan_structure_hits =
        reg->GetCounter("sfsql_plan_cache_lookups_total", kPlanLookupHelp,
                        obs::Labels{{"tier", "structure"}, {"result", "hit"}});
    plan_structure_misses =
        reg->GetCounter("sfsql_plan_cache_lookups_total", kPlanLookupHelp,
                        obs::Labels{{"tier", "structure"}, {"result", "miss"}});
    static constexpr const char* kPlanEvictionHelp =
        "Plan-cache entries dropped, by reason";
    plan_evictions_lru =
        reg->GetCounter("sfsql_plan_cache_evictions_total", kPlanEvictionHelp,
                        obs::Labels{{"reason", "lru"}});
    plan_evictions_stale =
        reg->GetCounter("sfsql_plan_cache_evictions_total", kPlanEvictionHelp,
                        obs::Labels{{"reason", "stale_epoch"}});
    plan_entries =
        reg->GetGauge("sfsql_plan_cache_entries", "Plan-cache occupancy");
  }

  /// Publishes one call's TranslateStats. Phase histograms describe pipeline
  /// runs only: cache hits skip the phases, and observing their zeros would
  /// distort the distributions and slow the serving hot path.
  void Publish(const TranslateStats& stats, bool pipeline_ran) {
    for (size_t i = 0; i < kNumTranslateCounters; ++i) {
      const double v = kTranslateCounters[i].Value(stats);
      if (counters[i] != nullptr) {
        counters[i]->Increment(static_cast<uint64_t>(v));
      } else if (gauges[i] != nullptr) {
        if (v > 0.0) gauges[i]->Add(v);
      } else if (histograms[i] != nullptr && pipeline_ran) {
        histograms[i]->Observe(v);
      }
    }
  }

  obs::Counter* translate_total;
  obs::Counter* translate_errors;
  obs::Counter* slow_translations;
  obs::Histogram* translate_seconds;
  /// Per-counter handles, parallel to kTranslateCounters (the one matching
  /// the counter's metric type is set).
  obs::Counter* counters[kNumTranslateCounters] = {};
  obs::Gauge* gauges[kNumTranslateCounters] = {};
  obs::Histogram* histograms[kNumTranslateCounters] = {};
  obs::Counter* cache_evictions;
  obs::Gauge* cache_entries;
  obs::Counter* plan_full_hits;
  obs::Counter* plan_full_misses;
  obs::Counter* plan_structure_hits;
  obs::Counter* plan_structure_misses;
  obs::Counter* plan_evictions_lru;
  obs::Counter* plan_evictions_stale;
  obs::Gauge* plan_entries;
};

namespace {

NetworkSummary SummarizeNetwork(const ExtendedViewGraph& graph,
                                const JoinNetwork& network) {
  NetworkSummary out;
  for (const JnNode& n : network.nodes()) {
    out.relations.push_back(graph.node(n.xnode).relation_id);
    if (n.parent >= 0) out.fk_edges.push_back(graph.edge(n.parent_edge).fk_id);
  }
  std::sort(out.relations.begin(), out.relations.end());
  std::sort(out.fk_edges.begin(), out.fk_edges.end());
  return out;
}

/// Builds the tier-2 relation stamp of a cached plan: the union of the
/// relations read by its translations, each paired with its epoch from the
/// `epochs` snapshot. An empty translation list (or a translation with no
/// recorded network) gives no read-set to reason about, so every relation is
/// stamped — a write anywhere then invalidates the entry, which is the
/// pre-per-relation behavior and always safe.
RelationStamp StampForPlan(const TranslationPlan& plan,
                           const std::vector<uint64_t>& epochs) {
  std::vector<char> read(epochs.size(), 0);
  bool stamp_all = plan.translations.empty();
  for (const CachedTranslation& ct : plan.translations) {
    if (ct.network.relations.empty()) stamp_all = true;
    for (int r : ct.network.relations) {
      if (r < 0 || static_cast<size_t>(r) >= read.size()) {
        stamp_all = true;
      } else {
        read[static_cast<size_t>(r)] = 1;
      }
    }
  }
  RelationStamp stamp;
  for (size_t r = 0; r < epochs.size(); ++r) {
    if (stamp_all || read[r]) stamp.emplace_back(static_cast<int>(r), epochs[r]);
  }
  return stamp;
}

std::string HexFingerprint(uint64_t fp) {
  char buf[20];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(fp));
  return buf;
}

/// Walks every expression of a block (not descending into subqueries) and
/// calls `fn` on each subquery hanging off it.
void ForEachSubquery(sql::SelectStatement& stmt,
                     const std::function<void(sql::SelectPtr&)>& fn) {
  std::function<void(Expr&)> walk = [&](Expr& e) {
    if (e.subquery) fn(e.subquery);
    if (e.lhs) walk(*e.lhs);
    if (e.rhs) walk(*e.rhs);
    for (ExprPtr& a : e.args) walk(*a);
  };
  sql::ForEachTopLevelExpr(stmt, [&](ExprPtr& e) { walk(*e); });
}

/// Stopwatch for the TranslateStats phase breakdown; a null stats sink keeps
/// the hot path free of clock syscalls. The clock is injected (null = steady)
/// so EXPLAIN goldens can run on a FakeClock.
class PhaseTimer {
 public:
  PhaseTimer(const obs::Clock* clock, bool enabled)
      : enabled_(enabled), clock_(obs::ClockOrSteady(clock)) {
    if (enabled_) last_ = clock_->NowNanos();
  }

  /// Accumulates the time since the previous Lap (or construction) into *sink.
  void Lap(double* sink) {
    if (!enabled_) return;
    uint64_t now = clock_->NowNanos();
    *sink += obs::NanosToSeconds(now - last_);
    last_ = now;
  }

 private:
  bool enabled_;
  const obs::Clock* clock_;
  uint64_t last_ = 0;
};

/// The engine's configuration with its derived fields filled in: the
/// generator times itself on the engine's clock, and exec_threads = 0
/// inherits num_threads.
EngineConfig ResolveConfig(EngineConfig config) {
  config.gen.clock = config.clock;
  if (config.exec_threads <= 0) {
    config.exec_threads = std::max(config.num_threads, 1);
  }
  return config;
}

/// The engine's one executor configuration: its slow log, clock and thread
/// count, running morsels on the engine's pool.
exec::ExecConfig EngineExecConfig(const EngineConfig& config,
                                  exec::TaskPool* pool) {
  exec::ExecConfig exec_config;
  exec_config.slow_execute_threshold_ms = config.slow_execute_threshold_ms;
  exec_config.slow_log_sink = config.slow_log_sink;
  exec_config.clock = config.clock;
  exec_config.exec_threads = config.exec_threads;
  exec_config.pool = pool;
  return exec_config;
}

}  // namespace

SchemaFreeEngine::SchemaFreeEngine(const storage::Database* db,
                                   EngineConfig config)
    : db_(db),
      config_(ResolveConfig(std::move(config))),
      pool_(std::max(config_.num_threads, config_.exec_threads) > 1
                ? std::make_unique<exec::TaskPool>(static_cast<size_t>(
                      std::max(config_.num_threads, config_.exec_threads) - 1))
                : nullptr),
      executor_(db, EngineExecConfig(config_, pool_.get())),
      metrics_(config_.metrics != nullptr
                   ? std::make_unique<PipelineMetrics>(config_.metrics)
                   : nullptr),
      name_index_(SchemaNames(db->catalog()), config_.sim.qgram),
      sim_cache_(config_.similarity_cache_capacity),
      mapper_(db, config_.sim, &name_index_, &sim_cache_),
      views_(&db->catalog()),
      plan_cache_(config_.plan_cache_enabled && config_.plan_cache_capacity > 0
                      ? std::make_unique<PlanCache>(config_.plan_cache_capacity)
                      : nullptr) {
  executor_.EnableMetrics(config_.metrics, config_.clock);
  if (pool_ != nullptr && config_.metrics != nullptr) {
    pool_->EnableMetrics(config_.metrics);
  }
}

SchemaFreeEngine::~SchemaFreeEngine() = default;

void SchemaFreeEngine::ClearViews() {
  views_.Clear();
  if (plan_cache_ != nullptr) plan_cache_->Clear();
}

PlanCacheStats SchemaFreeEngine::plan_cache_stats() const {
  return plan_cache_ != nullptr ? plan_cache_->stats() : PlanCacheStats{};
}

std::vector<PlanCacheEntry> SchemaFreeEngine::plan_cache_snapshot() const {
  return plan_cache_ != nullptr ? plan_cache_->Snapshot()
                                : std::vector<PlanCacheEntry>{};
}

MappingSet SchemaFreeEngine::CachedMap(const RelationTree& rt) const {
  if (config_.mapping_cache_capacity == 0) return mapper_.Map(rt);
  const std::string key = rt.ToString();
  // Stamp entries with the epoch read *before* mapping: if an insert lands
  // while Map runs, the entry is already stale at birth and the stamp check
  // below rejects it, instead of serving probe answers from a mix of states.
  const uint64_t epoch = db_->epoch();
  {
    std::lock_guard<std::mutex> lock(map_cache_mu_);
    auto it = map_cache_.find(key);
    if (it != map_cache_.end() && it->second.first == epoch) {
      return it->second.second;
    }
  }
  MappingSet ms = mapper_.Map(rt);
  std::lock_guard<std::mutex> lock(map_cache_mu_);
  if (map_cache_.size() >= config_.mapping_cache_capacity) map_cache_.clear();
  map_cache_.insert_or_assign(key, std::make_pair(epoch, ms));
  return ms;
}

std::vector<std::string> SchemaFreeEngine::SchemaNames(
    const catalog::Catalog& catalog) {
  std::vector<std::string> names;
  for (int r = 0; r < catalog.num_relations(); ++r) {
    const catalog::Relation& rel = catalog.relation(r);
    names.push_back(rel.name);
    for (const auto& attr : rel.attributes) names.push_back(attr.name);
  }
  return names;
}

void SchemaFreeEngine::ConsolidateTrees(sql::SelectStatement& stmt,
                                        Extraction& extraction,
                                        std::vector<MappingSet>& mappings) const {
  const int n = static_cast<int>(extraction.trees.size());
  if (n <= 1) return;

  std::vector<int> top(n);
  for (int i = 0; i < n; ++i) top[i] = mappings[i].candidates.front().relation_id;

  // Two trees with *conflicting* equality conditions on the same bound
  // attribute denote different instances (e.g. produce_company? = 'Carthago
  // Films' vs distribute_company? = 'Apollo Films', both binding Company.name)
  // and must stay separate.
  auto conflicting = [&](int i, int j) {
    const RelationMapping& mi = mappings[i].candidates.front();
    const RelationMapping& mj = mappings[j].candidates.front();
    for (size_t a = 0; a < extraction.trees[i].attributes.size(); ++a) {
      for (size_t b = 0; b < extraction.trees[j].attributes.size(); ++b) {
        if (mi.attribute_bindings[a] < 0 ||
            mi.attribute_bindings[a] != mj.attribute_bindings[b]) {
          continue;
        }
        for (const Condition& ca : extraction.trees[i].attributes[a].conditions) {
          if (ca.op != "=" || ca.values.empty()) continue;
          for (const Condition& cb :
               extraction.trees[j].attributes[b].conditions) {
            if (cb.op != "=" || cb.values.empty()) continue;
            if (!ca.values[0].Equals(cb.values[0])) return true;
          }
        }
      }
    }
    return false;
  };

  // target[j] == j means the tree survives; otherwise it merges into target[j]
  // (always a surviving tree, so no chains form).
  std::vector<int> target(n);
  for (int i = 0; i < n; ++i) target[i] = i;
  bool any = false;
  for (int j = 0; j < n; ++j) {
    const RelationTree& tj = extraction.trees[j];
    if (tj.relation.specified() || tj.from_clause) continue;
    int best = -1;
    for (int i = 0; i < n && best < 0; ++i) {
      if (i == j || target[i] != i || top[i] != top[j]) continue;
      if (extraction.trees[i].from_clause && !conflicting(i, j)) best = i;
    }
    for (int i = 0; i < j && best < 0; ++i) {
      if (target[i] != i || top[i] != top[j]) continue;
      const RelationTree& ti = extraction.trees[i];
      if (!ti.relation.specified() && !ti.from_clause && !conflicting(i, j)) {
        best = i;
      }
    }
    if (best >= 0) {
      target[j] = best;
      any = true;
    }
  }
  if (!any) return;

  // Rebuild the tree list and the (rt, at) -> (rt, at) annotation map.
  std::vector<int> new_id(n, -1);
  std::vector<RelationTree> merged;
  std::map<std::pair<int, int>, std::pair<int, int>> remap;
  for (int i = 0; i < n; ++i) {
    if (target[i] != i) continue;
    new_id[i] = static_cast<int>(merged.size());
    merged.push_back(extraction.trees[i]);
    for (int a = 0; a < static_cast<int>(merged.back().attributes.size()); ++a) {
      remap[{i, a}] = {new_id[i], a};
    }
  }
  auto same_attribute = [](const sql::NameRef& a, const sql::NameRef& b) {
    if (a.has_name_hint() && b.has_name_hint()) {
      return EqualsIgnoreCase(a.name, b.name);
    }
    if (a.kind == sql::NameKind::kPlaceholder &&
        b.kind == sql::NameKind::kPlaceholder) {
      return a.name == b.name;
    }
    return false;
  };
  for (int j = 0; j < n; ++j) {
    if (target[j] == j) continue;
    int tgt = new_id[target[j]];
    RelationTree& into = merged[tgt];
    for (int a = 0; a < static_cast<int>(extraction.trees[j].attributes.size());
         ++a) {
      const AttributeTree& at = extraction.trees[j].attributes[a];
      int match = -1;
      for (int m = 0; m < static_cast<int>(into.attributes.size()); ++m) {
        if (same_attribute(into.attributes[m].name, at.name)) {
          match = m;
          break;
        }
      }
      if (match >= 0) {
        for (const Condition& c : at.conditions) {
          into.attributes[match].conditions.push_back(c);
        }
      } else {
        into.attributes.push_back(at);
        match = static_cast<int>(into.attributes.size()) - 1;
      }
      remap[{j, a}] = {tgt, match};
    }
  }
  for (int k = 0; k < static_cast<int>(merged.size()); ++k) merged[k].id = k;

  // Rewrite the statement's annotations (this block only — subqueries are
  // annotated when their own block is translated).
  std::function<void(Expr&)> fix = [&](Expr& e) {
    if (e.kind == ExprKind::kColumnRef && e.rt_id >= 0) {
      auto it = remap.find({e.rt_id, e.at_index});
      if (it != remap.end()) {
        e.rt_id = it->second.first;
        e.at_index = it->second.second;
      }
    }
    if (e.lhs) fix(*e.lhs);
    if (e.rhs) fix(*e.rhs);
    for (ExprPtr& a : e.args) fix(*a);
  };
  sql::ForEachTopLevelExpr(stmt, [&](ExprPtr& e) { fix(*e); });

  for (JoinSpec& spec : extraction.join_specs) {
    if (spec.left_rt >= 0) spec.left_rt = new_id[target[spec.left_rt]];
    if (spec.right_rt >= 0) spec.right_rt = new_id[target[spec.right_rt]];
  }

  extraction.trees = std::move(merged);
  mappings.clear();
  for (const RelationTree& rt : extraction.trees) {
    mappings.push_back(CachedMap(rt));
  }
}

Status SchemaFreeEngine::AddViewFromSql(std::string_view full_sql) {
  Result<View> view = ViewFromSql(db_->catalog(), full_sql);
  if (!view.ok()) {
    // Single-relation queries carry no join information; silently skip them.
    if (view.status().code() == StatusCode::kNotFound) return Status::OK();
    return view.status();
  }
  return AddView(std::move(*view));
}

Status SchemaFreeEngine::AddView(View view) {
  // A new view reshapes the extended view graph and with it every ranked
  // translation list, so the plan cache starts over.
  if (plan_cache_ != nullptr) plan_cache_->Clear();
  return views_.AddView(std::move(view)).status();
}

ViewGraph SchemaFreeEngine::ViewsForQuery(
    const Extraction& extraction, const std::vector<MappingSet>& mappings) const {
  ViewGraph combined = views_;
  if (extraction.join_specs.empty()) return combined;

  // Connected components of the user-specified join fragments over relation
  // trees; each component becomes one view over the trees' top-mapped
  // relations (§5.1: "if the specified join path is not connected, each of its
  // connected parts will be transformed to a view").
  const int n = static_cast<int>(extraction.trees.size());
  std::vector<int> parent(n);
  for (int i = 0; i < n; ++i) parent[i] = i;
  std::function<int(int)> find = [&](int x) {
    while (parent[x] != x) x = parent[x] = parent[parent[x]];
    return x;
  };
  for (const JoinSpec& spec : extraction.join_specs) {
    if (spec.left_rt < 0 || spec.right_rt < 0) continue;
    parent[find(spec.left_rt)] = find(spec.right_rt);
  }

  std::map<int, std::vector<const JoinSpec*>> by_component;
  for (const JoinSpec& spec : extraction.join_specs) {
    if (spec.left_rt < 0 || spec.right_rt < 0) continue;
    by_component[find(spec.left_rt)].push_back(&spec);
  }

  const catalog::Catalog& cat = db_->catalog();
  for (const auto& [component, specs] : by_component) {
    // Positions: the distinct trees of the component, bound to their top
    // mapping candidates.
    std::map<int, int> pos_of_tree;
    View view;
    auto position = [&](int rt) {
      auto it = pos_of_tree.find(rt);
      if (it != pos_of_tree.end()) return it->second;
      int pos = static_cast<int>(view.relations.size());
      pos_of_tree[rt] = pos;
      view.relations.push_back(mappings[rt].candidates.front().relation_id);
      return pos;
    };
    bool valid = true;
    for (const JoinSpec* spec : specs) {
      int pa = position(spec->left_rt);
      int pb = position(spec->right_rt);
      int ra = view.relations[pa];
      int rb = view.relations[pb];
      // Choose the foreign key between ra and rb whose attribute names agree
      // best with what the user wrote.
      int best_fk = -1;
      bool best_a_is_from = true;
      double best_score = -1.0;
      for (int f : cat.EdgesBetween(ra, rb)) {
        const catalog::ForeignKey& fk = cat.foreign_key(f);
        auto attr_name = [&](int rel, int attr) -> const std::string& {
          return cat.relation(rel).attributes[attr].name;
        };
        if (fk.from_relation == ra) {
          double score =
              mapper_.NameSimilarity(spec->left_attr,
                                     attr_name(ra, fk.from_attribute)) +
              mapper_.NameSimilarity(spec->right_attr,
                                     attr_name(rb, fk.to_attribute));
          if (score > best_score) {
            best_score = score;
            best_fk = f;
            best_a_is_from = true;
          }
        }
        if (fk.from_relation == rb) {
          double score =
              mapper_.NameSimilarity(spec->right_attr,
                                     attr_name(rb, fk.from_attribute)) +
              mapper_.NameSimilarity(spec->left_attr,
                                     attr_name(ra, fk.to_attribute));
          if (score > best_score) {
            best_score = score;
            best_fk = f;
            best_a_is_from = false;
          }
        }
      }
      if (best_fk < 0) {
        valid = false;  // the guessed relations are not FK-adjacent
        break;
      }
      if (best_a_is_from) {
        view.edges.push_back(ViewEdge{pa, pb, best_fk});
      } else {
        view.edges.push_back(ViewEdge{pb, pa, best_fk});
      }
    }
    if (!valid) continue;
    // AddView validates tree-ness; fragments with cycles are simply skipped.
    (void)combined.AddView(std::move(view));
  }
  return combined;
}

Status SchemaFreeEngine::TranslateSubqueries(
    sql::SelectStatement& stmt, const std::vector<std::string>& bindings) const {
  // The composed outer block's FROM bindings become visible to inner blocks.
  std::vector<std::string> local = bindings;
  std::map<std::string, int> scope;  // binding -> relation id
  for (const sql::TableRef& ref : stmt.from) {
    local.push_back(ToLower(ref.BindingName()));
    if (ref.relation.exact()) {
      Result<int> rel = db_->catalog().FindRelation(ref.relation.name);
      if (rel.ok()) scope[ToLower(ref.BindingName())] = *rel;
    }
  }

  Status status = Status::OK();
  ForEachSubquery(stmt, [&](sql::SelectPtr& sub) {
    if (!status.ok()) return;
    // Correlated references with vague attributes (outer_alias.attr?) resolve
    // against the already-fixed outer relation before the inner block is
    // translated (§2.2.5: outer context is set when inner blocks run).
    std::function<void(Expr&)> fix = [&](Expr& e) {
      if (e.kind == ExprKind::kColumnRef && e.relation.exact() &&
          e.attribute.kind == sql::NameKind::kVague) {
        auto it = scope.find(ToLower(e.relation.name));
        if (it != scope.end()) {
          const catalog::Relation& rel = db_->catalog().relation(it->second);
          double best = -1.0;
          int best_attr = -1;
          for (int a = 0; a < static_cast<int>(rel.attributes.size()); ++a) {
            double s = mapper_.NameSimilarity(e.attribute, rel.attributes[a].name);
            if (s > best) {
              best = s;
              best_attr = a;
            }
          }
          if (best_attr >= 0) {
            e.attribute = sql::NameRef::Exact(rel.attributes[best_attr].name);
          }
        }
      }
      if (e.lhs) fix(*e.lhs);
      if (e.rhs) fix(*e.rhs);
      for (ExprPtr& a : e.args) fix(*a);
      // Deeper subqueries are fixed when their enclosing block is translated.
    };
    sql::ForEachTopLevelExpr(*sub, [&](ExprPtr& e) { fix(*e); });

    Result<std::vector<Translation>> inner = TranslateStatement(*sub, local, 1);
    if (!inner.ok()) {
      status = inner.status();
      return;
    }
    if (inner->empty()) {
      status = Status::ExecutionError("subquery has no interpretation");
      return;
    }
    sub = std::move(inner->front().statement);
  });
  return status;
}

Result<std::vector<Translation>> SchemaFreeEngine::TranslateStatement(
    sql::SelectStatement& stmt, const std::vector<std::string>& outer_bindings,
    int k, TranslateStats* stats, TranslationExplain* explain) const {
  PhaseTimer timer(config_.clock, stats != nullptr);
  SFSQL_ASSIGN_OR_RETURN(Extraction extraction,
                         ExtractRelationTrees(stmt, outer_bindings));

  if (extraction.trees.empty()) {
    // No schema content in this block (e.g. SELECT 1+1).
    Translation t;
    t.statement = stmt.Clone();
    SFSQL_RETURN_IF_ERROR(TranslateSubqueries(*t.statement, outer_bindings));
    t.sql = sql::PrintSelect(*t.statement);
    t.weight = 1.0;
    std::vector<Translation> out;
    out.push_back(std::move(t));
    return out;
  }

  std::vector<MappingSet> mappings;
  mappings.reserve(extraction.trees.size());
  for (const RelationTree& rt : extraction.trees) {
    MappingSet ms = CachedMap(rt);
    if (ms.candidates.empty()) {
      return Status::NotFound(
          StrCat("no relation matches '", rt.ToString(), "'"));
    }
    mappings.push_back(std::move(ms));
  }

  ConsolidateTrees(stmt, extraction, mappings);
  if (stats != nullptr) timer.Lap(&stats->map_seconds);

  // Mapping provenance (post-consolidation, the trees the generator will
  // see). Attribute similarities are recomputed through the mapper — the
  // scores were just computed, so this hits the similarity cache and costs
  // (and perturbs the cache counters by) only the lookups.
  const catalog::Catalog& cat = db_->catalog();
  if (explain != nullptr) {
    explain->trees.clear();
    for (size_t i = 0; i < extraction.trees.size(); ++i) {
      const RelationTree& rt = extraction.trees[i];
      ExplainTree et;
      et.rt_id = rt.id;
      et.tree = rt.ToString();
      for (const RelationMapping& m : mappings[i].candidates) {
        ExplainCandidate ec;
        ec.relation_id = m.relation_id;
        ec.relation_name = cat.relation(m.relation_id).name;
        ec.similarity = m.similarity;
        for (size_t a = 0; a < rt.attributes.size(); ++a) {
          ExplainAttribute ea;
          ea.query_name = rt.attributes[a].ToString();
          int bound = a < m.attribute_bindings.size() ? m.attribute_bindings[a]
                                                      : -1;
          if (bound >= 0) {
            ea.bound_name = cat.relation(m.relation_id).attributes[bound].name;
          }
          int ignored = -1;
          ea.similarity =
              mapper_.AttributeSimilarity(rt.attributes[a], m.relation_id,
                                          &ignored);
          ec.attributes.push_back(std::move(ea));
        }
        et.candidates.push_back(std::move(ec));
      }
      explain->trees.push_back(std::move(et));
    }
  }

  ViewGraph query_views = ViewsForQuery(extraction, mappings);
  SFSQL_ASSIGN_OR_RETURN(
      ExtendedViewGraph graph,
      ExtendedViewGraph::Build(*db_, query_views, extraction.trees, mappings,
                               mapper_, config_.gen));
  if (stats != nullptr) timer.Lap(&stats->graph_seconds);

  MtjnGenerator generator(&graph, config_.gen);
  GeneratorTrace trace;
  std::vector<ScoredNetwork> networks =
      generator.TopK(k, stats != nullptr ? &stats->generator : nullptr,
                     explain != nullptr ? &trace : nullptr);
  if (stats != nullptr) timer.Lap(&stats->generate_seconds);

  if (explain != nullptr) {
    explain->seed_bound = trace.seed_bound;
    explain->roots.clear();
    for (const RootSearchTrace& rt : trace.roots) {
      explain->roots.push_back({graph.node(rt.root_xnode).ToString(cat), rt});
    }
    // Mark the candidates the best network actually chose: its nodes bind
    // each relation tree to one candidate relation.
    if (!networks.empty()) {
      for (const JnNode& n : networks.front().network.nodes()) {
        const XNode& xn = graph.node(n.xnode);
        if (xn.rt_id < 0) continue;
        for (ExplainTree& et : explain->trees) {
          if (et.rt_id != xn.rt_id) continue;
          for (ExplainCandidate& ecand : et.candidates) {
            if (ecand.relation_id == xn.relation_id) ecand.chosen = true;
          }
        }
      }
    }
  }

  if (networks.empty()) {
    return Status::ExecutionError(
        "no join network connects the query's relation trees");
  }

  SqlComposer composer(&graph, &mappings);
  std::vector<Translation> out;
  for (const ScoredNetwork& scored : networks) {
    Result<sql::SelectPtr> composed =
        composer.Compose(stmt, extraction, scored.network);
    if (!composed.ok()) continue;  // e.g. an attribute tree with no match here
    Translation t;
    t.statement = std::move(*composed);
    Status sub = TranslateSubqueries(*t.statement, outer_bindings);
    if (!sub.ok()) return sub;
    t.sql = sql::PrintSelect(*t.statement);
    t.weight = scored.weight;
    t.network = SummarizeNetwork(graph, scored.network);
    t.network_text = scored.network.ToString();
    out.push_back(std::move(t));
  }
  if (stats != nullptr) timer.Lap(&stats->compose_seconds);
  if (explain != nullptr) {
    explain->results.clear();
    for (const Translation& t : out) {
      explain->results.push_back(
          ExplainResult{t.weight, t.network_text, t.sql});
    }
  }
  if (out.empty()) {
    return Status::ExecutionError("no join network could be composed");
  }
  return out;
}

Result<std::vector<Translation>> SchemaFreeEngine::Translate(
    std::string_view sfsql, int k) const {
  return TranslateImpl(sfsql, k, nullptr, nullptr);
}

Result<std::vector<Translation>> SchemaFreeEngine::Translate(
    std::string_view sfsql, int k, TranslateStats* stats) const {
  return TranslateImpl(sfsql, k, stats, nullptr);
}

Result<std::vector<Translation>> SchemaFreeEngine::TranslateExplained(
    std::string_view sfsql, int k, TranslationExplain* explain) const {
  return TranslateImpl(sfsql, k, nullptr, explain);
}

namespace {

/// Synthesizes the pipeline phase breakdown as a span forest (one "translate"
/// root with the five phases as children, laid out back to back from the
/// call's start). Only pipeline runs get spans — cache hits skip the phases
/// and carry no provenance worth a trace.
std::vector<obs::SpanRecord> PhaseSpans(uint64_t start_nanos,
                                        double total_seconds,
                                        const TranslateStats& stats) {
  std::vector<obs::SpanRecord> spans;
  spans.reserve(6);
  obs::SpanRecord root;
  root.id = 0;
  root.parent = -1;
  root.name = "translate";
  root.start_nanos = start_nanos;
  root.end_nanos = start_nanos + obs::SecondsToNanos(total_seconds);
  spans.push_back(std::move(root));
  uint64_t at = start_nanos;
  for (const TranslateCounter& c : kTranslateCounters) {
    if (!c.is_phase()) continue;
    obs::SpanRecord s;
    s.id = static_cast<int64_t>(spans.size());
    s.parent = 0;
    s.name = c.label_value;
    s.start_nanos = at;
    at += obs::SecondsToNanos(c.Value(stats));
    s.end_nanos = at;
    spans.push_back(std::move(s));
  }
  return spans;
}

}  // namespace

Result<std::vector<Translation>> SchemaFreeEngine::TranslateImpl(
    std::string_view sfsql, int k, TranslateStats* stats,
    TranslationExplain* explain, QueryProfile* profile_out) const {
  // EXPLAIN callers get full pipeline provenance, so the plan cache is
  // bypassed for them (read-only peeks fill the EXPLAIN `cache` block).
  const bool caller_explain = explain != nullptr;
  const bool slow_armed = config_.slow_translate_threshold_ms > 0.0;
  // An armed slow log needs the provenance of *every* call (whether a call is
  // slow is only known at the end); metrics and EXPLAIN both need the stats.
  TranslationExplain slow_explain;
  if (explain == nullptr && slow_armed) explain = &slow_explain;
  // Profile capture needs the stats too (phase timings, sat counters); an
  // EXPLAIN call is tooling, not workload, so it is never profiled.
  const bool profiling = config_.profiles != nullptr && !caller_explain;
  TranslateStats local_stats;
  if (stats == nullptr &&
      (explain != nullptr || metrics_ != nullptr || profiling)) {
    stats = &local_stats;
  }

  if (stats != nullptr) *stats = TranslateStats{};
  if (explain != nullptr) {
    *explain = TranslationExplain{};
    explain->query = std::string(sfsql);
    explain->k = k;
  }

  const bool timing = stats != nullptr;
  const obs::Clock* clock = obs::ClockOrSteady(config_.clock);
  // The similarity and index counters are the calling thread's own tallies:
  // the whole call runs on this thread, so their differences are exactly
  // this call's work. Snapshots are deferred until the tier-2 lookup has
  // missed: a tier-2 hit runs neither the similarity machinery nor
  // satisfiability probes, so its differences are zero by construction.
  text::SimilarityCache::Stats sim_before;
  storage::ColumnIndexStats idx_before;
  PlanCacheStats plan_before;
  bool deep_stats = false;
  const bool plan_metrics = metrics_ != nullptr && plan_cache_ != nullptr;
  const uint64_t start_nanos = timing ? clock->NowNanos() : 0;

  // --- Plan-cache fast path ---
  PlanCache* cache = (plan_cache_ != nullptr && !caller_explain && k > 0)
                         ? plan_cache_.get()
                         : nullptr;
  // The epochs observed before any lookup or probe. Entries are only read and
  // written against this single snapshot; if the data moves mid-call, the call
  // still answers (like a cache-off run racing the insert would) but leaves
  // the cache untouched. epochs0 carries the per-relation stamps: a tier-2
  // entry is servable as long as every relation its translations read is
  // unchanged, regardless of writes elsewhere.
  const uint64_t epoch0 = db_->epoch();
  const std::vector<uint64_t> epochs0 = db_->RelationEpochs();
  std::string full_key;
  int served_tier = 0;  // 2 / 1 / 0 = pipeline ran (or cache off / bypassed)
  Result<std::vector<Translation>> out = std::vector<Translation>{};
  sql::CanonicalQuery canonical;
  bool have_canonical = false;
  std::string canonical_key;
  std::string signature;
  std::shared_ptr<const ProbePlan> probe_plan;

  if (cache != nullptr) {
    full_key = StrCat(k, ':', sfsql);
    if (std::shared_ptr<const TranslationPlan> plan =
            cache->GetFull(full_key, epochs0)) {
      out = MaterializePlan(*plan, nullptr);
      served_tier = 2;
    }
  }

  if (served_tier == 0) {
    if (timing) {
      sim_before = text::SimilarityCache::ThreadStats();
      idx_before = storage::ColumnIndexCounters::ThreadStats();
      deep_stats = true;
    }
    // Taken after GetFull (whose miss increment therefore precedes it; the
    // epilogue compensates) so a tier-2 hit — the dominant serving path —
    // never reads the cache-wide counters other threads are writing.
    if (plan_metrics && cache != nullptr) plan_before = plan_cache_->stats();
    PhaseTimer timer(config_.clock, timing);
    Result<sql::SelectPtr> stmt = sql::ParseSelect(sfsql);
    if (timing) timer.Lap(&stats->parse_seconds);

    if (stmt.ok() && (cache != nullptr || caller_explain)) {
      canonical = sql::Canonicalize(**stmt);
      have_canonical = true;
      canonical_key = StrCat(k, ':', canonical.text);
    }
    if (cache != nullptr && have_canonical) {
      probe_plan = cache->GetProbePlan(canonical_key);
      if (probe_plan != nullptr) {
        signature =
            ComputeProbeSignature(*probe_plan, canonical.literals, *db_);
        if (std::shared_ptr<const TranslationPlan> structure =
                cache->GetStructure(canonical_key, signature)) {
          // Tier-1 hit: substitute this query's literals into the cached
          // structure. Promote the exact text to tier 2 unless the data
          // moved while the signature was being probed.
          std::shared_ptr<const TranslationPlan> full =
              SubstitutePlan(*structure, canonical.literals);
          if (db_->epoch() == epoch0) {
            cache->PutFull(full_key, StampForPlan(*full, epochs0), full);
          }
          out = MaterializePlan(*full, nullptr);
          served_tier = 1;
        }
      }
    }

    if (served_tier == 0) {
      out = stmt.ok() ? TranslateStatement(**stmt, {}, k, stats, explain)
                      : Result<std::vector<Translation>>(stmt.status());
      if (cache != nullptr && out.ok() && have_canonical &&
          db_->epoch() == epoch0) {
        // Fill both tiers. Skipped when the epoch moved during the pipeline —
        // such a run may mix pre- and post-insert probe answers and is not
        // guaranteed valid for any single epoch. Errors are never cached.
        std::shared_ptr<const TranslationPlan> plan =
            BuildTranslationPlan(*out, canonical.literals);
        cache->PutFull(full_key, StampForPlan(*plan, epochs0), plan);
        if (probe_plan == nullptr) {
          if (std::optional<ProbePlan> built =
                  BuildProbePlan(*canonical.statement)) {
            probe_plan = std::make_shared<const ProbePlan>(std::move(*built));
            cache->PutProbePlan(canonical_key, probe_plan);
          }
        }
        if (probe_plan != nullptr) {
          if (signature.empty()) {
            signature =
                ComputeProbeSignature(*probe_plan, canonical.literals, *db_);
          }
          if (db_->epoch() == epoch0) {
            cache->PutStructure(canonical_key, signature, plan);
          }
        }
      }
    }
  }

  if (stats != nullptr && cache != nullptr) {
    stats->plan_tier2_hits = served_tier == 2 ? 1 : 0;
    stats->plan_tier1_hits = served_tier == 1 ? 1 : 0;
    stats->plan_misses = served_tier == 0 ? 1 : 0;
  }

  double total_seconds = 0.0;
  uint64_t evictions_delta = 0;
  if (timing) {
    total_seconds = obs::NanosToSeconds(clock->NowNanos() - start_nanos);
  }
  if (deep_stats) {
    const text::SimilarityCache::Stats sim_after =
        text::SimilarityCache::ThreadStats();
    stats->cache_hits = static_cast<long long>(sim_after.hits - sim_before.hits);
    stats->cache_misses =
        static_cast<long long>(sim_after.misses - sim_before.misses);
    evictions_delta = sim_after.evictions - sim_before.evictions;
    const storage::ColumnIndexStats idx_after =
        storage::ColumnIndexCounters::ThreadStats();
    stats->sat_index_probes =
        static_cast<long long>((idx_after.value_probes + idx_after.like_probes) -
                               (idx_before.value_probes + idx_before.like_probes));
    stats->index_builds =
        static_cast<long long>(idx_after.builds - idx_before.builds);
    stats->index_build_seconds =
        idx_after.build_seconds - idx_before.build_seconds;
    stats->like_candidates_verified =
        static_cast<long long>(idx_after.like_candidates_verified -
                               idx_before.like_candidates_verified);
  }
  if (explain != nullptr) {
    explain->plan_cache_enabled = plan_cache_ != nullptr;
    if (plan_cache_ == nullptr) {
      explain->plan_cache_outcome = "disabled";
    } else if (caller_explain) {
      explain->plan_cache_outcome = "bypass";
    } else {
      explain->plan_cache_outcome = served_tier == 2   ? "tier2_hit"
                                    : served_tier == 1 ? "tier1_hit"
                                                       : "miss";
    }
    if (have_canonical) {
      explain->canonical_text = canonical.text;
      explain->canonical_fingerprint = HexFingerprint(canonical.fingerprint);
      if (plan_cache_ != nullptr && caller_explain) {
        explain->plan_cache_tier2_present =
            plan_cache_->PeekFull(StrCat(k, ':', sfsql), epochs0) != nullptr;
        explain->plan_cache_probe_plan_present =
            plan_cache_->PeekProbePlan(canonical_key) != nullptr;
      }
    }
    explain->ok = out.ok();
    if (!out.ok()) explain->error = out.status().message();
    explain->stats = *stats;
    explain->total_seconds = total_seconds;
  }
  if (caller_explain && out.ok() && !out->empty()) {
    // Execution access paths of the top-1 translation: what the index-aware
    // executor would do with it (plans only — nothing is executed).
    explain->execution = executor_.ExplainAccessPaths(*(*out)[0].statement);
  }

  if (metrics_ != nullptr) {
    PipelineMetrics& m = *metrics_;
    m.translate_total->Increment();
    if (!out.ok()) m.translate_errors->Increment();
    m.translate_seconds->Observe(total_seconds);
    m.Publish(*stats, served_tier == 0);
    m.cache_evictions->Increment(evictions_delta);
    // The gauge only moves when the pipeline ran; hits leave the cache as-is.
    if (deep_stats) {
      m.cache_entries->Set(static_cast<double>(sim_cache_.stats().entries));
    }
    if (plan_metrics) {
      if (served_tier == 2) {
        // A tier-2 hit moves exactly one counter, known locally; diffing the
        // cache-wide stats here would put two reads of contended atomics on
        // the hottest serving path. The entries gauge keeps its last value —
        // a hit cannot change the occupancy.
        m.plan_full_hits->Increment();
      } else if (cache != nullptr) {
        const PlanCacheStats plan_after = plan_cache_->stats();
        m.plan_full_hits->Increment(plan_after.full_hits -
                                    plan_before.full_hits);
        // +1: this call's own GetFull miss landed before the deferred
        // snapshot was taken.
        m.plan_full_misses->Increment(plan_after.full_misses -
                                      plan_before.full_misses + 1);
        m.plan_structure_hits->Increment(plan_after.structure_hits -
                                         plan_before.structure_hits);
        m.plan_structure_misses->Increment(plan_after.structure_misses -
                                           plan_before.structure_misses);
        m.plan_evictions_lru->Increment(plan_after.lru_evictions -
                                        plan_before.lru_evictions);
        m.plan_evictions_stale->Increment(plan_after.stale_evictions -
                                          plan_before.stale_evictions);
        m.plan_entries->Set(static_cast<double>(plan_after.entries));
      }
      // Cache bypassed (EXPLAIN, k <= 0): the call touched no plan state.
    }
  }

  // Cache hits skip the slow log: they carry no pipeline provenance, and a
  // served-from-cache call is never the one worth debugging.
  if (slow_armed && served_tier == 0 &&
      total_seconds * 1e3 >= config_.slow_translate_threshold_ms) {
    if (metrics_ != nullptr) metrics_->slow_translations->Increment();
    std::string dump =
        StrCat("slow translation: ", total_seconds * 1e3, " ms >= ",
               config_.slow_translate_threshold_ms, " ms threshold\n",
               explain->RenderTree());
    if (config_.slow_log_sink) {
      config_.slow_log_sink(dump);
    } else {
      std::cerr << dump;
    }
  }

  if (profiling) {
    QueryProfile prof;
    prof.start_nanos = start_nanos;
    prof.kind = "translate";
    prof.statement = std::string(sfsql);
    if (have_canonical) {
      prof.fingerprint = HexFingerprint(canonical.fingerprint);
    }
    prof.ok = out.ok();
    if (!out.ok()) prof.error = out.status().message();
    prof.cache_tier = cache == nullptr ? "off"
                      : served_tier == 2 ? "tier2"
                      : served_tier == 1 ? "tier1"
                                         : "miss";
    prof.latency_seconds = total_seconds;
    prof.translate = *stats;
    prof.translations = out.ok() ? static_cast<long long>(out->size()) : 0;
    if (served_tier == 0) {
      // Phase spans only for pipeline runs: hits skip the phases, and
      // keeping the hit path span-free is what holds capture under the
      // serving overhead budget.
      prof.spans = PhaseSpans(start_nanos, total_seconds, *stats);
    }
    if (profile_out != nullptr) {
      *profile_out = std::move(prof);
    } else {
      config_.profiles->Record(std::move(prof));
    }
  }
  return out;
}

Result<Translation> SchemaFreeEngine::TranslateBest(
    std::string_view sfsql) const {
  SFSQL_ASSIGN_OR_RETURN(std::vector<Translation> all, Translate(sfsql, 1));
  return std::move(all.front());
}

Result<exec::QueryResult> SchemaFreeEngine::Execute(
    std::string_view sfsql) const {
  const bool profiling = config_.profiles != nullptr;
  QueryProfile prof;
  Result<std::vector<Translation>> translations =
      TranslateImpl(sfsql, 1, nullptr, nullptr, profiling ? &prof : nullptr);
  if (profiling) prof.kind = "execute";
  if (!translations.ok()) {
    if (profiling) config_.profiles->Record(std::move(prof));
    return translations.status();
  }
  Translation best = std::move(translations->front());

  exec::ExecInfo info;
  Result<exec::QueryResult> result =
      executor_.Execute(*best.statement, profiling ? &info : nullptr);

  if (profiling) {
    prof.ok = result.ok();
    if (!result.ok()) prof.error = result.status().message();
    prof.latency_seconds += info.seconds;
    prof.exec = std::move(info);
    config_.profiles->Record(std::move(prof));
  }
  return result;
}

}  // namespace sfsql::core
