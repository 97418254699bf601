#include "core/mtjn_generator.h"

#include <algorithm>
#include <map>
#include <queue>
#include <set>
#include <string>
#include <utility>

#include "obs/clock.h"

namespace sfsql::core {

namespace {

/// Priority-queue entry; `priority` is an upper bound on the weight of every
/// MTJN expandable from `jn` (the potential for Algorithm 2, the construction
/// weight itself for the baselines — both only shrink along expansions).
struct QueueEntry {
  double priority;
  long long seq;  // FIFO tie-break for determinism
  JoinNetwork jn;
};

struct QueueCompare {
  bool operator()(const QueueEntry& a, const QueueEntry& b) const {
    if (a.priority != b.priority) return a.priority < b.priority;
    return a.seq > b.seq;
  }
};

/// Result accumulator: top-k by weight, deduplicated by canonical signature
/// keeping the best construction weight (Definition 7).
class TopKResults {
 public:
  explicit TopKResults(int k) : k_(k) {}

  void Add(const JoinNetwork& jn) {
    std::string sig = jn.CanonicalSignature();
    auto it = by_signature_.find(sig);
    if (it == by_signature_.end()) {
      by_signature_.emplace(std::move(sig), jn);
    } else if (jn.weight() > it->second.weight()) {
      it->second = jn;
    }
  }

  /// Weight of the kth best result, 0 if fewer than k exist yet (k <= 0 means
  /// "no bound": never prune).
  double KthWeight() const {
    if (k_ <= 0 || static_cast<int>(by_signature_.size()) < k_) return 0.0;
    std::vector<double> weights;
    weights.reserve(by_signature_.size());
    for (const auto& [sig, jn] : by_signature_) weights.push_back(jn.weight());
    std::nth_element(weights.begin(), weights.begin() + (k_ - 1), weights.end(),
                     std::greater<double>());
    return weights[k_ - 1];
  }

  std::map<std::string, JoinNetwork>& by_signature() { return by_signature_; }

 private:
  int k_;
  std::map<std::string, JoinNetwork> by_signature_;
};

double Seconds(const obs::Clock& clock, uint64_t since_nanos) {
  return obs::NanosToSeconds(clock.NowNanos() - since_nanos);
}

/// Deterministic result order: weight descending, canonical signature
/// ascending. The signature tie-break keeps equal-weight networks (common —
/// weights are products of a few config constants) in one stable order across
/// runs and platforms.
std::vector<ScoredNetwork> TakeTopK(
    const std::map<std::string, JoinNetwork>& by_signature, int k) {
  std::vector<std::pair<const std::string*, const JoinNetwork*>> items;
  items.reserve(by_signature.size());
  for (const auto& [sig, jn] : by_signature) items.push_back({&sig, &jn});
  std::sort(items.begin(), items.end(), [](const auto& a, const auto& b) {
    if (a.second->weight() != b.second->weight()) {
      return a.second->weight() > b.second->weight();
    }
    return *a.first < *b.first;
  });
  if (k >= 0 && static_cast<int>(items.size()) > k) items.resize(k);
  std::vector<ScoredNetwork> out;
  out.reserve(items.size());
  for (const auto& [sig, jn] : items) {
    out.push_back(ScoredNetwork{*jn, jn->weight()});
  }
  return out;
}

}  // namespace

double MtjnGenerator::PotentialEstimate(const JoinNetwork& jn) const {
  double w = jn.weight();
  uint64_t covered = jn.rt_mask();
  const int total = graph_->num_rts();

  // Candidate nodes of the still-uncovered relation trees, each carrying its
  // best path weight to any anchor seen so far. Anchors only accumulate (the
  // network's own nodes, then each greedily chosen node), so the max is
  // maintained incrementally instead of rescanning every anchor per round —
  // same values, same greedy choices, linear instead of quadratic in anchors.
  struct Candidate {
    int rt;
    int node;
    double best_path;  // max over anchors so far (no mapping factor)
  };
  std::vector<Candidate> candidates;
  for (int rt = 0; rt < total; ++rt) {
    if (covered & (1ull << rt)) continue;
    for (int u : graph_->NodesOfRt(rt)) {
      double d = 0.0;
      for (const JnNode& n : jn.nodes()) {
        d = std::max(d, graph_->PathWeight(u, n.xnode));
      }
      candidates.push_back(Candidate{rt, u, d});
    }
  }

  while (true) {
    double best = 0.0;
    int best_rt = -1;
    int best_node = -1;
    for (const Candidate& c : candidates) {
      if (covered & (1ull << c.rt)) continue;
      double d = c.best_path;
      if (config_.use_mapping_scores) d *= graph_->node(c.node).mapping_factor;
      if (d > best) {
        best = d;
        best_rt = c.rt;
        best_node = c.node;
      }
    }
    if (best_rt < 0) break;  // all covered
    if (best == 0.0) return 0.0;  // some relation tree is unreachable
    w *= best;
    covered |= 1ull << best_rt;
    for (Candidate& c : candidates) {
      if (covered & (1ull << c.rt)) continue;
      c.best_path = std::max(c.best_path, graph_->PathWeight(c.node, best_node));
    }
  }
  return w;
}

std::vector<ScoredNetwork> MtjnGenerator::Run(int k, Strategy strategy,
                                              GeneratorStats* stats,
                                              GeneratorTrace* trace) const {
  GeneratorStats local;
  GeneratorStats& st = stats != nullptr ? *stats : local;
  st = GeneratorStats{};
  if (trace != nullptr) *trace = GeneratorTrace{};
  const obs::Clock& clock = *obs::ClockOrSteady(config_.clock);

  if (k == 0 || graph_->num_rts() == 0) return {};

  const bool legality = strategy != Strategy::kRegular;
  const bool pruning = strategy == Strategy::kOurs;

  // Roots: the nodes mapped by the first relation tree (Algorithm 1), ordered
  // by decreasing potential. Every MTJN contains exactly one of them.
  uint64_t rank_start = clock.NowNanos();
  std::vector<std::pair<double, int>> ranked;
  for (int r : graph_->NodesOfRt(0)) {
    JoinNetwork seed(graph_, r, config_.use_mapping_scores);
    ranked.push_back({PotentialEstimate(seed), r});
  }
  std::sort(ranked.begin(), ranked.end(), std::greater<>());
  st.rank_seconds = Seconds(clock, rank_start);

  // One best-first search per root. Each search only sees its own pruning
  // bound and its own expansion budget, so its outcome depends on nothing but
  // (graph, root, banned set, initial_bound). `banned` holds all
  // better-ranked roots (Algorithm 1 line 5 removes a finished root from the
  // graph). `initial_bound` is a weight known to be no greater than the final
  // global kth weight; anything strictly below it can never enter the top k.
  auto search_root = [&](size_t rank_index, double initial_bound,
                         GeneratorStats& rst, double& final_bound)
      -> std::map<std::string, JoinNetwork> {
    const int root = ranked[rank_index].second;
    std::set<int> banned;
    for (size_t j = 0; j < rank_index; ++j) banned.insert(ranked[j].second);

    TopKResults results(k);
    JoinNetwork seed(graph_, root, config_.use_mapping_scores);
    if (graph_->num_rts() == 1) {
      // A single relation tree: the seed itself is the MTJN.
      ++rst.emitted;
      results.Add(seed);
      final_bound = std::max(initial_bound, results.KthWeight());
      return std::move(results.by_signature());
    }

    auto contains_banned_new = [&](const JoinNetwork& before,
                                   const JoinNetwork& after) {
      for (int t = before.size(); t < after.size(); ++t) {
        if (banned.count(after.node(t).xnode) > 0) return true;
      }
      return false;
    };

    long long seq = 0;
    std::priority_queue<QueueEntry, std::vector<QueueEntry>, QueueCompare> queue;
    queue.push(QueueEntry{pruning ? ranked[rank_index].first : seed.weight(),
                          seq++, std::move(seed)});
    ++rst.pushed;

    while (!queue.empty()) {
      if (rst.expansions > config_.max_expansions) {
        rst.truncated = true;
        break;
      }
      QueueEntry entry = queue.top();
      queue.pop();
      ++rst.popped;
      // The priority upper-bounds every descendant: once it falls *strictly*
      // below the pruning bound, neither it nor anything left in the queue
      // can reach the top k. (Strictly: an equal-weight network may still
      // belong to the top k under the signature tie-break.)
      double bound = std::max(initial_bound, results.KthWeight());
      if (bound > 0.0 && entry.priority < bound) break;
      const JoinNetwork& jn = entry.jn;

      for (int t = 0; t < jn.size(); ++t) {
        if (legality && !jn.IsRightmost(t)) continue;
        int xnode = jn.node(t).xnode;

        auto consider = [&](std::optional<JoinNetwork> expanded) {
          ++rst.expansions;
          if (!expanded.has_value()) return;
          if (contains_banned_new(jn, *expanded)) return;
          if (expanded->IsTotal()) {
            if (expanded->IsMinimal()) {
              ++rst.emitted;
              results.Add(*expanded);
            }
            return;  // total networks cannot grow into new MTJNs
          }
          if (legality && expanded->HasDeadBareLeaf()) return;  // Example 9
          double priority =
              pruning ? PotentialEstimate(*expanded) : expanded->weight();
          double kth = std::max(initial_bound, results.KthWeight());
          if (pruning && kth > 0.0 && priority < kth) {
            ++rst.pruned;
            return;
          }
          queue.push(QueueEntry{priority, seq++, std::move(*expanded)});
          ++rst.pushed;
        };

        for (int edge_id : graph_->EdgesOf(xnode)) {
          consider(jn.ExpandByEdge(edge_id, t, config_.max_jn_nodes, legality));
        }
        for (int xview_id : graph_->ViewsOf(xnode)) {
          const XView& xv = graph_->xviews()[xview_id];
          for (int pos = 0; pos < static_cast<int>(xv.nodes.size()); ++pos) {
            if (xv.nodes[pos] != xnode) continue;
            consider(jn.ExpandByView(xview_id, t, pos, config_.max_jn_nodes,
                                     legality));
          }
        }
      }
    }
    final_bound = std::max(initial_bound, results.KthWeight());
    return std::move(results.by_signature());
  };

  uint64_t search_start = clock.NowNanos();
  std::vector<std::map<std::string, JoinNetwork>> outcomes(ranked.size());
  std::vector<RootSearchTrace> root_traces(ranked.size());

  // The best-ranked root searches first with no outside bound; its kth weight
  // is a floor on the final global kth weight (its results all pool into the
  // merge), so it seeds every later root's pruning bound. The clock reads
  // bracket only each root's search, so per-root times are additive.
  double bound0 = 0.0;
  for (size_t i = 0; i < ranked.size(); ++i) {
    RootSearchTrace& rt = root_traces[i];
    rt.root_xnode = ranked[i].second;
    rt.potential = ranked[i].first;
    rt.initial_bound = bound0;
    rt.start_nanos = clock.NowNanos();
    outcomes[i] = search_root(i, bound0, rt.stats, rt.final_bound);
    rt.end_nanos = clock.NowNanos();
    if (i == 0 && k >= 1 && static_cast<int>(outcomes[0].size()) >= k) {
      std::vector<double> weights;
      weights.reserve(outcomes[0].size());
      for (const auto& [sig, jn] : outcomes[0]) weights.push_back(jn.weight());
      std::nth_element(weights.begin(), weights.begin() + (k - 1),
                       weights.end(), std::greater<double>());
      bound0 = weights[k - 1];
    }
  }

  // Merge per-root results in rank order: canonical-signature dedup keeping
  // the best construction weight, exactly as a shared accumulator would.
  std::map<std::string, JoinNetwork> merged;
  for (size_t i = 0; i < ranked.size(); ++i) {
    const GeneratorStats& rst = root_traces[i].stats;
    st.pushed += rst.pushed;
    st.popped += rst.popped;
    st.expansions += rst.expansions;
    st.pruned += rst.pruned;
    st.emitted += rst.emitted;
    st.truncated = st.truncated || rst.truncated;
    const double root_secs = root_traces[i].seconds();
    st.root_seconds_sum += root_secs;
    st.root_seconds_max = std::max(st.root_seconds_max, root_secs);
    for (auto& [sig, jn] : outcomes[i]) {
      auto it = merged.find(sig);
      if (it == merged.end()) {
        merged.emplace(sig, std::move(jn));
      } else if (jn.weight() > it->second.weight()) {
        it->second = std::move(jn);
      }
    }
  }
  st.roots = static_cast<int>(ranked.size());
  st.search_seconds = Seconds(clock, search_start);
  if (trace != nullptr) {
    trace->seed_bound = bound0;
    trace->roots = std::move(root_traces);
  }
  return TakeTopK(merged, k);
}

std::vector<ScoredNetwork> MtjnGenerator::TopK(int k, GeneratorStats* stats,
                                               GeneratorTrace* trace) const {
  return Run(k, Strategy::kOurs, stats, trace);
}

std::vector<ScoredNetwork> MtjnGenerator::TopKRightmost(
    int k, GeneratorStats* stats, GeneratorTrace* trace) const {
  return Run(k, Strategy::kRightmost, stats, trace);
}

std::vector<ScoredNetwork> MtjnGenerator::TopKRegular(
    int k, GeneratorStats* stats, GeneratorTrace* trace) const {
  return Run(k, Strategy::kRegular, stats, trace);
}

std::vector<ScoredNetwork> MtjnGenerator::EnumerateAll(int max_nodes) const {
  // Exhaustive oracle: breadth-first over partial networks, deduplicating
  // *partials* by signature so the walk terminates.
  std::map<std::string, JoinNetwork> mtjns;
  std::set<std::string> seen_partials;
  std::vector<JoinNetwork> frontier;
  if (graph_->num_rts() == 0) return {};
  for (int rt0 : graph_->NodesOfRt(0)) {
    JoinNetwork seed(graph_, rt0, config_.use_mapping_scores);
    if (seed.IsTotal() && seed.IsMinimal()) {
      mtjns.emplace(seed.CanonicalSignature(), seed);
    }
    seen_partials.insert(seed.CanonicalSignature());
    frontier.push_back(std::move(seed));
  }
  while (!frontier.empty()) {
    std::vector<JoinNetwork> next;
    for (const JoinNetwork& jn : frontier) {
      for (int t = 0; t < jn.size(); ++t) {
        int xnode = jn.node(t).xnode;
        auto consider = [&](std::optional<JoinNetwork> expanded) {
          if (!expanded.has_value()) return;
          std::string sig = expanded->CanonicalSignature();
          if (expanded->IsTotal()) {
            if (expanded->IsMinimal()) {
              auto it = mtjns.find(sig);
              if (it == mtjns.end()) {
                mtjns.emplace(sig, *expanded);
              } else if (expanded->weight() > it->second.weight()) {
                it->second = *expanded;
              }
            }
            return;
          }
          if (seen_partials.insert(sig).second) next.push_back(std::move(*expanded));
        };
        for (int edge_id : graph_->EdgesOf(xnode)) {
          consider(jn.ExpandByEdge(edge_id, t, max_nodes, false));
        }
        for (int xview_id : graph_->ViewsOf(xnode)) {
          const XView& xv = graph_->xviews()[xview_id];
          for (int pos = 0; pos < static_cast<int>(xv.nodes.size()); ++pos) {
            if (xv.nodes[pos] != xnode) continue;
            consider(jn.ExpandByView(xview_id, t, pos, max_nodes, false));
          }
        }
      }
    }
    frontier = std::move(next);
  }
  return TakeTopK(mtjns, -1);
}

}  // namespace sfsql::core
