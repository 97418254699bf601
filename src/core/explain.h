#ifndef SFSQL_CORE_EXPLAIN_H_
#define SFSQL_CORE_EXPLAIN_H_

#include <string>
#include <vector>

#include "core/mtjn_generator.h"
#include "core/translate_stats.h"
#include "exec/access_path.h"

namespace sfsql::core {

/// Provenance of one attribute tree inside one candidate relation: which
/// catalog attribute the argmax of §4.3 bound it to, and at what similarity.
struct ExplainAttribute {
  std::string query_name;  ///< what the user wrote (printed AttributeTree name)
  std::string bound_name;  ///< catalog attribute chosen ("" if none bound)
  double similarity = 0.0;
};

/// One entry of MAP(rt): a candidate relation with its §4.1 similarity and
/// whether the winning (top-1) join network actually used it.
struct ExplainCandidate {
  int relation_id = -1;
  std::string relation_name;
  double similarity = 0.0;  ///< Sim(rt, R)
  bool chosen = false;      ///< used by the best translation's network
  std::vector<ExplainAttribute> attributes;
};

/// One relation tree of the query with its full mapping set, best first.
struct ExplainTree {
  int rt_id = -1;
  std::string tree;  ///< canonical printed form (RelationTree::ToString)
  std::vector<ExplainCandidate> candidates;
};

/// One per-root best-first search of the generator (rank order): the rank
/// score it started from, the pruning bounds bracketing the search, and what
/// it expanded vs pruned.
struct ExplainRootSearch {
  std::string root;  ///< XNode::ToString of the root
  RootSearchTrace search;
};

/// One produced translation, rank order.
struct ExplainResult {
  double weight = 0.0;
  std::string network;  ///< human-readable join network
  std::string sql;
};

/// Full provenance of one Translate call — the translation EXPLAIN mode.
/// Collected by SchemaFreeEngine::TranslateExplained, rendered either as an
/// indented tree for humans (RenderTree) or as JSON for machines (ToJson,
/// golden-tested with an injected FakeClock so timings are reproducible).
struct TranslationExplain {
  std::string query;
  int k = 0;
  bool ok = false;
  std::string error;  ///< status message when !ok

  /// The call's counters: phase wall times, satisfiability and index
  /// deltas, and the generator's merged counters. The
  /// documents below render only the deterministic ones (index build wall
  /// time comes from the steady clock, not the injected one).
  TranslateStats stats;
  double total_seconds = 0.0;

  // Plan-cache provenance (the `cache` block). EXPLAIN calls always bypass
  // the cache, so these describe what a plain Translate of the same statement
  // would have seen, probed read-only (no counters, no LRU promotion).
  bool plan_cache_enabled = false;
  std::string plan_cache_outcome;    ///< "disabled" | "bypass"
  std::string canonical_text;        ///< literal-stripped canonical form
  std::string canonical_fingerprint; ///< 64-bit FNV-1a of the text, hex
  bool plan_cache_tier2_present = false;  ///< exact text + epoch cached
  bool plan_cache_probe_plan_present = false;  ///< structure known to tier 1

  std::vector<ExplainTree> trees;

  // Generator provenance beyond stats.generator: the per-root searches.
  double seed_bound = 0.0;  ///< root-0 kth weight seeded into the other roots
  std::vector<ExplainRootSearch> roots;

  std::vector<ExplainResult> results;

  /// Execution access paths of the top-1 translation, in join (fold) order,
  /// as the executor's planner (exec/access_path) would run it. Empty when
  /// there are no results or the top-1 statement fails to plan.
  std::vector<exec::TableAccessExplain> execution;

  /// Indented tree rendering (what tools/explain_translate prints to
  /// stderr).
  std::string RenderTree() const;

  /// JSON document; `double_precision` is the %g significant-digit count
  /// (golden tests use 6 so deterministic values render identically
  /// everywhere).
  std::string ToJson(bool pretty = true, int double_precision = 12) const;
};

}  // namespace sfsql::core

#endif  // SFSQL_CORE_EXPLAIN_H_
