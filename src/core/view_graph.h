#ifndef SFSQL_CORE_VIEW_GRAPH_H_
#define SFSQL_CORE_VIEW_GRAPH_H_

#include <string>
#include <vector>

#include "catalog/catalog.h"
#include "common/result.h"
#include "core/config.h"
#include "core/mapper.h"
#include "core/relation_tree.h"
#include "storage/database.h"

namespace sfsql::core {

/// One join edge inside a view, between two positions of the view's relation
/// list, crossing foreign key `fk_id`.
struct ViewEdge {
  int from_pos = -1;
  int to_pos = -1;
  int fk_id = -1;
};

/// A view: a connected tree of relations with each edge being a join (§5.1).
/// Views come from user-specified join-path fragments and from query logs, and
/// make join networks that reuse them rank higher.
struct View {
  /// Relation ids by position; the same relation may appear at several
  /// positions (e.g. Person twice in the Fig. 5 view).
  std::vector<int> relations;
  std::vector<ViewEdge> edges;  ///< exactly relations.size() - 1 tree edges
  /// How often this join tree occurred in the query log. Registering an
  /// identical tree again increments the count instead of duplicating the
  /// view, and frequent views weigh more (§5.2 suggests weighting views "by
  /// their frequency and other properties").
  int count = 1;
};

/// The view graph G(V, E, VIEW): the schema graph (owned by the catalog)
/// plus a growable set of views.
class ViewGraph {
 public:
  explicit ViewGraph(const catalog::Catalog* catalog) : catalog_(catalog) {}

  /// Validates that `view` is a connected tree whose edges are real foreign
  /// keys between the right relations, then registers it.
  Result<int> AddView(View view);

  void Clear() { views_.clear(); }

  const std::vector<View>& views() const { return views_; }
  const catalog::Catalog& catalog() const { return *catalog_; }

 private:
  const catalog::Catalog* catalog_;
  std::vector<View> views_;
};

/// Extracts a view from a full SQL query (a query-log entry, Fig. 5): the FROM
/// relations become positions and the FK-PK join predicates in WHERE become
/// edges. Fails if the join graph is not a connected tree or references
/// non-FK joins. Queries over fewer than two relations yield no view
/// (kNotFound).
Result<View> ViewFromSql(const catalog::Catalog& catalog, std::string_view sql);

// ---------------------------------------------------------------------------
// Extended view graph (§5.1)
// ---------------------------------------------------------------------------

/// A node of the extended view graph: a relation annotated with the relation
/// tree mapped onto it (rt_id == -1 for the bare R^() copies).
struct XNode {
  int relation_id = -1;
  int rt_id = -1;
  /// Normalized mapping similarity Sim(rt,R)/max(Sim(rt,·)) in (sigma, 1];
  /// 1.0 for bare nodes. Folded into network weights when
  /// GeneratorConfig::use_mapping_scores is set.
  double mapping_factor = 1.0;

  std::string ToString(const catalog::Catalog& catalog) const;
};

/// An undirected edge of the extended view graph, labeled by the foreign key
/// it crosses. `a_is_fk_side` records which endpoint holds the foreign key —
/// needed for the Definition 2 constraint (one FK slot joins one PK copy).
struct XEdge {
  int a = -1;
  int b = -1;
  int fk_id = -1;
  bool a_is_fk_side = true;
  double weight = 0.0;
  bool in_view = false;  ///< true if some instantiated view uses this edge
  /// Smallest view exponent among views containing this edge (1.0 when none);
  /// Algorithm 3's path table uses it so potentials stay overestimates.
  double min_view_exponent = 1.0;

  int other(int node) const { return node == a ? b : a; }
  int fk_side() const { return a_is_fk_side ? a : b; }
};

/// A view instantiated over extended-graph nodes: every assignment of mapped
/// relation trees (and bare copies) to the view's positions yields one XView
/// (Example 6: the Fig. 5 view instantiates once with Person(rt1) on the left
/// and once with Person(rt2)).
struct XView {
  int source_view = -1;
  std::vector<int> nodes;      ///< XNode id per view position
  std::vector<int> edge_ids;   ///< XEdge id per view edge
  double weight = 0.0;         ///< Definition 5: sqrt of the edge-weight product
};

/// The extended view graph GX(VX, EX, VIEWX) for one l-relation-trees query,
/// with §5.2 edge weights and the all-pairs best-path table used by the
/// potential estimation of Algorithm 3.
class ExtendedViewGraph {
 public:
  /// Builds the graph from the query's relation trees and their mapping sets.
  /// `mapper` supplies the name similarities used for edge enhancement, over
  /// the query's name profiles in `names`.
  static Result<ExtendedViewGraph> Build(const storage::Database& db,
                                         const ViewGraph& views,
                                         const std::vector<RelationTree>& trees,
                                         const std::vector<MappingSet>& mappings,
                                         const RelationTreeMapper& mapper,
                                         QueryNameProfiles& names,
                                         const GeneratorConfig& gen_config);

  int num_nodes() const { return static_cast<int>(nodes_.size()); }
  int num_edges() const { return static_cast<int>(edges_.size()); }
  int num_rts() const { return num_rts_; }

  const XNode& node(int id) const { return nodes_[id]; }
  const XEdge& edge(int id) const { return edges_[id]; }
  const std::vector<XView>& xviews() const { return xviews_; }
  /// Structure (positions/edges) of the source view an XView instantiates.
  const View& view_structure(int source_view) const {
    return view_structures_[source_view];
  }
  const catalog::Catalog& catalog() const { return *catalog_; }

  /// Ids of edges incident to `node`.
  const std::vector<int>& EdgesOf(int node) const { return adjacency_[node]; }

  /// Ids of instantiated views containing `node`.
  const std::vector<int>& ViewsOf(int node) const { return views_of_[node]; }

  /// All nodes carrying relation tree `rt_id`.
  std::vector<int> NodesOfRt(int rt_id) const;

  /// Best (max-product) path weight between two nodes over the graph with
  /// view-contained edges square-rooted (Algorithm 3's preparation step).
  /// 1.0 on the diagonal, 0.0 if disconnected.
  double PathWeight(int from, int to) const {
    return path_weight_[from * num_nodes() + to];
  }

 private:
  ExtendedViewGraph() = default;

  /// §5.2 weight of the edge u-v over `fk_id`; `guesses` holds each relation
  /// tree's name guesses (EffectiveNames in view_graph.cc).
  double EdgeWeight(const XNode& u, const XNode& v, int fk_id,
                    const std::vector<std::vector<const sql::NameRef*>>& guesses,
                    const RelationTreeMapper& mapper,
                    QueryNameProfiles& names) const;
  void ComputeAllPairs();

  const catalog::Catalog* catalog_ = nullptr;
  int num_rts_ = 0;
  std::vector<XNode> nodes_;
  std::vector<XEdge> edges_;
  std::vector<std::vector<int>> adjacency_;
  std::vector<View> view_structures_;  ///< copies of the source views
  std::vector<XView> xviews_;
  std::vector<std::vector<int>> views_of_;
  std::vector<double> path_weight_;
};

}  // namespace sfsql::core

#endif  // SFSQL_CORE_VIEW_GRAPH_H_
