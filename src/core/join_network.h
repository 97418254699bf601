#ifndef SFSQL_CORE_JOIN_NETWORK_H_
#define SFSQL_CORE_JOIN_NETWORK_H_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "core/view_graph.h"

namespace sfsql::core {

/// One relation instance in a join network. The same extended-graph node may
/// appear as several instances (bare intermediates can repeat); rt-mapped
/// nodes appear at most once per network. A node's children are the later
/// nodes whose `parent` it is, in index order — which is insertion order.
struct JnNode {
  int xnode = -1;
  int parent = -1;       ///< tree-node index (below this node's), -1 for the root
  int parent_edge = -1;  ///< XEdge id connecting to the parent
};

/// A candidate join network (Definition 2): a rooted tree over extended-graph
/// nodes built by edge and view expansions. Tracks
///  * the Definition 2 constraint (each node instance may use each of its
///    foreign keys toward one child/parent copy only),
///  * one-instance-per-relation-tree,
///  * the construction weight (edge products, views contributing their
///    Definition 5 weight, node mapping factors when enabled), and
///  * the rightmost marks used by the §6.1 legality test, one bit per node.
/// A network holds at most kMaxJnNodes nodes.
class JoinNetwork {
 public:
  /// A network of a single node. `include_factor` folds the node's mapping
  /// factor into the weight (GeneratorConfig::use_mapping_scores).
  JoinNetwork(const ExtendedViewGraph* graph, int root_xnode,
              bool include_factor);

  int size() const { return static_cast<int>(nodes_.size()); }
  const JnNode& node(int i) const { return nodes_[i]; }
  const std::vector<JnNode>& nodes() const { return nodes_; }
  double weight() const { return weight_; }
  uint64_t rt_mask() const { return rt_mask_; }

  /// True if tree node `t` is rightmost-marked (may legally expand under the
  /// §6.1 legality test).
  bool IsRightmost(int t) const { return (rightmost_mask_ >> t) & 1; }

  /// True once every relation tree of the query is covered.
  bool IsTotal() const {
    return rt_mask_ == (num_rts_ >= 64 ? ~0ull : (1ull << num_rts_) - 1);
  }

  /// Total and no removable relation: every leaf carries a relation tree.
  bool IsMinimal() const;

  /// True if a node off the rightmost path is a bare leaf — it can never gain
  /// children nor be removed, so the network can never become minimal
  /// (Example 9's pruning rule). Only meaningful under rightmost legality.
  bool HasDeadBareLeaf() const;

  /// Expansion by a graph edge at tree node `at`, adding a new instance of the
  /// edge's other endpoint. Returns nullopt if the expansion violates the
  /// rt-uniqueness or Definition 2 FK constraints, exceeds `max_nodes`, or —
  /// when `enforce_rightmost` — `at` is off the rightmost path or the new
  /// child's label would break the sibling order.
  std::optional<JoinNetwork> ExpandByEdge(int edge_id, int at, int max_nodes,
                                          bool enforce_rightmost) const;

  /// Expansion by an instantiated view whose position `shared_pos` coincides
  /// with the node at tree node `at` (§6.1's view expansion): all other view
  /// positions become fresh instances, connected by the view's edges, and the
  /// view's Definition 5 weight multiplies the construction weight.
  std::optional<JoinNetwork> ExpandByView(int xview_id, int at, int shared_pos,
                                          int max_nodes,
                                          bool enforce_rightmost) const;

  /// Canonical form of the (unrooted, labeled) tree: two networks over the same
  /// node labels and edges compare equal regardless of construction order.
  /// Used to deduplicate results and to recognize alternative constructions of
  /// one network (Definition 7 keeps the best construction weight).
  std::string CanonicalSignature() const;

  /// Human-readable rendering for debugging and examples.
  std::string ToString() const;

 private:
  /// Bit t set when tree node t has a child.
  uint64_t InnerMask() const;
  /// True if tree node `t` already uses foreign key `fk` on its FK side.
  bool FkSlotUsed(int t, int fk) const;
  /// Appends a node for `xnode` under tree node `parent`, folding its mapping
  /// factor into the weight when it carries a relation tree.
  void AddNode(int xnode, int parent, int parent_edge);
  /// Applies the §6.1 marking rules after an expansion added the nodes from
  /// `first_new` on: new nodes become rightmost, old nodes left of the
  /// expansion frontier are frozen.
  void MarkAfterExpansion(int first_new);
  void Render(int t, std::string* out) const;

  const ExtendedViewGraph* graph_ = nullptr;
  int num_rts_ = 0;
  bool include_factor_ = true;
  std::vector<JnNode> nodes_;
  double weight_ = 1.0;
  uint64_t rt_mask_ = 0;
  uint64_t rightmost_mask_ = 1;  ///< bit t: tree node t is rightmost-marked
  int last_view_label_ = -1;     ///< labels of added views must increase
};

}  // namespace sfsql::core

#endif  // SFSQL_CORE_JOIN_NETWORK_H_
