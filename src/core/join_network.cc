#include "core/join_network.h"

#include <algorithm>
#include <array>

#include "common/strings.h"

namespace sfsql::core {

namespace {

/// AHU encoding of the subtree of `u` hanging off `p`, entered over an edge
/// labeled `edge_label`: the node's label, then its neighbours' encodings in
/// sorted order. Neighbours are the parent and every node whose parent is u.
std::string Encode(const std::vector<JnNode>& nodes,
                   const ExtendedViewGraph& graph, int u, int p,
                   const std::string& edge_label) {
  auto label = [&](int child) {
    const XEdge& e = graph.edge(nodes[child].parent_edge);
    return StrCat("e", e.fk_id, "s", e.fk_side());
  };
  std::vector<std::string> kids;
  if (nodes[u].parent >= 0 && nodes[u].parent != p) {
    kids.push_back(Encode(nodes, graph, nodes[u].parent, u, label(u)));
  }
  for (int c = u + 1; c < static_cast<int>(nodes.size()); ++c) {
    if (nodes[c].parent == u && c != p) {
      kids.push_back(Encode(nodes, graph, c, u, label(c)));
    }
  }
  std::sort(kids.begin(), kids.end());
  std::string out = StrCat("(", nodes[u].xnode, "/", edge_label);
  for (std::string& k : kids) out += k;
  out += ")";
  return out;
}

}  // namespace

JoinNetwork::JoinNetwork(const ExtendedViewGraph* graph, int root_xnode,
                         bool include_factor)
    : graph_(graph),
      num_rts_(graph->num_rts()),
      include_factor_(include_factor) {
  AddNode(root_xnode, -1, -1);
}

void JoinNetwork::AddNode(int xnode, int parent, int parent_edge) {
  nodes_.push_back(JnNode{xnode, parent, parent_edge});
  const XNode& x = graph_->node(xnode);
  if (x.rt_id >= 0) {
    rt_mask_ |= 1ull << x.rt_id;
    if (include_factor_) weight_ *= x.mapping_factor;
  }
}

uint64_t JoinNetwork::InnerMask() const {
  uint64_t inner = 0;
  for (size_t t = 1; t < nodes_.size(); ++t) inner |= 1ull << nodes_[t].parent;
  return inner;
}

bool JoinNetwork::IsMinimal() const {
  if (!IsTotal()) return false;
  // A leaf is a non-root node that is nobody's parent; each must carry a
  // relation tree, or removing it leaves a smaller total network.
  const uint64_t inner = InnerMask();
  for (size_t t = 1; t < nodes_.size(); ++t) {
    if ((inner >> t) & 1) continue;
    if (graph_->node(nodes_[t].xnode).rt_id < 0) return false;
  }
  return true;
}

bool JoinNetwork::HasDeadBareLeaf() const {
  const uint64_t frozen_leaves = ~(InnerMask() | rightmost_mask_);
  for (size_t t = 0; t < nodes_.size(); ++t) {
    if (((frozen_leaves >> t) & 1) && graph_->node(nodes_[t].xnode).rt_id < 0) {
      return true;
    }
  }
  return false;
}

bool JoinNetwork::FkSlotUsed(int t, int fk) const {
  auto uses_slot = [&](int edge_id) {
    const XEdge& e = graph_->edge(edge_id);
    return e.fk_id == fk && e.fk_side() == nodes_[t].xnode;
  };
  // Incident edges of t: the edge to its parent plus each child's parent edge.
  if (nodes_[t].parent >= 0 && uses_slot(nodes_[t].parent_edge)) return true;
  for (size_t c = t + 1; c < nodes_.size(); ++c) {
    if (nodes_[c].parent == t && uses_slot(nodes_[c].parent_edge)) return true;
  }
  return false;
}

void JoinNetwork::MarkAfterExpansion(int first_new) {
  // Post-order numbers of the ordered tree, each node's child nodes in index
  // order. A parent precedes its child nodes, so subtree sizes sum up in one
  // backward pass, and one forward pass lays each child's subtree out after
  // its older siblings'.
  const int n = size();
  std::array<int, kMaxJnNodes> subtree;
  std::array<int, kMaxJnNodes> start;  ///< post number of t's first finished node
  std::array<int, kMaxJnNodes> post;
  subtree.fill(1);
  for (int t = n - 1; t > 0; --t) subtree[nodes_[t].parent] += subtree[t];
  std::array<int, kMaxJnNodes> next_child_start;
  int frontier = -1;
  for (int t = 0; t < n; ++t) {
    const int p = nodes_[t].parent;
    start[t] = p < 0 ? 0 : next_child_start[p];
    if (p >= 0) next_child_start[p] += subtree[t];
    next_child_start[t] = start[t];
    post[t] = start[t] + subtree[t] - 1;
    if (t >= first_new) frontier = std::max(frontier, post[t]);
  }
  for (int t = 0; t < first_new; ++t) {
    // Everything to the left of the expansion is frozen.
    if (post[t] < frontier) rightmost_mask_ &= ~(1ull << t);
  }
  // "All newly expanded nodes are marked as rightmost no matter if they are in
  // the rightmost root-to-leaf path" (§6.1).
  for (int t = first_new; t < n; ++t) rightmost_mask_ |= 1ull << t;
}

std::optional<JoinNetwork> JoinNetwork::ExpandByEdge(
    int edge_id, int at, int max_nodes, bool enforce_rightmost) const {
  const XEdge& e = graph_->edge(edge_id);
  int at_xnode = nodes_[at].xnode;
  if (e.a != at_xnode && e.b != at_xnode) return std::nullopt;
  int new_xnode = e.other(at_xnode);
  const XNode& nx = graph_->node(new_xnode);

  if (size() + 1 > std::min(max_nodes, kMaxJnNodes)) return std::nullopt;
  if (nx.rt_id >= 0 && (rt_mask_ & (1ull << nx.rt_id))) return std::nullopt;
  // Definition 2: a foreign-key slot joins at most one copy of its target.
  if (e.fk_side() == at_xnode && FkSlotUsed(at, e.fk_id)) return std::nullopt;

  if (enforce_rightmost) {
    if (!IsRightmost(at)) return std::nullopt;
    // The new node must become the rightmost at its level: its label may not
    // be smaller than the last existing child's (Example 9, (d) -> (e)).
    for (int c = size() - 1; c > at; --c) {
      if (nodes_[c].parent != at) continue;
      if (new_xnode < nodes_[c].xnode) return std::nullopt;
      break;
    }
  }

  JoinNetwork out = *this;
  out.weight_ *= e.weight;
  out.AddNode(new_xnode, at, edge_id);
  out.MarkAfterExpansion(size());
  return out;
}

std::optional<JoinNetwork> JoinNetwork::ExpandByView(
    int xview_id, int at, int shared_pos, int max_nodes,
    bool enforce_rightmost) const {
  const XView& xv = graph_->xviews()[xview_id];
  const int n = static_cast<int>(xv.nodes.size());
  if (shared_pos < 0 || shared_pos >= n) return std::nullopt;
  if (xv.nodes[shared_pos] != nodes_[at].xnode) return std::nullopt;
  if (size() + n - 1 > std::min(max_nodes, kMaxJnNodes)) return std::nullopt;

  if (enforce_rightmost) {
    if (!IsRightmost(at)) return std::nullopt;
    // View labels must increase across the construction (§6.1).
    if (xview_id <= last_view_label_) return std::nullopt;
  }

  // Check relation-tree uniqueness across the incoming view nodes.
  uint64_t incoming = 0;
  for (int p = 0; p < n; ++p) {
    if (p == shared_pos) continue;
    int rt = graph_->node(xv.nodes[p]).rt_id;
    if (rt < 0) continue;
    uint64_t bit = 1ull << rt;
    if ((rt_mask_ & bit) || (incoming & bit)) return std::nullopt;
    incoming |= bit;
  }

  // Adjacency of positions within the view.
  const View& view_def = graph_->view_structure(xv.source_view);
  std::vector<std::vector<std::pair<int, int>>> adj(n);  // (other_pos, edge_idx)
  for (size_t i = 0; i < view_def.edges.size(); ++i) {
    const ViewEdge& ve = view_def.edges[i];
    adj[ve.from_pos].push_back({ve.to_pos, static_cast<int>(i)});
    adj[ve.to_pos].push_back({ve.from_pos, static_cast<int>(i)});
  }

  JoinNetwork out = *this;
  std::vector<int> tree_of_pos(n, -1);
  tree_of_pos[shared_pos] = at;

  // Depth-first from the shared position. A position's unattached neighbours
  // attach in label order, matching the edge-expansion convention, so they go
  // on the stack in reverse.
  std::vector<std::pair<int, int>> stack;  // (pos, view edge to its parent)
  auto push_neighbours = [&](int pos) {
    const size_t first = stack.size();
    for (auto [other, ei] : adj[pos]) {
      if (tree_of_pos[other] < 0) stack.push_back({other, ei});
    }
    std::sort(stack.begin() + first, stack.end(), [&](auto& a, auto& b) {
      return xv.nodes[a.first] < xv.nodes[b.first];
    });
    std::reverse(stack.begin() + first, stack.end());
  };
  // Each position's parent position is the view edge's other end.
  auto parent_pos = [&](int pos, int ei) {
    const ViewEdge& ve = view_def.edges[ei];
    return ve.from_pos == pos ? ve.to_pos : ve.from_pos;
  };
  push_neighbours(shared_pos);
  while (!stack.empty()) {
    auto [pos, ei] = stack.back();
    stack.pop_back();
    int edge_id = xv.edge_ids[ei];
    const XEdge& e = graph_->edge(edge_id);
    int parent_tree = tree_of_pos[parent_pos(pos, ei)];
    // Definition 2 on the shared node and within the view.
    if (e.fk_side() == out.nodes_[parent_tree].xnode &&
        out.FkSlotUsed(parent_tree, e.fk_id)) {
      return std::nullopt;
    }
    tree_of_pos[pos] = out.size();
    out.AddNode(xv.nodes[pos], parent_tree, edge_id);
    push_neighbours(pos);
  }
  if (out.size() - size() != n - 1) return std::nullopt;

  out.weight_ *= xv.weight;  // Definition 6: views contribute their own weight
  out.last_view_label_ = xview_id;
  out.MarkAfterExpansion(size());
  return out;
}

std::string JoinNetwork::CanonicalSignature() const {
  const int n = size();
  // AHU encoding rooted at a centroid (min over the at-most-two centroids).
  // A centroid's heaviest component, rooted at node 0, is either the subtree
  // of one of its child nodes or everything outside its own subtree.
  std::array<int, kMaxJnNodes> subtree;
  std::array<int, kMaxJnNodes> heaviest_child{};
  subtree.fill(1);
  for (int t = n - 1; t > 0; --t) {
    const int p = nodes_[t].parent;
    subtree[p] += subtree[t];
    heaviest_child[p] = std::max(heaviest_child[p], subtree[t]);
  }
  std::string best;
  for (int c = 0; c < n; ++c) {
    if (std::max(n - subtree[c], heaviest_child[c]) > n / 2) continue;
    std::string s = Encode(nodes_, *graph_, c, -1, "");
    if (best.empty() || s < best) best = s;
  }
  return best;
}

void JoinNetwork::Render(int t, std::string* out) const {
  *out += graph_->node(nodes_[t].xnode).ToString(graph_->catalog());
  bool first = true;
  for (int c = t + 1; c < size(); ++c) {
    if (nodes_[c].parent != t) continue;
    *out += first ? "[" : ", ";
    first = false;
    Render(c, out);
  }
  if (!first) *out += "]";
}

std::string JoinNetwork::ToString() const {
  std::string out;
  Render(0, &out);
  return out;
}

}  // namespace sfsql::core
