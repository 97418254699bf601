#include "core/view_graph.h"

#include <algorithm>
#include <cmath>
#include <functional>
#include <map>
#include <tuple>

#include "common/macros.h"
#include "common/strings.h"
#include "sql/parser.h"

namespace sfsql::core {

std::string XNode::ToString(const catalog::Catalog& catalog) const {
  std::string out = catalog.relation(relation_id).name;
  out += rt_id >= 0 ? StrCat("(rt", rt_id, ")") : "()";
  return out;
}

// ---------------------------------------------------------------------------
// ViewGraph
// ---------------------------------------------------------------------------

Result<int> ViewGraph::AddView(View view) {
  const int n = static_cast<int>(view.relations.size());
  if (n < 2) {
    return Status::InvalidArgument("a view needs at least two relations");
  }
  if (static_cast<int>(view.edges.size()) != n - 1) {
    return Status::InvalidArgument(
        StrCat("a view over ", n, " relations needs ", n - 1, " edges, got ",
               view.edges.size()));
  }
  for (int r : view.relations) {
    if (r < 0 || r >= catalog_->num_relations()) {
      return Status::InvalidArgument("view references unknown relation");
    }
  }
  // Union-find connectivity + FK validation. Convention: from_pos holds the
  // foreign key, to_pos holds the referenced primary key.
  std::vector<int> parent(n);
  for (int i = 0; i < n; ++i) parent[i] = i;
  auto find = [&](int x) {
    while (parent[x] != x) x = parent[x] = parent[parent[x]];
    return x;
  };
  for (const ViewEdge& e : view.edges) {
    if (e.from_pos < 0 || e.from_pos >= n || e.to_pos < 0 || e.to_pos >= n ||
        e.from_pos == e.to_pos) {
      return Status::InvalidArgument("view edge has bad positions");
    }
    if (e.fk_id < 0 || e.fk_id >= catalog_->num_foreign_keys()) {
      return Status::InvalidArgument("view edge references unknown foreign key");
    }
    const catalog::ForeignKey& fk = catalog_->foreign_key(e.fk_id);
    if (fk.from_relation != view.relations[e.from_pos] ||
        fk.to_relation != view.relations[e.to_pos]) {
      return Status::InvalidArgument(
          "view edge foreign key does not connect its positions");
    }
    int ra = find(e.from_pos);
    int rb = find(e.to_pos);
    if (ra == rb) {
      return Status::InvalidArgument("view edges contain a cycle");
    }
    parent[ra] = rb;
  }
  // Deduplicate identical join trees: compare by the multiset of
  // (relation_a, relation_b, fk) edges plus the relation multiset, which
  // identifies a labeled tree closely enough for log views.
  auto signature = [&](const View& v) {
    std::vector<std::string> parts;
    for (const ViewEdge& e : v.edges) {
      parts.push_back(StrCat(v.relations[e.from_pos], ">",
                             v.relations[e.to_pos], "#", e.fk_id));
    }
    std::sort(parts.begin(), parts.end());
    std::vector<int> rels = v.relations;
    std::sort(rels.begin(), rels.end());
    std::string sig = Join(parts, "|") + "@";
    for (int r : rels) sig += StrCat(r, ",");
    return sig;
  };
  std::string sig = signature(view);
  for (size_t i = 0; i < views_.size(); ++i) {
    if (signature(views_[i]) == sig) {
      ++views_[i].count;
      return static_cast<int>(i);
    }
  }
  views_.push_back(std::move(view));
  return static_cast<int>(views_.size()) - 1;
}

Result<View> ViewFromSql(const catalog::Catalog& catalog, std::string_view sql) {
  SFSQL_ASSIGN_OR_RETURN(sql::SelectPtr stmt, sql::ParseSelect(sql));
  // Query-log entries are executed queries: reject anything schema-free.
  bool fully_specified = true;
  std::function<void(const sql::Expr&)> check = [&](const sql::Expr& e) {
    if (e.kind == sql::ExprKind::kColumnRef) {
      if (!e.attribute.exact() || (e.relation.specified() && !e.relation.exact())) {
        fully_specified = false;
      }
    }
    if (e.lhs) check(*e.lhs);
    if (e.rhs) check(*e.rhs);
    for (const sql::ExprPtr& a : e.args) check(*a);
  };
  sql::ForEachTopLevelExpr(*stmt, [&](sql::ExprPtr& e) { check(*e); });
  if (!fully_specified) {
    return Status::InvalidArgument("query-log entries must be full SQL");
  }
  if (stmt->from.size() < 2) {
    return Status::NotFound("query joins fewer than two relations");
  }
  View view;
  std::map<std::string, int> binding_to_pos;
  for (const sql::TableRef& ref : stmt->from) {
    if (!ref.relation.exact()) {
      return Status::InvalidArgument("query-log entries must be full SQL");
    }
    SFSQL_ASSIGN_OR_RETURN(int rel, catalog.FindRelation(ref.relation.name));
    binding_to_pos[ToLower(ref.BindingName())] =
        static_cast<int>(view.relations.size());
    view.relations.push_back(rel);
  }

  // Collect a.x = b.y conjuncts and match them against foreign keys.
  std::vector<const sql::Expr*> conjuncts;
  std::vector<const sql::Expr*> stack;
  if (stmt->where) stack.push_back(stmt->where.get());
  while (!stack.empty()) {
    const sql::Expr* e = stack.back();
    stack.pop_back();
    if (e->kind == sql::ExprKind::kBinary && e->bop == sql::BinaryOp::kAnd) {
      stack.push_back(e->lhs.get());
      stack.push_back(e->rhs.get());
    } else {
      conjuncts.push_back(e);
    }
  }
  for (const sql::Expr* e : conjuncts) {
    if (e->kind != sql::ExprKind::kBinary || e->bop != sql::BinaryOp::kEq ||
        e->lhs->kind != sql::ExprKind::kColumnRef ||
        e->rhs->kind != sql::ExprKind::kColumnRef) {
      continue;
    }
    auto lookup = [&](const sql::Expr& col) -> int {
      if (!col.relation.exact()) return -1;
      auto it = binding_to_pos.find(ToLower(col.relation.name));
      return it == binding_to_pos.end() ? -1 : it->second;
    };
    int pa = lookup(*e->lhs);
    int pb = lookup(*e->rhs);
    if (pa < 0 || pb < 0 || pa == pb) continue;
    int ra = view.relations[pa];
    int rb = view.relations[pb];
    int aa = catalog.relation(ra).AttributeIndex(e->lhs->attribute.name);
    int ab = catalog.relation(rb).AttributeIndex(e->rhs->attribute.name);
    if (aa < 0 || ab < 0) continue;
    for (int f = 0; f < catalog.num_foreign_keys(); ++f) {
      const catalog::ForeignKey& fk = catalog.foreign_key(f);
      if (fk.from_relation == ra && fk.from_attribute == aa &&
          fk.to_relation == rb && fk.to_attribute == ab) {
        view.edges.push_back(ViewEdge{pa, pb, f});
        break;
      }
      if (fk.from_relation == rb && fk.from_attribute == ab &&
          fk.to_relation == ra && fk.to_attribute == aa) {
        view.edges.push_back(ViewEdge{pb, pa, f});
        break;
      }
    }
  }
  if (view.edges.size() != view.relations.size() - 1) {
    return Status::InvalidArgument(
        StrCat("query join graph is not a spanning tree (", view.edges.size(),
               " FK joins over ", view.relations.size(), " relations)"));
  }
  return view;
}

// ---------------------------------------------------------------------------
// ExtendedViewGraph
// ---------------------------------------------------------------------------

namespace {

/// Name guesses carried by a relation tree, used for edge enhancement: the
/// relation name if present, otherwise the attribute-name hints (§4.2 spirit;
/// this is what makes the (Movie_Producer(), Company(rt3)) edge of Fig. 6
/// score 0.84 from the "produce_company" guess).
std::vector<const sql::NameRef*> EffectiveNames(const RelationTree& rt) {
  std::vector<const sql::NameRef*> out;
  if (rt.relation.has_name_hint()) {
    out.push_back(&rt.relation);
    return out;
  }
  for (const AttributeTree& at : rt.attributes) {
    if (at.name.has_name_hint()) out.push_back(&at.name);
  }
  return out;
}

}  // namespace

double ExtendedViewGraph::EdgeWeight(
    const XNode& u, const XNode& v, int fk_id,
    const std::vector<std::vector<const sql::NameRef*>>& guesses,
    const RelationTreeMapper& mapper, QueryNameProfiles& names) const {
  const SimilarityConfig& cfg = mapper.config();
  // Junction edges (FK inside the owner's primary key) start at c; plain
  // reference FKs start at c_reference.
  const catalog::ForeignKey& fk = catalog_->foreign_key(fk_id);
  const catalog::Relation& owner = catalog_->relation(fk.from_relation);
  bool junction =
      std::find(owner.primary_key.begin(), owner.primary_key.end(),
                fk.from_attribute) != owner.primary_key.end();
  double base = junction ? cfg.c : cfg.c_reference;
  double boost = 0.0;
  auto consider = [&](const XNode& with_rt, const XNode& other) {
    if (with_rt.rt_id < 0) return;
    const catalog::Relation& own_rel = catalog_->relation(with_rt.relation_id);
    for (const sql::NameRef* name : guesses[with_rt.rt_id]) {
      // An *exact* (user-asserted) name that names its bound relation carries
      // no "the user had a different schema in mind" signal, so it must not
      // strengthen edges toward similarly-named neighbors (an exact Course
      // would otherwise inflate every Course_* edge). Vague guesses keep the
      // full §5.2 enhancement.
      if (name->exact() && EqualsIgnoreCase(name->name, own_rel.name)) continue;
      // Sim' = k_ref * Sim (§4.2); high similarity between rt's guesses and the
      // *other* endpoint's relation name strengthens the connection (§5.2).
      double sim = cfg.kref * mapper.RelationNameSimilarity(
                                  names.Get(*name), other.relation_id);
      boost = std::max(boost, sim);
    }
  };
  consider(u, v);
  consider(v, u);
  return 1.0 - (1.0 - base) * (1.0 - boost);
}

Result<ExtendedViewGraph> ExtendedViewGraph::Build(
    const storage::Database& db, const ViewGraph& views,
    const std::vector<RelationTree>& trees,
    const std::vector<MappingSet>& mappings, const RelationTreeMapper& mapper,
    QueryNameProfiles& names, const GeneratorConfig& gen_config) {
  if (trees.size() != mappings.size()) {
    return Status::InvalidArgument("one mapping set required per relation tree");
  }
  if (trees.size() > 62) {
    return Status::InvalidArgument("too many relation trees (max 62)");
  }
  ExtendedViewGraph g;
  g.catalog_ = &db.catalog();
  g.num_rts_ = static_cast<int>(trees.size());
  const catalog::Catalog& cat = db.catalog();

  // Nodes: one per (rt, candidate relation), plus a bare copy of *every*
  // relation. The paper creates bare copies only of unmapped relations
  // (§5.1), which is equivalent when mapping sets are singletons; with
  // overlapping mapping sets a relation that one tree merely *might* bind
  // must still be traversable as a plain intermediate when the tree binds
  // elsewhere, so we always add the bare copy (minimality prunes unused
  // ones). Documented as a deviation in DESIGN.md.
  for (size_t t = 0; t < trees.size(); ++t) {
    if (mappings[t].candidates.empty()) {
      return Status::NotFound(
          StrCat("relation tree ", trees[t].ToString(), " maps to nothing"));
    }
    double max_sim = mappings[t].candidates.front().similarity;
    for (const RelationMapping& m : mappings[t].candidates) {
      XNode node;
      node.relation_id = m.relation_id;
      node.rt_id = static_cast<int>(t);
      node.mapping_factor =
          (gen_config.use_mapping_scores && max_sim > 0.0)
              ? m.similarity / max_sim
              : 1.0;
      g.nodes_.push_back(node);
    }
  }
  for (int r = 0; r < cat.num_relations(); ++r) {
    g.nodes_.push_back(XNode{r, -1, 1.0});
  }

  // Group nodes by relation for edge/view construction.
  std::vector<std::vector<int>> nodes_of_relation(cat.num_relations());
  for (int i = 0; i < g.num_nodes(); ++i) {
    nodes_of_relation[g.nodes_[i].relation_id].push_back(i);
  }

  // Edges: every FK lifts to all node pairs of its endpoint relations.
  std::vector<std::vector<const sql::NameRef*>> guesses;
  guesses.reserve(trees.size());
  for (const RelationTree& rt : trees) guesses.push_back(EffectiveNames(rt));
  g.adjacency_.assign(g.num_nodes(), {});
  std::map<std::tuple<int, int, int, int>, int> edge_index;  // (a,b,fk,fk_side)
  for (int f = 0; f < cat.num_foreign_keys(); ++f) {
    const catalog::ForeignKey& fk = cat.foreign_key(f);
    for (int u : nodes_of_relation[fk.from_relation]) {
      for (int v : nodes_of_relation[fk.to_relation]) {
        if (u == v) continue;
        XEdge e;
        e.a = u;
        e.b = v;
        e.fk_id = f;
        e.a_is_fk_side = true;
        e.weight =
            g.EdgeWeight(g.nodes_[u], g.nodes_[v], f, guesses, mapper, names);
        int id = static_cast<int>(g.edges_.size());
        auto key = std::make_tuple(std::min(u, v), std::max(u, v), f, u);
        if (edge_index.count(key) > 0) continue;
        edge_index[key] = id;
        g.edges_.push_back(e);
        g.adjacency_[u].push_back(id);
        g.adjacency_[v].push_back(id);
      }
    }
  }

  // Instantiated views: every assignment of candidate nodes to view positions
  // (distinct rts per instance), capped for safety.
  constexpr int kMaxInstancesPerView = 512;
  g.views_of_.assign(g.num_nodes(), {});
  g.view_structures_ = views.views();
  for (size_t vi = 0; vi < views.views().size(); ++vi) {
    const View& view = views.views()[vi];
    const int n = static_cast<int>(view.relations.size());
    std::vector<int> assignment(n, -1);
    uint64_t used_rts = 0;
    int instances = 0;

    std::function<void(int)> assign = [&](int pos) {
      if (instances >= kMaxInstancesPerView) return;
      if (pos == n) {
        XView xv;
        xv.source_view = static_cast<int>(vi);
        xv.nodes = assignment;
        double product = 1.0;
        for (const ViewEdge& ve : view.edges) {
          int na = assignment[ve.from_pos];
          int nb = assignment[ve.to_pos];
          if (na == nb) return;  // degenerate (self-pair on a bare copy)
          auto key = std::make_tuple(std::min(na, nb), std::max(na, nb),
                                     ve.fk_id, na);
          auto it = edge_index.find(key);
          if (it == edge_index.end()) return;
          xv.edge_ids.push_back(it->second);
          product *= g.edges_[it->second].weight;
        }
        // Definition 5 generalized: weight = (prod edge weights)^exponent,
        // with the exponent shrinking for join trees that recur in the query
        // log (frequent patterns are near-certain join paths).
        double exponent = gen_config.view_weight_exponent /
                          (1.0 + std::log(static_cast<double>(view.count)));
        xv.weight = std::pow(product, exponent);
        int id = static_cast<int>(g.xviews_.size());
        for (int edge_id : xv.edge_ids) {
          g.edges_[edge_id].in_view = true;
          g.edges_[edge_id].min_view_exponent =
              std::min(g.edges_[edge_id].min_view_exponent, exponent);
        }
        for (int node : xv.nodes) {
          if (std::find(g.views_of_[node].begin(), g.views_of_[node].end(),
                        id) == g.views_of_[node].end()) {
            g.views_of_[node].push_back(id);
          }
        }
        g.xviews_.push_back(std::move(xv));
        ++instances;
        return;
      }
      for (int candidate : nodes_of_relation[view.relations[pos]]) {
        int rt = g.nodes_[candidate].rt_id;
        if (rt >= 0 && (used_rts & (1ull << rt))) continue;
        assignment[pos] = candidate;
        if (rt >= 0) used_rts |= 1ull << rt;
        assign(pos + 1);
        if (rt >= 0) used_rts &= ~(1ull << rt);
        assignment[pos] = -1;
      }
    };
    assign(0);
  }

  g.ComputeAllPairs();
  return g;
}

std::vector<int> ExtendedViewGraph::NodesOfRt(int rt_id) const {
  std::vector<int> out;
  for (int i = 0; i < num_nodes(); ++i) {
    if (nodes_[i].rt_id == rt_id) out.push_back(i);
  }
  return out;
}

void ExtendedViewGraph::ComputeAllPairs() {
  const int n = num_nodes();
  path_weight_.assign(static_cast<size_t>(n) * n, 0.0);
  for (int i = 0; i < n; ++i) path_weight_[i * n + i] = 1.0;
  for (const XEdge& e : edges_) {
    // Algorithm 3's preparation: view-contained edges count at the smallest
    // exponent of any view containing them, so completions through views look
    // at least as cheap as the view weight (keeps the potential an
    // overestimate).
    double w = e.in_view ? std::pow(e.weight, e.min_view_exponent) : e.weight;
    double& ab = path_weight_[e.a * n + e.b];
    double& ba = path_weight_[e.b * n + e.a];
    ab = std::max(ab, w);
    ba = std::max(ba, w);
  }
  // Floyd–Warshall with (max, *) — valid since weights lie in (0, 1].
  for (int k = 0; k < n; ++k) {
    for (int i = 0; i < n; ++i) {
      double ik = path_weight_[i * n + k];
      if (ik == 0.0) continue;
      for (int j = 0; j < n; ++j) {
        double through = ik * path_weight_[k * n + j];
        double& d = path_weight_[i * n + j];
        if (through > d) d = through;
      }
    }
  }
}

}  // namespace sfsql::core
