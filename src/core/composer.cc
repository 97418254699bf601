#include "core/composer.h"

#include <functional>
#include <map>
#include <set>

#include "common/macros.h"
#include "common/strings.h"
#include "sql/printer.h"

namespace sfsql::core {

using sql::Expr;
using sql::ExprKind;
using sql::ExprPtr;
using sql::NameRef;

namespace {

/// Splits an AND tree into owned conjuncts (consumes the tree).
void SplitOwnedConjuncts(ExprPtr e, std::vector<ExprPtr>& out) {
  if (!e) return;
  if (e->kind == ExprKind::kBinary && e->bop == sql::BinaryOp::kAnd) {
    SplitOwnedConjuncts(std::move(e->lhs), out);
    SplitOwnedConjuncts(std::move(e->rhs), out);
    return;
  }
  out.push_back(std::move(e));
}

ExprPtr ConjoinAll(std::vector<ExprPtr> conjuncts) {
  ExprPtr out;
  for (ExprPtr& c : conjuncts) {
    if (!out) {
      out = std::move(c);
    } else {
      out = Expr::Binary(sql::BinaryOp::kAnd, std::move(out), std::move(c));
    }
  }
  return out;
}

}  // namespace

Result<sql::SelectPtr> SqlComposer::Compose(const sql::SelectStatement& stmt,
                                            const Extraction& extraction,
                                            const JoinNetwork& network) const {
  const catalog::Catalog& cat = graph_->catalog();

  // --- Step 2 groundwork: aliases for the network's relation instances. ---
  // User-given FROM aliases stick to their relation tree (correlated subqueries
  // reference them); otherwise a relation used once keeps its own name and
  // repeats get _1, _2, ... suffixes.
  std::map<int, int> relation_uses;
  for (const JnNode& n : network.nodes()) {
    relation_uses[graph_->node(n.xnode).relation_id]++;
  }
  std::vector<std::string> alias_of_tree_node(network.size());
  std::set<std::string> taken;
  for (int t = 0; t < network.size(); ++t) {
    const XNode& x = graph_->node(network.node(t).xnode);
    if (x.rt_id >= 0 && !extraction.trees[x.rt_id].alias.empty()) {
      alias_of_tree_node[t] = extraction.trees[x.rt_id].alias;
      taken.insert(ToLower(alias_of_tree_node[t]));
    }
  }
  std::map<int, int> relation_counter;
  for (int t = 0; t < network.size(); ++t) {
    if (!alias_of_tree_node[t].empty()) continue;
    int rel = graph_->node(network.node(t).xnode).relation_id;
    std::string candidate = relation_uses[rel] == 1 ? cat.relation(rel).name
                                                    : std::string();
    while (candidate.empty() || taken.count(ToLower(candidate)) > 0) {
      candidate = StrCat(cat.relation(rel).name, "_", ++relation_counter[rel]);
    }
    alias_of_tree_node[t] = candidate;
    taken.insert(ToLower(candidate));
  }

  // Where each relation tree landed.
  struct TreeBinding {
    int tree_node = -1;
    int relation_id = -1;
    const RelationMapping* mapping = nullptr;
  };
  std::vector<TreeBinding> bindings(extraction.trees.size());
  for (int t = 0; t < network.size(); ++t) {
    const XNode& x = graph_->node(network.node(t).xnode);
    if (x.rt_id < 0) continue;
    TreeBinding& b = bindings[x.rt_id];
    b.tree_node = t;
    b.relation_id = x.relation_id;
    b.mapping = (*mappings_)[x.rt_id].ForRelation(x.relation_id);
    if (b.mapping == nullptr) {
      return Status::Internal("network binds a relation outside the mapping set");
    }
  }
  for (size_t rt = 0; rt < bindings.size(); ++rt) {
    if (bindings[rt].tree_node < 0) {
      return Status::Internal(
          StrCat("network does not cover relation tree ", rt));
    }
  }

  // --- Step 1: rewrite names on a clone. ---
  sql::SelectPtr out = stmt.Clone();

  std::function<Status(Expr&)> rewrite = [&](Expr& e) -> Status {
    if (e.kind == ExprKind::kColumnRef && e.rt_id >= 0) {
      const TreeBinding& b = bindings[e.rt_id];
      if (e.at_index < 0 ||
          e.at_index >= static_cast<int>(b.mapping->attribute_bindings.size())) {
        return Status::Internal("column annotation out of range");
      }
      int attr = b.mapping->attribute_bindings[e.at_index];
      if (attr < 0) {
        return Status::NotFound(
            StrCat("no attribute of ", cat.relation(b.relation_id).name,
                   " matches '",
                   extraction.trees[e.rt_id].attributes[e.at_index].ToString(),
                   "'"));
      }
      e.relation = NameRef::Exact(alias_of_tree_node[b.tree_node]);
      e.attribute =
          NameRef::Exact(cat.relation(b.relation_id).attributes[attr].name);
      return Status::OK();
    }
    if (e.kind == ExprKind::kStar && e.relation.specified() && e.rt_id >= 0) {
      e.relation = NameRef::Exact(alias_of_tree_node[bindings[e.rt_id].tree_node]);
      return Status::OK();
    }
    if (e.lhs) SFSQL_RETURN_IF_ERROR(rewrite(*e.lhs));
    if (e.rhs) SFSQL_RETURN_IF_ERROR(rewrite(*e.rhs));
    for (ExprPtr& a : e.args) SFSQL_RETURN_IF_ERROR(rewrite(*a));
    // Subqueries deliberately not rewritten here (translated per block later).
    return Status::OK();
  };

  // Drop the user's join fragments from WHERE before rewriting (their printed
  // form was recorded at extraction time, and the clone prints identically).
  std::set<std::string> consumed(extraction.consumed_conjuncts.begin(),
                                 extraction.consumed_conjuncts.end());
  std::vector<ExprPtr> conjuncts;
  SplitOwnedConjuncts(std::move(out->where), conjuncts);
  std::vector<ExprPtr> retained;
  for (ExprPtr& c : conjuncts) {
    if (consumed.count(sql::PrintExpr(*c)) > 0) continue;
    retained.push_back(std::move(c));
  }

  for (sql::SelectItem& item : out->select_items) {
    SFSQL_RETURN_IF_ERROR(rewrite(*item.expr));
  }
  for (ExprPtr& c : retained) SFSQL_RETURN_IF_ERROR(rewrite(*c));
  for (ExprPtr& g : out->group_by) SFSQL_RETURN_IF_ERROR(rewrite(*g));
  if (out->having) SFSQL_RETURN_IF_ERROR(rewrite(*out->having));
  for (sql::OrderItem& o : out->order_by) SFSQL_RETURN_IF_ERROR(rewrite(*o.expr));

  // --- Step 2: FROM lists every network relation. ---
  out->from.clear();
  for (int t = 0; t < network.size(); ++t) {
    int rel = graph_->node(network.node(t).xnode).relation_id;
    sql::TableRef ref;
    ref.relation = NameRef::Exact(cat.relation(rel).name);
    if (!EqualsIgnoreCase(alias_of_tree_node[t], cat.relation(rel).name)) {
      ref.alias = alias_of_tree_node[t];
    }
    out->from.push_back(std::move(ref));
  }

  // --- Step 3: join conditions for every network edge. ---
  for (int t = 0; t < network.size(); ++t) {
    const JnNode& n = network.node(t);
    if (n.parent < 0) continue;
    const XEdge& e = graph_->edge(n.parent_edge);
    const catalog::ForeignKey& fk = cat.foreign_key(e.fk_id);
    // Which tree node is the FK side?
    int fk_tree = (e.fk_side() == network.node(t).xnode) ? t : n.parent;
    int pk_tree = fk_tree == t ? n.parent : t;
    const catalog::Relation& fk_rel = cat.relation(fk.from_relation);
    const catalog::Relation& pk_rel = cat.relation(fk.to_relation);
    ExprPtr join = Expr::Binary(
        sql::BinaryOp::kEq,
        Expr::Column(NameRef::Exact(alias_of_tree_node[fk_tree]),
                     NameRef::Exact(fk_rel.attributes[fk.from_attribute].name)),
        Expr::Column(NameRef::Exact(alias_of_tree_node[pk_tree]),
                     NameRef::Exact(pk_rel.attributes[fk.to_attribute].name)));
    retained.push_back(std::move(join));
  }
  out->where = ConjoinAll(std::move(retained));
  return out;
}

}  // namespace sfsql::core
