#include "exec/binder.h"

#include <algorithm>
#include <utility>

#include "common/strings.h"

namespace sfsql::exec {

using sql::BinaryOp;
using sql::Expr;
using sql::ExprKind;
using sql::ExprPtr;
using sql::SelectStatement;

bool IsAggregateName(const std::string& name) {
  return EqualsIgnoreCase(name, "count") || EqualsIgnoreCase(name, "sum") ||
         EqualsIgnoreCase(name, "avg") || EqualsIgnoreCase(name, "min") ||
         EqualsIgnoreCase(name, "max");
}

namespace {

/// True if `e` contains an aggregate call outside of any nested subquery.
bool ContainsAggregate(const Expr& e) {
  if (e.kind == ExprKind::kFunctionCall && IsAggregateName(e.function_name)) {
    return true;
  }
  if (e.lhs && ContainsAggregate(*e.lhs)) return true;
  if (e.rhs && ContainsAggregate(*e.rhs)) return true;
  for (const ExprPtr& a : e.args) {
    if (ContainsAggregate(*a)) return true;
  }
  return false;
}

void SplitConjuncts(const Expr* e, std::vector<const Expr*>& out) {
  if (e == nullptr) return;
  if (e->kind == ExprKind::kBinary && e->bop == BinaryOp::kAnd) {
    SplitConjuncts(e->lhs.get(), out);
    SplitConjuncts(e->rhs.get(), out);
    return;
  }
  out.push_back(e);
}

/// The FROM entry of `block` bound to `name` (case-insensitive), or -1.
int FindEntry(const BoundBlock& block, const std::string& name) {
  for (size_t f = 0; f < block.bindings.size(); ++f) {
    if (EqualsIgnoreCase(block.bindings[f], name)) return static_cast<int>(f);
  }
  return -1;
}

class Binder {
 public:
  Binder(const catalog::Catalog& catalog, Binding& out)
      : catalog_(catalog), out_(out) {}

  const BoundBlock* BindBlock(const SelectStatement& stmt);

 private:
  /// `grouped`: `e` sits in the SELECT list, HAVING or ORDER BY of an
  /// aggregating block, outside any aggregate call.
  BoundExpr BindExpr(const Expr& e, bool grouped);
  /// The one [relation.]attribute -> (frame, FROM entry, attribute) lookup.
  Status BindColumn(const Expr& e, BoundExpr& b);

  const catalog::Catalog& catalog_;
  Binding& out_;
  std::vector<BoundBlock*> chain_;  ///< enclosing blocks, innermost last
  BoundConjunct* conjunct_ = nullptr;  ///< the WHERE conjunct being bound
};

const BoundBlock* Binder::BindBlock(const SelectStatement& stmt) {
  BoundBlock& block =
      *out_.blocks.emplace_back(std::make_unique<BoundBlock>());
  block.stmt = &stmt;
  block.id = static_cast<int>(out_.blocks.size()) - 1;
  block.level = static_cast<int>(chain_.size());
  for (const sql::TableRef& ref : stmt.from) {
    if (!ref.relation.exact()) {
      block.error = Status::ExecutionError(
          StrCat("FROM contains unresolved relation '", ref.relation.ToString(),
                 "'; translate the query first"));
      return &block;
    }
    Result<int> rel = catalog_.FindRelation(ref.relation.name);
    if (!rel.ok()) {
      block.error = rel.status();
      return &block;
    }
    if (FindEntry(block, ref.BindingName()) >= 0) {
      block.error = Status::ExecutionError(
          StrCat("duplicate FROM binding '", ref.BindingName(), "'"));
      return &block;
    }
    block.relation_ids.push_back(*rel);
    block.bindings.push_back(ToLower(ref.BindingName()));
  }

  block.aggregates = !stmt.group_by.empty() ||
                     (stmt.having && ContainsAggregate(*stmt.having));
  for (const sql::SelectItem& item : stmt.select_items) {
    block.aggregates = block.aggregates || ContainsAggregate(*item.expr);
  }
  for (const sql::OrderItem& o : stmt.order_by) {
    block.aggregates = block.aggregates || ContainsAggregate(*o.expr);
  }
  if (stmt.having && !block.aggregates) {
    block.error =
        Status::ExecutionError("HAVING clause on a non-aggregate query");
    return &block;
  }

  chain_.push_back(&block);
  for (const sql::SelectItem& item : stmt.select_items) {
    BoundExpr& b =
        block.select_items.emplace_back(BindExpr(*item.expr, block.aggregates));
    if (item.expr->kind != ExprKind::kStar || block.aggregates) continue;
    const int only = item.expr->relation.specified()
                         ? FindEntry(block, item.expr->relation.name)
                         : -1;
    for (size_t f = 0; f < block.bindings.size(); ++f) {
      if (item.expr->relation.specified() && static_cast<int>(f) != only) {
        continue;
      }
      b.star_entries.push_back(static_cast<int>(f));
    }
  }
  std::vector<const Expr*> conjuncts;
  SplitConjuncts(stmt.where.get(), conjuncts);
  block.conjuncts.resize(conjuncts.size());
  for (size_t ci = 0; ci < conjuncts.size(); ++ci) {
    BoundConjunct& c = block.conjuncts[ci];
    conjunct_ = &c;
    c.expr = BindExpr(*conjuncts[ci], /*grouped=*/false);
    conjunct_ = nullptr;
    std::sort(c.tables.begin(), c.tables.end());
  }
  for (const ExprPtr& g : stmt.group_by) {
    block.group_by.push_back(BindExpr(*g, /*grouped=*/false));
  }
  if (stmt.having) {
    block.having = std::make_unique<BoundExpr>(
        BindExpr(*stmt.having, block.aggregates));
  }
  for (const sql::OrderItem& o : stmt.order_by) {
    block.order_by.push_back(BindExpr(*o.expr, block.aggregates));
    int alias = -1;
    if (o.expr->kind == ExprKind::kColumnRef && !o.expr->relation.specified()) {
      for (size_t i = 0; i < stmt.select_items.size() && alias < 0; ++i) {
        const std::string& a = stmt.select_items[i].alias;
        if (!a.empty() && EqualsIgnoreCase(a, o.expr->attribute.name)) {
          alias = static_cast<int>(i);
        }
      }
    }
    block.order_alias.push_back(alias);
  }
  chain_.pop_back();
  return &block;
}

BoundExpr Binder::BindExpr(const Expr& e, bool grouped) {
  BoundExpr b;
  b.expr = &e;
  BoundBlock& block = *chain_.back();
  if (grouped) {
    const SelectStatement& stmt = *block.stmt;
    for (size_t k = 0; k < stmt.group_by.size(); ++k) {
      if (sql::ExprsEqual(e, *stmt.group_by[k])) {
        b.level = block.level;
        b.group_slot = static_cast<int>(k);
        return b;
      }
    }
    if (e.kind == ExprKind::kFunctionCall && IsAggregateName(e.function_name)) {
      std::vector<const Expr*>& calls = block.aggregate_calls;
      size_t j = 0;
      while (j < calls.size() && !sql::ExprsEqual(e, *calls[j])) ++j;
      if (j == calls.size()) calls.push_back(&e);
      b.level = block.level;
      b.group_slot = static_cast<int>(stmt.group_by.size() + j);
      grouped = false;  // the arguments run once per row of the group
    }
  }
  switch (e.kind) {
    case ExprKind::kColumnRef:
      b.error = BindColumn(e, b);
      if (conjunct_ == nullptr) break;
      if (b.level != block.level) {
        conjunct_->local = false;
      } else if (std::find(conjunct_->tables.begin(), conjunct_->tables.end(),
                           b.from) == conjunct_->tables.end()) {
        conjunct_->tables.push_back(b.from);
      }
      break;
    case ExprKind::kStar:
      if (conjunct_ != nullptr) conjunct_->local = false;
      break;
    case ExprKind::kInSubquery:
    case ExprKind::kExistsSubquery:
    case ExprKind::kScalarSubquery: {
      if (conjunct_ != nullptr) conjunct_->local = false;
      BoundConjunct* enclosing = std::exchange(conjunct_, nullptr);
      b.subquery = BindBlock(*e.subquery);
      conjunct_ = enclosing;
      break;
    }
    default:
      break;
  }
  if (e.lhs) b.lhs = std::make_unique<BoundExpr>(BindExpr(*e.lhs, grouped));
  if (e.rhs) b.rhs = std::make_unique<BoundExpr>(BindExpr(*e.rhs, grouped));
  b.args.reserve(e.args.size());
  for (const ExprPtr& a : e.args) b.args.push_back(BindExpr(*a, grouped));
  return b;
}

Status Binder::BindColumn(const Expr& e, BoundExpr& b) {
  const sql::NameRef& relation = e.relation;
  const sql::NameRef& attribute = e.attribute;
  if (!attribute.exact() || (relation.specified() && !relation.exact())) {
    return Status::ExecutionError(
        StrCat("unresolved schema-free element '", relation.ToString(),
               relation.specified() ? "." : "", attribute.ToString(),
               "'; translate the query first"));
  }
  for (int lv = static_cast<int>(chain_.size()) - 1; lv >= 0; --lv) {
    BoundBlock& block = *chain_[lv];
    int from = -1, attr = -1;
    if (relation.specified()) {
      from = FindEntry(block, relation.name);
      if (from < 0) continue;
      attr = catalog_.relation(block.relation_ids[from])
                 .AttributeIndex(attribute.name);
      if (attr < 0) {
        return Status::ExecutionError(
            StrCat("relation '", relation.name, "' has no attribute '",
                   attribute.name, "'"));
      }
    } else {
      for (size_t f = 0; f < block.relation_ids.size(); ++f) {
        int idx = catalog_.relation(block.relation_ids[f])
                      .AttributeIndex(attribute.name);
        if (idx < 0) continue;
        if (from >= 0) {
          return Status::ExecutionError(
              StrCat("ambiguous attribute '", attribute.name, "'"));
        }
        from = static_cast<int>(f);
        attr = idx;
      }
      if (from < 0) continue;
    }
    b.level = lv;
    b.from = from;
    b.attr = attr;
    for (size_t inner = lv + 1; inner < chain_.size(); ++inner) {
      chain_[inner]->correlated = true;
    }
    return Status::OK();
  }
  return Status::ExecutionError(
      StrCat("cannot resolve column '",
             relation.specified() ? relation.ToString() + "." : "",
             attribute.ToString(), "'"));
}

}  // namespace

Binding Bind(const catalog::Catalog& catalog, const SelectStatement& stmt) {
  Binding binding;
  Binder(catalog, binding).BindBlock(stmt);
  return binding;
}

}  // namespace sfsql::exec
