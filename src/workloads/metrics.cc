#include "workloads/metrics.h"

#include <algorithm>
#include <map>
#include <functional>
#include <set>

#include "common/macros.h"
#include "common/strings.h"
#include "exec/executor.h"
#include "exec/like.h"
#include "sql/parser.h"

namespace sfsql::workloads {

using sql::Expr;
using sql::ExprKind;
using sql::ExprPtr;
using sql::SelectStatement;

namespace {

/// Walks every expression of a statement, subqueries included.
void WalkAllExprs(const SelectStatement& stmt,
                  const std::function<void(const Expr&)>& fn) {
  std::function<void(const Expr&)> walk = [&](const Expr& e) {
    fn(e);
    if (e.lhs) walk(*e.lhs);
    if (e.rhs) walk(*e.rhs);
    for (const ExprPtr& a : e.args) walk(*a);
    if (e.subquery) {
      for (const sql::SelectItem& item : e.subquery->select_items) {
        walk(*item.expr);
      }
      if (e.subquery->where) walk(*e.subquery->where);
      for (const ExprPtr& g : e.subquery->group_by) walk(*g);
      if (e.subquery->having) walk(*e.subquery->having);
      for (const sql::OrderItem& o : e.subquery->order_by) walk(*o.expr);
    }
  };
  for (const sql::SelectItem& item : stmt.select_items) walk(*item.expr);
  if (stmt.where) walk(*stmt.where);
  for (const ExprPtr& g : stmt.group_by) walk(*g);
  if (stmt.having) walk(*stmt.having);
  for (const sql::OrderItem& o : stmt.order_by) walk(*o.expr);
}

/// Collects FROM items of a statement and of every nested block.
void CollectFrom(const SelectStatement& stmt,
                 std::vector<const sql::TableRef*>& out) {
  for (const sql::TableRef& ref : stmt.from) out.push_back(&ref);
  std::function<void(const Expr&)> walk = [&](const Expr& e) {
    if (e.subquery) CollectFrom(*e.subquery, out);
    if (e.lhs) walk(*e.lhs);
    if (e.rhs) walk(*e.rhs);
    for (const ExprPtr& a : e.args) walk(*a);
  };
  for (const sql::SelectItem& item : stmt.select_items) walk(*item.expr);
  if (stmt.where) walk(*stmt.where);
  if (stmt.having) walk(*stmt.having);
}

/// Top-level conjuncts of one block's WHERE.
void Conjuncts(const Expr* e, std::vector<const Expr*>& out) {
  if (e == nullptr) return;
  if (e->kind == ExprKind::kBinary && e->bop == sql::BinaryOp::kAnd) {
    Conjuncts(e->lhs.get(), out);
    Conjuncts(e->rhs.get(), out);
    return;
  }
  out.push_back(e);
}

bool IsColEqCol(const Expr& e) {
  return e.kind == ExprKind::kBinary && e.bop == sql::BinaryOp::kEq &&
         e.lhs->kind == ExprKind::kColumnRef &&
         e.rhs->kind == ExprKind::kColumnRef;
}

/// `v op value` as the satisfiability probes define it: NULLs and values of
/// another type class satisfy nothing.
bool Satisfies(const storage::Value& v, std::string_view op,
               const storage::Value& value) {
  if (v.is_null() || value.is_null()) return false;
  if (!(v.is_numeric() && value.is_numeric()) && v.type() != value.type()) {
    return false;
  }
  if (op == "=") return v.Equals(value);
  if (op == "<>" || op == "!=") return !v.Equals(value);
  const int cmp = v.Compare(value);
  return (op == "<" && cmp < 0) || (op == "<=" && cmp <= 0) ||
         (op == ">" && cmp > 0) || (op == ">=" && cmp >= 0);
}

}  // namespace

void RecordRunMetadata(obs::BenchReport* report, const storage::Database& db,
                       const exec::Executor* executor) {
  report->SetConfig("dataset_total_rows",
                    static_cast<long long>(db.TotalRows()));
  const catalog::Catalog& cat = db.catalog();
  for (int r = 0; r < cat.num_relations(); ++r) {
    report->AddRow("dataset",
                   obs::BenchReport::Row()
                       .Text("relation", cat.relation(r).name)
                       .Number("rows",
                               static_cast<double>(db.table(r).num_rows())));
  }
  const storage::ColumnIndexStats s = db.column_index_stats();
  report->SetMetric("sat_index_probes",
                    static_cast<double>(s.value_probes + s.like_probes));
  report->SetMetric("index_builds", static_cast<double>(s.builds));
  report->SetMetric("index_build_seconds", s.build_seconds);
  report->SetMetric("like_candidates_verified",
                    static_cast<double>(s.like_candidates_verified));
  if (executor != nullptr) {
    const exec::ExecStats e = executor->stats();
    for (const exec::ExecCounter& c : exec::kExecCounters) {
      report->SetMetric(StrCat("exec_", c.name),
                        static_cast<double>(e.*c.field));
    }
  }
}

Result<int> SchemaFreeInfoUnits(std::string_view sfsql) {
  SFSQL_ASSIGN_OR_RETURN(sql::SelectPtr stmt, sql::ParseSelect(sfsql));
  std::set<std::string> names;
  std::vector<const sql::TableRef*> from;
  CollectFrom(*stmt, from);
  for (const sql::TableRef* ref : from) {
    if (ref->relation.has_name_hint()) names.insert(ToLower(ref->relation.name));
  }
  WalkAllExprs(*stmt, [&](const Expr& e) {
    if (e.kind != ExprKind::kColumnRef && e.kind != ExprKind::kStar) return;
    if (e.relation.has_name_hint()) names.insert(ToLower(e.relation.name));
    if (e.kind == ExprKind::kColumnRef && e.attribute.has_name_hint()) {
      names.insert(ToLower(e.attribute.name));
    }
  });
  return static_cast<int>(names.size());
}

Result<int> FullSqlInfoUnits(std::string_view sql_text) {
  SFSQL_ASSIGN_OR_RETURN(sql::SelectPtr stmt, sql::ParseSelect(sql_text));
  int units = 0;
  std::vector<const sql::TableRef*> from;
  CollectFrom(*stmt, from);
  units += static_cast<int>(from.size());
  WalkAllExprs(*stmt, [&](const Expr& e) {
    if (e.kind == ExprKind::kColumnRef) ++units;
  });
  return units;
}

Result<int> GuiInfoUnits(const catalog::Catalog& catalog,
                         std::string_view sql_text) {
  SFSQL_ASSIGN_OR_RETURN(sql::SelectPtr stmt, sql::ParseSelect(sql_text));
  (void)catalog;
  int units = 0;

  // Recursive per block: FROM mentions + column mentions outside FK-join
  // conjuncts (the builder auto-completes join conditions).
  std::function<void(const SelectStatement&)> block =
      [&](const SelectStatement& s) {
        units += static_cast<int>(s.from.size());
        std::vector<const Expr*> conjuncts;
        Conjuncts(s.where.get(), conjuncts);
        std::set<const Expr*> join_cols;
        for (const Expr* c : conjuncts) {
          if (IsColEqCol(*c)) {
            join_cols.insert(c->lhs.get());
            join_cols.insert(c->rhs.get());
          }
        }
        std::function<void(const Expr&)> walk = [&](const Expr& e) {
          if (e.kind == ExprKind::kColumnRef && join_cols.count(&e) == 0) {
            ++units;
          }
          if (e.lhs) walk(*e.lhs);
          if (e.rhs) walk(*e.rhs);
          for (const ExprPtr& a : e.args) walk(*a);
          if (e.subquery) block(*e.subquery);
        };
        for (const sql::SelectItem& item : s.select_items) walk(*item.expr);
        if (s.where) walk(*s.where);
        for (const ExprPtr& g : s.group_by) walk(*g);
        if (s.having) walk(*s.having);
        for (const sql::OrderItem& o : s.order_by) walk(*o.expr);
      };
  block(*stmt);
  return units;
}

Result<core::NetworkSummary> AnalyzeGold(const catalog::Catalog& catalog,
                                         std::string_view gold_sql) {
  SFSQL_ASSIGN_OR_RETURN(sql::SelectPtr stmt, sql::ParseSelect(gold_sql));
  core::NetworkSummary out;
  std::map<std::string, int> binding_to_rel;
  for (const sql::TableRef& ref : stmt->from) {
    if (!ref.relation.exact()) {
      return Status::InvalidArgument("gold SQL must be fully specified");
    }
    SFSQL_ASSIGN_OR_RETURN(int rel, catalog.FindRelation(ref.relation.name));
    out.relations.push_back(rel);
    binding_to_rel[ToLower(ref.BindingName())] = rel;
  }
  std::vector<const Expr*> conjuncts;
  Conjuncts(stmt->where.get(), conjuncts);
  for (const Expr* c : conjuncts) {
    if (!IsColEqCol(*c)) continue;
    auto side = [&](const Expr& col) -> std::pair<int, int> {
      if (!col.relation.exact()) return {-1, -1};
      auto it = binding_to_rel.find(ToLower(col.relation.name));
      if (it == binding_to_rel.end()) return {-1, -1};
      int attr = catalog.relation(it->second).AttributeIndex(col.attribute.name);
      return {it->second, attr};
    };
    auto [ra, aa] = side(*c->lhs);
    auto [rb, ab] = side(*c->rhs);
    if (ra < 0 || rb < 0 || aa < 0 || ab < 0) continue;
    for (int f = 0; f < catalog.num_foreign_keys(); ++f) {
      const catalog::ForeignKey& fk = catalog.foreign_key(f);
      bool forward = fk.from_relation == ra && fk.from_attribute == aa &&
                     fk.to_relation == rb && fk.to_attribute == ab;
      bool backward = fk.from_relation == rb && fk.from_attribute == ab &&
                      fk.to_relation == ra && fk.to_attribute == aa;
      if (forward || backward) {
        out.fk_edges.push_back(f);
        break;
      }
    }
  }
  std::sort(out.relations.begin(), out.relations.end());
  std::sort(out.fk_edges.begin(), out.fk_edges.end());
  return out;
}

Result<bool> TranslationMatchesGold(const storage::Database& db,
                                    const core::Translation& translation,
                                    std::string_view gold_sql) {
  SFSQL_ASSIGN_OR_RETURN(core::NetworkSummary gold,
                         AnalyzeGold(db.catalog(), gold_sql));
  if (!(translation.network == gold)) return false;
  exec::Executor executor(&db);
  SFSQL_ASSIGN_OR_RETURN(exec::QueryResult got,
                         executor.Execute(*translation.statement));
  SFSQL_ASSIGN_OR_RETURN(exec::QueryResult want, executor.ExecuteSql(gold_sql));
  return got.SameRows(want);
}

namespace {

ExprPtr DoubleNegateConjuncts(ExprPtr e) {
  if (e->kind == ExprKind::kBinary && e->bop == sql::BinaryOp::kAnd) {
    e->lhs = DoubleNegateConjuncts(std::move(e->lhs));
    e->rhs = DoubleNegateConjuncts(std::move(e->rhs));
    return e;
  }
  return Expr::Unary(sql::UnaryOp::kNot,
                     Expr::Unary(sql::UnaryOp::kNot, std::move(e)));
}

}  // namespace

Result<exec::QueryResult> ExecuteTwin(exec::Executor& executor,
                                      std::string_view sql) {
  SFSQL_ASSIGN_OR_RETURN(sql::SelectPtr stmt, sql::ParseSelect(sql));
  if (stmt->where) stmt->where = DoubleNegateConjuncts(std::move(stmt->where));
  return executor.Execute(*stmt);
}

bool ScanConditionSatisfiable(const storage::Database& db, int relation_id,
                              int attr_index, const core::Condition& cond) {
  if (!db.HasColumn(relation_id, attr_index)) return false;
  // IN is one equality scan per value; LIKE takes its pattern and optional
  // escape from the values, as RelationTreeMapper does.
  std::string_view op = cond.op;
  std::vector<storage::Value> probes = cond.values;
  char escape = '\0';
  if (op == "in") {
    op = "=";
  } else if (op == "like") {
    if (probes.empty() || !probes[0].is_string()) return false;
    if (probes.size() > 1 && probes[1].is_string()) {
      escape = exec::LikeEscapeChar(probes[1].AsString());
    }
    probes.resize(1);
  } else {
    probes.resize(std::min<size_t>(probes.size(), 1));  // compares values[0]
  }
  const std::shared_ptr<const storage::Table> pinned = db.Pin(relation_id);
  const storage::Table& table = *pinned;
  for (const storage::Value& probe : probes) {
    const auto compare =
        storage::ColumnPredicate::Compare(std::string(op), probe);
    for (size_t c = 0; c < table.num_chunks(); ++c) {
      const storage::Chunk& chunk = table.chunk(c);
      // Chunk statistics rule out most chunks without reading the column.
      if (op == "like" ? chunk.stats(attr_index).all_null()
                       : chunk.stats(attr_index).CanPrune(compare)) {
        continue;
      }
      for (const storage::Value& v : chunk.column(attr_index)) {
        if (op == "like" ? v.is_string() && exec::LikeMatch(v.AsString(),
                                                            probe.AsString(),
                                                            escape)
                         : Satisfies(v, op, probe)) {
          return true;
        }
      }
    }
  }
  return false;
}

}  // namespace sfsql::workloads
