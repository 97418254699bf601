#ifndef SFSQL_EXEC_BINDER_H_
#define SFSQL_EXEC_BINDER_H_

#include <memory>
#include <string>
#include <vector>

#include "catalog/catalog.h"
#include "common/status.h"
#include "sql/ast.h"

namespace sfsql::exec {

struct BoundBlock;

/// One expression with its names resolved: a shadow of the sql::Expr it
/// points at, mirroring its lhs / rhs / args one for one. The planner
/// classifies conjuncts and the executor evaluates through these nodes; the
/// AST itself is never written.
struct BoundExpr {
  const sql::Expr* expr = nullptr;
  std::unique_ptr<BoundExpr> lhs;
  std::unique_ptr<BoundExpr> rhs;
  std::vector<BoundExpr> args;
  /// The frame — block nesting level, 0 = the statement — a column ref
  /// reads, or whose group row a group slot reads. -1: the ref did not bind.
  int level = -1;
  int from = -1;  ///< column ref: FROM entry of that block
  int attr = -1;  ///< column ref: attribute of that entry's relation
  /// A column ref that did not bind fails with this when evaluated.
  Status error;
  /// In the SELECT list, HAVING and ORDER BY of an aggregating block: the
  /// index in the group row (GROUP BY keys first, then the block's distinct
  /// aggregate calls); -1 elsewhere.
  int group_slot = -1;
  const BoundBlock* subquery = nullptr;  ///< subquery kinds
  std::vector<int> star_entries;  ///< SELECT-list star: FROM entries, in order
};

/// One top-level WHERE conjunct and the FROM entries it reads.
struct BoundConjunct {
  BoundExpr expr;
  /// Every column ref binds to this block's FROM, and there is no subquery
  /// or star: the planner may evaluate it below the join.
  bool local = true;
  std::vector<int> tables;  ///< FROM entries read, ascending
};

/// One query block (the statement or a subquery) with its names resolved.
struct BoundBlock {
  const sql::SelectStatement* stmt = nullptr;
  int id = 0;     ///< index in Binding::blocks
  int level = 0;  ///< nesting depth: the frame its rows occupy
  /// An unresolved or unknown FROM relation, a duplicate binding, or HAVING
  /// on a block that does not aggregate. Set: nothing below the FROM list
  /// was bound, and running the block fails.
  Status error;
  std::vector<int> relation_ids;      ///< per FROM entry
  std::vector<std::string> bindings;  ///< per FROM entry, lower-cased
  std::vector<BoundExpr> select_items;
  std::vector<BoundConjunct> conjuncts;  ///< WHERE, split on top-level AND
  std::vector<BoundExpr> group_by;
  std::unique_ptr<BoundExpr> having;
  std::vector<BoundExpr> order_by;
  /// Per ORDER BY item: the select item whose alias it names, or -1.
  std::vector<int> order_alias;
  /// GROUP BY present, or an aggregate call in SELECT / HAVING / ORDER BY.
  bool aggregates = false;
  /// The distinct aggregate calls, group-row slots group_by.size() onward.
  std::vector<const sql::Expr*> aggregate_calls;
  /// Some column ref in the block or below it reads an enclosing block's
  /// row. An uncorrelated block has one answer per execution.
  bool correlated = false;
};

/// Every block of one statement, bound in one pass.
struct Binding {
  std::vector<std::unique_ptr<BoundBlock>> blocks;  ///< blocks[0]: statement
  const BoundBlock& root() const { return *blocks[0]; }
};

/// Binds `stmt` and every subquery in it. A column ref looks in its own
/// block's FROM first and moves outward on "not found"; an ambiguous bare
/// name, a missing attribute of a named entry, or a schema-free name stops
/// the search with an error that the ref keeps until it is evaluated. GROUP
/// BY keys are matched with sql::ExprsEqual. Never fails as a whole.
Binding Bind(const catalog::Catalog& catalog, const sql::SelectStatement& stmt);

/// True if `name` is one of the five aggregate functions.
bool IsAggregateName(const std::string& name);

}  // namespace sfsql::exec

#endif  // SFSQL_EXEC_BINDER_H_
