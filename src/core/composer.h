#ifndef SFSQL_CORE_COMPOSER_H_
#define SFSQL_CORE_COMPOSER_H_

#include <string>
#include <vector>

#include "common/result.h"
#include "core/join_network.h"
#include "core/mapper.h"
#include "core/relation_tree.h"
#include "sql/ast.h"

namespace sfsql::core {

/// The Standard SQL Composer (§6.2): given one MTJN, rewrites the annotated
/// schema-free statement into fully specified SQL by
///  1. replacing every vague relation/attribute name with the mapped names,
///  2. filling FROM with the network's relations (AS-aliased when repeated),
///  3. adding the network's FK-PK join conditions to WHERE (and dropping the
///     user's join fragments, which the network subsumes).
///
/// Subqueries are carried over untouched; the engine translates them
/// block-by-block afterwards (§2.2.5).
class SqlComposer {
 public:
  SqlComposer(const ExtendedViewGraph* graph,
              const std::vector<MappingSet>* mappings)
      : graph_(graph), mappings_(mappings) {}

  /// Composes the full SQL statement for `network`. `stmt` must carry the
  /// rt_id/at_index annotations produced by ExtractRelationTrees, and
  /// `network` must be total for the extraction's relation trees.
  Result<sql::SelectPtr> Compose(const sql::SelectStatement& stmt,
                                 const Extraction& extraction,
                                 const JoinNetwork& network) const;

 private:
  const ExtendedViewGraph* graph_;
  const std::vector<MappingSet>* mappings_;
};

}  // namespace sfsql::core

#endif  // SFSQL_CORE_COMPOSER_H_
