#ifndef SFSQL_SQL_PARSER_H_
#define SFSQL_SQL_PARSER_H_

#include <string_view>

#include "common/result.h"
#include "sql/ast.h"

namespace sfsql::sql {

/// Parses one (schema-free or full) SQL SELECT statement.
///
/// Full SQL is the degenerate case with every name exact and the FROM clause
/// populated; schema-free SQL may use `foo?`, `?x`, `?` name elements, omit FROM
/// entirely, or mention relations outside FROM (§2.1). A trailing ';' is allowed.
Result<SelectPtr> ParseSelect(std::string_view input);

}  // namespace sfsql::sql

#endif  // SFSQL_SQL_PARSER_H_
