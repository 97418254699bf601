#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "sql/ast.h"
#include "sql/canonicalize.h"
#include "sql/lexer.h"
#include "sql/parser.h"
#include "sql/printer.h"
#include "workloads/movie43.h"

namespace sfsql::sql {
namespace {

// ---------------------------------------------------------------------------
// Lexer
// ---------------------------------------------------------------------------

TEST(LexerTest, VagueAndPlaceholderTokens) {
  auto tokens = Lex("actor?.name? ?x ? year");
  ASSERT_TRUE(tokens.ok());
  const auto& t = *tokens;
  EXPECT_EQ(t[0].type, TokenType::kVagueIdentifier);
  EXPECT_EQ(t[0].text, "actor");
  EXPECT_TRUE(t[1].IsSymbol("."));
  EXPECT_EQ(t[2].type, TokenType::kVagueIdentifier);
  EXPECT_EQ(t[2].text, "name");
  EXPECT_EQ(t[3].type, TokenType::kPlaceholder);
  EXPECT_EQ(t[3].text, "x");
  EXPECT_EQ(t[4].type, TokenType::kAnonymousMark);
  EXPECT_EQ(t[5].type, TokenType::kIdentifier);
  EXPECT_EQ(t[5].text, "year");
  EXPECT_EQ(t.back().type, TokenType::kEnd);
}

TEST(LexerTest, NumbersAndStrings) {
  auto tokens = Lex("1995 3.5 1e3 \"20th Century Fox\" 'it''s'");
  ASSERT_TRUE(tokens.ok());
  const auto& t = *tokens;
  EXPECT_EQ(t[0].type, TokenType::kIntLiteral);
  EXPECT_EQ(t[0].int_value, 1995);
  EXPECT_EQ(t[1].type, TokenType::kDoubleLiteral);
  EXPECT_DOUBLE_EQ(t[1].double_value, 3.5);
  EXPECT_EQ(t[2].type, TokenType::kDoubleLiteral);
  EXPECT_DOUBLE_EQ(t[2].double_value, 1000.0);
  EXPECT_EQ(t[3].type, TokenType::kStringLiteral);
  EXPECT_EQ(t[3].text, "20th Century Fox");
  EXPECT_EQ(t[4].type, TokenType::kStringLiteral);
  EXPECT_EQ(t[4].text, "it's");
}

TEST(LexerTest, MultiCharSymbols) {
  auto tokens = Lex("<= >= <> != < >");
  ASSERT_TRUE(tokens.ok());
  EXPECT_TRUE((*tokens)[0].IsSymbol("<="));
  EXPECT_TRUE((*tokens)[1].IsSymbol(">="));
  EXPECT_TRUE((*tokens)[2].IsSymbol("<>"));
  EXPECT_TRUE((*tokens)[3].IsSymbol("<>"));  // != normalizes to <>
  EXPECT_TRUE((*tokens)[4].IsSymbol("<"));
  EXPECT_TRUE((*tokens)[5].IsSymbol(">"));
}

TEST(LexerTest, Comments) {
  auto tokens = Lex("a -- comment\n b");
  ASSERT_TRUE(tokens.ok());
  EXPECT_EQ((*tokens)[0].text, "a");
  EXPECT_EQ((*tokens)[1].text, "b");
}

TEST(LexerTest, Errors) {
  EXPECT_FALSE(Lex("'unterminated").ok());
  EXPECT_FALSE(Lex("1e+").ok());
  EXPECT_FALSE(Lex("@").ok());
}

TEST(LexerTest, IntegerLiteralRange) {
  auto max = Lex("9223372036854775807");
  ASSERT_TRUE(max.ok());
  EXPECT_EQ((*max)[0].int_value, std::numeric_limits<int64_t>::max());
  // Out-of-range literals are parse errors, not silently saturated values:
  // -9223372036854775808 negates the literal 9223372036854775808, which
  // int64 cannot hold.
  for (const char* sql : {"SELECT -9223372036854775808",
                          "SELECT 99999999999999999999",
                          "SELECT 9223372036854775808"}) {
    auto stmt = ParseSelect(sql);
    ASSERT_FALSE(stmt.ok()) << sql;
    EXPECT_EQ(stmt.status().code(), StatusCode::kParseError) << sql;
  }
}

// ---------------------------------------------------------------------------
// Parser + printer round trips
// ---------------------------------------------------------------------------

std::string RoundTrip(const std::string& sql) {
  auto stmt = ParseSelect(sql);
  EXPECT_TRUE(stmt.ok()) << stmt.status().ToString() << " for: " << sql;
  if (!stmt.ok()) return "";
  return PrintSelect(**stmt);
}

TEST(ParserTest, FullSqlRoundTrip) {
  EXPECT_EQ(RoundTrip("SELECT name FROM Person WHERE gender = 'male'"),
            "SELECT name FROM Person WHERE gender = 'male'");
}

TEST(ParserTest, SchemaFreeElements) {
  std::string sql =
      "SELECT count(actor?.name?) WHERE actor?.gender? = 'male' AND "
      "director_name? = 'James Cameron' AND year? > 1995 AND year? < 2005";
  auto stmt = ParseSelect(sql);
  ASSERT_TRUE(stmt.ok()) << stmt.status().ToString();
  EXPECT_TRUE((*stmt)->from.empty());
  const Expr& count = *(*stmt)->select_items[0].expr;
  ASSERT_EQ(count.kind, ExprKind::kFunctionCall);
  const Expr& col = *count.args[0];
  EXPECT_EQ(col.relation.kind, NameKind::kVague);
  EXPECT_EQ(col.relation.name, "actor");
  EXPECT_EQ(col.attribute.kind, NameKind::kVague);
  EXPECT_EQ(col.attribute.name, "name");
  // Round trip keeps the markers.
  EXPECT_EQ(RoundTrip(sql),
            "SELECT count(actor?.name?) WHERE actor?.gender? = 'male' AND "
            "director_name? = 'James Cameron' AND year? > 1995 AND year? < 2005");
}

TEST(ParserTest, PlaceholdersGetDistinctAnonymousNames) {
  auto stmt = ParseSelect("SELECT ?x, ?, ? WHERE ?x > 3");
  ASSERT_TRUE(stmt.ok());
  const auto& items = (*stmt)->select_items;
  EXPECT_EQ(items[0].expr->attribute.kind, NameKind::kPlaceholder);
  EXPECT_EQ(items[0].expr->attribute.name, "x");
  EXPECT_EQ(items[1].expr->attribute.kind, NameKind::kAnonymous);
  EXPECT_EQ(items[2].expr->attribute.kind, NameKind::kAnonymous);
  EXPECT_NE(items[1].expr->attribute.name, items[2].expr->attribute.name);
}

TEST(ParserTest, FromAliases) {
  auto stmt = ParseSelect(
      "SELECT p1.name FROM Person AS p1, Person p2, Actor WHERE p1.person_id = "
      "p2.person_id");
  ASSERT_TRUE(stmt.ok());
  ASSERT_EQ((*stmt)->from.size(), 3u);
  EXPECT_EQ((*stmt)->from[0].alias, "p1");
  EXPECT_EQ((*stmt)->from[1].alias, "p2");
  EXPECT_EQ((*stmt)->from[2].alias, "");
  EXPECT_EQ((*stmt)->from[2].BindingName(), "Actor");
}

TEST(ParserTest, VagueRelationInFrom) {
  auto stmt = ParseSelect("SELECT name? FROM actor?, movie?");
  ASSERT_TRUE(stmt.ok());
  EXPECT_EQ((*stmt)->from[0].relation.kind, NameKind::kVague);
  EXPECT_EQ((*stmt)->from[1].relation.name, "movie");
}

TEST(ParserTest, OperatorPrecedence) {
  EXPECT_EQ(RoundTrip("SELECT a WHERE x = 1 OR y = 2 AND z = 3"),
            "SELECT a WHERE x = 1 OR y = 2 AND z = 3");
  EXPECT_EQ(RoundTrip("SELECT a WHERE (x = 1 OR y = 2) AND z = 3"),
            "SELECT a WHERE (x = 1 OR y = 2) AND z = 3");
  EXPECT_EQ(RoundTrip("SELECT a + b * c"), "SELECT a + b * c");
  EXPECT_EQ(RoundTrip("SELECT (a + b) * c"), "SELECT (a + b) * c");
}

TEST(ParserTest, NotInBetweenLikeIsNull) {
  EXPECT_EQ(RoundTrip("SELECT a WHERE x NOT IN (1, 2, 3)"),
            "SELECT a WHERE x NOT IN (1, 2, 3)");
  EXPECT_EQ(RoundTrip("SELECT a WHERE x BETWEEN 1 AND 5"),
            "SELECT a WHERE x BETWEEN 1 AND 5");
  EXPECT_EQ(RoundTrip("SELECT a WHERE x NOT BETWEEN 1 AND 5"),
            "SELECT a WHERE x NOT BETWEEN 1 AND 5");
  EXPECT_EQ(RoundTrip("SELECT a WHERE name LIKE 'J%'"),
            "SELECT a WHERE name LIKE 'J%'");
  EXPECT_EQ(RoundTrip("SELECT a WHERE x IS NOT NULL"),
            "SELECT a WHERE x IS NOT NULL");
  // NOT is printed with explicit parentheses.
  EXPECT_EQ(RoundTrip("SELECT a WHERE NOT x = 1"), "SELECT a WHERE NOT (x = 1)");
}

TEST(ParserTest, LikeEscape) {
  EXPECT_EQ(RoundTrip("SELECT a WHERE name LIKE '100!%' ESCAPE '!'"),
            "SELECT a WHERE name LIKE '100!%' ESCAPE '!'");
  EXPECT_EQ(RoundTrip("SELECT a WHERE name NOT LIKE 'J!_%' ESCAPE '!'"),
            "SELECT a WHERE NOT (name LIKE 'J!_%' ESCAPE '!')");
  // ESCAPE demands a single-character string literal.
  EXPECT_FALSE(ParseSelect("SELECT a WHERE name LIKE 'x%' ESCAPE 'ab'").ok());
  EXPECT_FALSE(ParseSelect("SELECT a WHERE name LIKE 'x%' ESCAPE ''").ok());
  EXPECT_FALSE(ParseSelect("SELECT a WHERE name LIKE 'x%' ESCAPE x").ok());
}

TEST(ParserTest, Subqueries) {
  EXPECT_EQ(
      RoundTrip("SELECT a FROM T WHERE x IN (SELECT y FROM U WHERE z = 1)"),
      "SELECT a FROM T WHERE x IN (SELECT y FROM U WHERE z = 1)");
  EXPECT_EQ(RoundTrip("SELECT a FROM T WHERE EXISTS (SELECT b FROM U)"),
            "SELECT a FROM T WHERE EXISTS (SELECT b FROM U)");
  EXPECT_EQ(RoundTrip("SELECT a FROM T WHERE NOT EXISTS (SELECT b FROM U)"),
            "SELECT a FROM T WHERE NOT EXISTS (SELECT b FROM U)");
  EXPECT_EQ(RoundTrip("SELECT a FROM T WHERE x > (SELECT avg(y) FROM U)"),
            "SELECT a FROM T WHERE x > (SELECT avg(y) FROM U)");
}

TEST(ParserTest, GroupHavingOrderLimit) {
  EXPECT_EQ(
      RoundTrip("SELECT dept, count(*) FROM Emp GROUP BY dept HAVING count(*) > "
                "2 ORDER BY dept DESC LIMIT 10"),
      "SELECT dept, count(*) FROM Emp GROUP BY dept HAVING count(*) > 2 ORDER "
      "BY dept DESC LIMIT 10");
  EXPECT_EQ(RoundTrip("SELECT a FROM T ORDER BY a ASC, b DESC"),
            "SELECT a FROM T ORDER BY a, b DESC");
}

TEST(ParserTest, DistinctAndStar) {
  EXPECT_EQ(RoundTrip("SELECT DISTINCT name FROM Person"),
            "SELECT DISTINCT name FROM Person");
  EXPECT_EQ(RoundTrip("SELECT * FROM Person"), "SELECT * FROM Person");
  EXPECT_EQ(RoundTrip("SELECT count(*) FROM Person"),
            "SELECT count(*) FROM Person");
  EXPECT_EQ(RoundTrip("SELECT count(DISTINCT name) FROM Person"),
            "SELECT count(DISTINCT name) FROM Person");
  // Aliases normalize to the explicit AS form.
  EXPECT_EQ(RoundTrip("SELECT p.* FROM Person p"), "SELECT p.* FROM Person AS p");
}

TEST(ParserTest, SelectAliases) {
  auto stmt = ParseSelect("SELECT name AS n, count(*) total FROM T GROUP BY name");
  ASSERT_TRUE(stmt.ok());
  EXPECT_EQ((*stmt)->select_items[0].alias, "n");
  EXPECT_EQ((*stmt)->select_items[1].alias, "total");
}

TEST(ParserTest, TrailingSemicolonAllowed) {
  EXPECT_TRUE(ParseSelect("SELECT a FROM T;").ok());
}

TEST(ParserTest, Errors) {
  EXPECT_FALSE(ParseSelect("").ok());
  EXPECT_FALSE(ParseSelect("SELECT").ok());
  EXPECT_FALSE(ParseSelect("SELECT a FROM").ok());
  EXPECT_FALSE(ParseSelect("SELECT a WHERE").ok());
  EXPECT_FALSE(ParseSelect("SELECT a FROM T GROUP dept").ok());
  EXPECT_FALSE(ParseSelect("SELECT a FROM T LIMIT x").ok());
  EXPECT_FALSE(ParseSelect("SELECT a FROM T extra garbage").ok());
  EXPECT_FALSE(ParseSelect("SELECT a WHERE x BETWEEN 1 OR 2").ok());
  EXPECT_FALSE(ParseSelect("SELECT count(").ok());
}

TEST(ParserTest, ReservedWordsCannotBeNames) {
  EXPECT_FALSE(ParseSelect("SELECT select FROM T").ok());
  EXPECT_FALSE(ParseSelect("SELECT a FROM where").ok());
}

// ---------------------------------------------------------------------------
// AST utilities
// ---------------------------------------------------------------------------

TEST(AstTest, CloneIsDeep) {
  auto stmt = ParseSelect(
      "SELECT count(actor?.name?) FROM Person WHERE x IN (SELECT y FROM U) AND "
      "z BETWEEN 1 AND 2 ORDER BY ?w");
  ASSERT_TRUE(stmt.ok());
  SelectPtr clone = (*stmt)->Clone();
  EXPECT_EQ(PrintSelect(**stmt), PrintSelect(*clone));
  // Mutating the clone must not touch the original.
  clone->select_items[0].expr->function_name = "sum";
  EXPECT_NE(PrintSelect(**stmt), PrintSelect(*clone));
}

TEST(AstTest, NameRefToString) {
  EXPECT_EQ(NameRef::Exact("Person").ToString(), "Person");
  EXPECT_EQ(NameRef::Vague("actor").ToString(), "actor?");
  EXPECT_EQ(NameRef::Placeholder("x").ToString(), "?x");
  EXPECT_EQ(NameRef::Anonymous("#1").ToString(), "?");
  EXPECT_EQ(NameRef::Unspecified().ToString(), "");
}

TEST(AstTest, ForEachTopLevelExprVisitsAllClauses) {
  auto stmt = ParseSelect(
      "SELECT a, b FROM T WHERE c = 1 GROUP BY d HAVING count(*) > 0 ORDER BY e");
  ASSERT_TRUE(stmt.ok());
  int count = 0;
  ForEachTopLevelExpr(**stmt, [&](ExprPtr&) { ++count; });
  EXPECT_EQ(count, 6);  // a, b, where, group, having, order
}

// ---------------------------------------------------------------------------
// Canonicalization (the plan cache's structural key)

TEST(CanonicalizeTest, StripsLiteralsIntoTypedSlots) {
  auto stmt = ParseSelect(
      "SELECT title? WHERE genre? = 'Drama' AND year? > 1990 "
      "AND score? >= 7.5 AND active? = TRUE");
  ASSERT_TRUE(stmt.ok());
  CanonicalQuery canonical = Canonicalize(**stmt);
  ASSERT_EQ(canonical.literals.size(), 3u);  // bool stays structural
  EXPECT_EQ(canonical.literals[0].AsString(), "Drama");
  EXPECT_EQ(canonical.literals[1].AsInt(), 1990);
  EXPECT_EQ(canonical.literals[2].AsDouble(), 7.5);

  // Slot placeholders decode to their index in walk order; nothing else does.
  int next_slot = 0;
  ForEachLiteral(*canonical.statement, [&](const Expr& e) {
    int slot = DecodeSlot(e.literal);
    if (e.literal.is_bool() || e.literal.is_null()) {
      EXPECT_EQ(slot, -1);
    } else {
      EXPECT_EQ(slot, next_slot++);
    }
  });
  EXPECT_EQ(next_slot, 3);
}

TEST(CanonicalizeTest, LiteralValuesDoNotSplitTheKey) {
  auto a = ParseSelect("SELECT title? WHERE genre? = 'Drama' AND year? > 1990");
  auto b = ParseSelect("SELECT title? WHERE genre? = 'Action' AND year? > 2005");
  auto c = ParseSelect("SELECT title? WHERE genre? = 'Drama' AND year? < 1990");
  ASSERT_TRUE(a.ok() && b.ok() && c.ok());
  CanonicalQuery ca = Canonicalize(**a);
  CanonicalQuery cb = Canonicalize(**b);
  CanonicalQuery cc = Canonicalize(**c);
  EXPECT_EQ(ca.text, cb.text);
  EXPECT_EQ(ca.fingerprint, cb.fingerprint);
  EXPECT_TRUE(StatementsEqual(*ca.statement, *cb.statement));
  EXPECT_NE(ca.text, cc.text) << "operators are structure, not literals";
}

/// The plan cache requires Print(Canonicalize(Parse(q))) to re-parse to an
/// equal AST: if printer or parser drift breaks this, canonical keys would
/// silently split or alias. Guarded here over the entire movie43 workload
/// (17 textbook + 6 sophisticated + 30 user variants), both for the
/// canonical form and for the plain parse -> print -> parse round trip.
TEST(CanonicalizeTest, Movie43WorkloadRoundTrips) {
  std::vector<std::string> queries;
  for (const auto& q : workloads::TextbookQueries()) queries.push_back(q.sfsql);
  for (const auto& q : workloads::SophisticatedQueries()) {
    queries.push_back(q.sfsql);
  }
  for (int i = 0; i < 6; ++i) {
    for (const std::string& v : workloads::UserVariants(i)) {
      queries.push_back(v);
    }
  }
  ASSERT_EQ(queries.size(), 53u);

  for (const std::string& q : queries) {
    auto stmt = ParseSelect(q);
    ASSERT_TRUE(stmt.ok()) << q;

    // Plain round trip: print -> parse -> equal AST, and the printed text is
    // a fixpoint.
    std::string printed = PrintSelect(**stmt);
    auto reparsed = ParseSelect(printed);
    ASSERT_TRUE(reparsed.ok()) << printed;
    EXPECT_TRUE(StatementsEqual(**stmt, **reparsed)) << q;
    EXPECT_EQ(printed, PrintSelect(**reparsed)) << q;

    // Canonical round trip: the canonical text re-parses to the canonical
    // AST, re-canonicalizes to the same text (fixpoint, with slot
    // placeholders surviving verbatim), and keeps the fingerprint.
    CanonicalQuery canonical = Canonicalize(**stmt);
    auto canon_parsed = ParseSelect(canonical.text);
    ASSERT_TRUE(canon_parsed.ok()) << canonical.text;
    EXPECT_TRUE(StatementsEqual(*canonical.statement, **canon_parsed)) << q;
    CanonicalQuery again = Canonicalize(**canon_parsed);
    EXPECT_EQ(again.text, canonical.text) << q;
    EXPECT_EQ(again.fingerprint, canonical.fingerprint) << q;
  }
}

}  // namespace
}  // namespace sfsql::sql
