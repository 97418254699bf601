#include "sql/parser.h"

#include <utility>

#include "common/macros.h"
#include "common/strings.h"
#include "sql/lexer.h"

namespace sfsql::sql {

namespace {

/// Identifiers with structural meaning; they cannot be used bare as column or
/// relation names (quote-free SQL keyword handling, kept deliberately small).
constexpr std::string_view kReservedWords[] = {
    "select", "from",  "where",   "group",  "by",     "having", "order",
    "asc",    "desc",  "and",     "or",     "not",    "in",     "exists",
    "between", "like", "escape",  "is",     "null",   "as",     "distinct",
    "limit",  "true",  "false",   "union",
};

bool IsReserved(std::string_view word) {
  for (std::string_view kw : kReservedWords) {
    if (EqualsIgnoreCase(word, kw)) return true;
  }
  return false;
}

class Parser {
 public:
  explicit Parser(std::vector<Token> tokens) : tokens_(std::move(tokens)) {}

  Result<SelectPtr> ParseStatement() {
    SFSQL_ASSIGN_OR_RETURN(SelectPtr stmt, ParseSelectBlock());
    if (Peek().IsSymbol(";")) Advance();
    if (Peek().type != TokenType::kEnd) {
      return Error(StrCat("unexpected trailing input '", Peek().text, "'"));
    }
    return stmt;
  }

 private:
  const Token& Peek(int ahead = 0) const {
    size_t i = pos_ + ahead;
    if (i >= tokens_.size()) i = tokens_.size() - 1;
    return tokens_[i];
  }
  const Token& Advance() { return tokens_[pos_ < tokens_.size() - 1 ? pos_++ : pos_]; }
  bool ConsumeSymbol(std::string_view s) {
    if (Peek().IsSymbol(s)) {
      Advance();
      return true;
    }
    return false;
  }
  bool ConsumeKeyword(std::string_view kw) {
    if (Peek().IsKeyword(kw)) {
      Advance();
      return true;
    }
    return false;
  }
  Status Error(std::string msg) const {
    return Status::ParseError(
        StrCat(msg, " (at position ", Peek().position, ")"));
  }
  Status ExpectSymbol(std::string_view s) {
    if (!ConsumeSymbol(s)) {
      return Error(StrCat("expected '", s, "', found '", Peek().text, "'"));
    }
    return Status::OK();
  }

  NameRef FreshAnonymous() {
    return NameRef::Anonymous(StrCat("#", ++anon_counter_));
  }

  /// Parses one name element: IDENT, IDENT?, ?x, or ?.
  Result<NameRef> ParseNameElement() {
    const Token& t = Peek();
    switch (t.type) {
      case TokenType::kIdentifier:
        if (IsReserved(t.text)) {
          return Error(StrCat("unexpected keyword '", t.text, "'"));
        }
        return NameRef::Exact(Advance().text);
      case TokenType::kVagueIdentifier:
        return NameRef::Vague(Advance().text);
      case TokenType::kPlaceholder:
        return NameRef::Placeholder(Advance().text);
      case TokenType::kAnonymousMark:
        Advance();
        return FreshAnonymous();
      default:
        return Error(StrCat("expected a name, found '", t.text, "'"));
    }
  }

  bool AtNameElement() const {
    const Token& t = Peek();
    return (t.type == TokenType::kIdentifier && !IsReserved(t.text)) ||
           t.type == TokenType::kVagueIdentifier ||
           t.type == TokenType::kPlaceholder ||
           t.type == TokenType::kAnonymousMark;
  }

  Result<SelectPtr> ParseSelectBlock() {
    if (!ConsumeKeyword("select")) {
      return Error("expected SELECT");
    }
    auto stmt = std::make_unique<SelectStatement>();
    stmt->distinct = ConsumeKeyword("distinct");

    // Select list.
    do {
      SelectItem item;
      if (Peek().IsSymbol("*")) {
        Advance();
        item.expr = Expr::Star();
      } else {
        SFSQL_ASSIGN_OR_RETURN(item.expr, ParseExpr());
        if (ConsumeKeyword("as")) {
          if (Peek().type != TokenType::kIdentifier) {
            return Error("expected alias after AS");
          }
          item.alias = Advance().text;
        } else if (Peek().type == TokenType::kIdentifier &&
                   !IsReserved(Peek().text)) {
          item.alias = Advance().text;
        }
      }
      stmt->select_items.push_back(std::move(item));
    } while (ConsumeSymbol(","));

    if (ConsumeKeyword("from")) {
      // FROM may be legally empty in schema-free SQL only by omitting the whole
      // clause; once present it must list at least one table.
      do {
        TableRef ref;
        SFSQL_ASSIGN_OR_RETURN(ref.relation, ParseNameElement());
        if (ConsumeKeyword("as")) {
          if (Peek().type != TokenType::kIdentifier) {
            return Error("expected alias after AS");
          }
          ref.alias = Advance().text;
        } else if (Peek().type == TokenType::kIdentifier &&
                   !IsReserved(Peek().text)) {
          ref.alias = Advance().text;
        }
        stmt->from.push_back(std::move(ref));
      } while (ConsumeSymbol(","));
    }

    if (ConsumeKeyword("where")) {
      SFSQL_ASSIGN_OR_RETURN(stmt->where, ParseExpr());
    }
    if (Peek().IsKeyword("group")) {
      Advance();
      if (!ConsumeKeyword("by")) return Error("expected BY after GROUP");
      do {
        SFSQL_ASSIGN_OR_RETURN(ExprPtr g, ParseExpr());
        stmt->group_by.push_back(std::move(g));
      } while (ConsumeSymbol(","));
    }
    if (ConsumeKeyword("having")) {
      SFSQL_ASSIGN_OR_RETURN(stmt->having, ParseExpr());
    }
    if (Peek().IsKeyword("order")) {
      Advance();
      if (!ConsumeKeyword("by")) return Error("expected BY after ORDER");
      do {
        OrderItem item;
        SFSQL_ASSIGN_OR_RETURN(item.expr, ParseExpr());
        if (ConsumeKeyword("desc")) {
          item.ascending = false;
        } else {
          ConsumeKeyword("asc");
        }
        stmt->order_by.push_back(std::move(item));
      } while (ConsumeSymbol(","));
    }
    if (ConsumeKeyword("limit")) {
      if (Peek().type != TokenType::kIntLiteral) {
        return Error("expected integer after LIMIT");
      }
      stmt->limit = Advance().int_value;
    }
    return stmt;
  }

  // Precedence: OR < AND < NOT < predicate (comparisons, IN, BETWEEN, LIKE,
  // IS NULL) < additive < multiplicative < unary minus < primary.
  Result<ExprPtr> ParseExpr() { return ParseOr(); }

  Result<ExprPtr> ParseOr() {
    SFSQL_ASSIGN_OR_RETURN(ExprPtr lhs, ParseAnd());
    while (Peek().IsKeyword("or")) {
      Advance();
      SFSQL_ASSIGN_OR_RETURN(ExprPtr rhs, ParseAnd());
      lhs = Expr::Binary(BinaryOp::kOr, std::move(lhs), std::move(rhs));
    }
    return lhs;
  }

  Result<ExprPtr> ParseAnd() {
    SFSQL_ASSIGN_OR_RETURN(ExprPtr lhs, ParseNot());
    while (Peek().IsKeyword("and")) {
      Advance();
      SFSQL_ASSIGN_OR_RETURN(ExprPtr rhs, ParseNot());
      lhs = Expr::Binary(BinaryOp::kAnd, std::move(lhs), std::move(rhs));
    }
    return lhs;
  }

  Result<ExprPtr> ParseNot() {
    if (Peek().IsKeyword("not")) {
      Advance();
      SFSQL_ASSIGN_OR_RETURN(ExprPtr operand, ParseNot());
      return Expr::Unary(UnaryOp::kNot, std::move(operand));
    }
    return ParsePredicate();
  }

  Result<ExprPtr> ParsePredicate() {
    SFSQL_ASSIGN_OR_RETURN(ExprPtr lhs, ParseAdditive());

    bool negated = false;
    if (Peek().IsKeyword("not") &&
        (Peek(1).IsKeyword("in") || Peek(1).IsKeyword("between") ||
         Peek(1).IsKeyword("like"))) {
      Advance();
      negated = true;
    }

    if (Peek().IsKeyword("in")) {
      Advance();
      SFSQL_RETURN_IF_ERROR(ExpectSymbol("("));
      auto e = std::make_unique<Expr>();
      e->lhs = std::move(lhs);
      e->negated = negated;
      if (Peek().IsKeyword("select")) {
        SFSQL_ASSIGN_OR_RETURN(e->subquery, ParseSelectBlock());
        e->kind = ExprKind::kInSubquery;
      } else {
        e->kind = ExprKind::kInList;
        do {
          SFSQL_ASSIGN_OR_RETURN(ExprPtr item, ParseAdditive());
          e->args.push_back(std::move(item));
        } while (ConsumeSymbol(","));
      }
      SFSQL_RETURN_IF_ERROR(ExpectSymbol(")"));
      return ExprPtr(std::move(e));
    }

    if (Peek().IsKeyword("between")) {
      Advance();
      auto e = std::make_unique<Expr>();
      e->kind = ExprKind::kBetween;
      e->lhs = std::move(lhs);
      e->negated = negated;
      SFSQL_ASSIGN_OR_RETURN(ExprPtr low, ParseAdditive());
      if (!ConsumeKeyword("and")) return Error("expected AND in BETWEEN");
      SFSQL_ASSIGN_OR_RETURN(ExprPtr high, ParseAdditive());
      e->args.push_back(std::move(low));
      e->args.push_back(std::move(high));
      return ExprPtr(std::move(e));
    }

    if (Peek().IsKeyword("like")) {
      Advance();
      SFSQL_ASSIGN_OR_RETURN(ExprPtr rhs, ParseAdditive());
      ExprPtr cmp = Expr::Binary(BinaryOp::kLike, std::move(lhs), std::move(rhs));
      if (ConsumeKeyword("escape")) {
        if (Peek().type != TokenType::kStringLiteral ||
            Peek().text.size() != 1) {
          return Error("ESCAPE requires a single-character string literal");
        }
        cmp->like_escape = Advance().text;
      }
      if (negated) cmp = Expr::Unary(UnaryOp::kNot, std::move(cmp));
      return cmp;
    }

    if (Peek().IsKeyword("is")) {
      Advance();
      auto e = std::make_unique<Expr>();
      e->kind = ExprKind::kIsNull;
      e->lhs = std::move(lhs);
      e->negated = ConsumeKeyword("not");
      if (!ConsumeKeyword("null")) return Error("expected NULL after IS");
      return ExprPtr(std::move(e));
    }

    static constexpr std::pair<std::string_view, BinaryOp> kCompares[] = {
        {"=", BinaryOp::kEq},  {"<>", BinaryOp::kNe}, {"<=", BinaryOp::kLe},
        {">=", BinaryOp::kGe}, {"<", BinaryOp::kLt},  {">", BinaryOp::kGt},
    };
    for (auto [sym, op] : kCompares) {
      if (Peek().IsSymbol(sym)) {
        Advance();
        SFSQL_ASSIGN_OR_RETURN(ExprPtr rhs, ParseAdditive());
        return Expr::Binary(op, std::move(lhs), std::move(rhs));
      }
    }
    return lhs;
  }

  Result<ExprPtr> ParseAdditive() {
    SFSQL_ASSIGN_OR_RETURN(ExprPtr lhs, ParseMultiplicative());
    while (Peek().IsSymbol("+") || Peek().IsSymbol("-")) {
      BinaryOp op = Peek().IsSymbol("+") ? BinaryOp::kAdd : BinaryOp::kSub;
      Advance();
      SFSQL_ASSIGN_OR_RETURN(ExprPtr rhs, ParseMultiplicative());
      lhs = Expr::Binary(op, std::move(lhs), std::move(rhs));
    }
    return lhs;
  }

  Result<ExprPtr> ParseMultiplicative() {
    SFSQL_ASSIGN_OR_RETURN(ExprPtr lhs, ParseUnary());
    while (Peek().IsSymbol("*") || Peek().IsSymbol("/") || Peek().IsSymbol("%")) {
      BinaryOp op = Peek().IsSymbol("*")   ? BinaryOp::kMul
                    : Peek().IsSymbol("/") ? BinaryOp::kDiv
                                           : BinaryOp::kMod;
      Advance();
      SFSQL_ASSIGN_OR_RETURN(ExprPtr rhs, ParseUnary());
      lhs = Expr::Binary(op, std::move(lhs), std::move(rhs));
    }
    return lhs;
  }

  Result<ExprPtr> ParseUnary() {
    if (Peek().IsSymbol("-")) {
      Advance();
      SFSQL_ASSIGN_OR_RETURN(ExprPtr operand, ParseUnary());
      return Expr::Unary(UnaryOp::kNeg, std::move(operand));
    }
    return ParsePrimary();
  }

  Result<ExprPtr> ParsePrimary() {
    const Token& t = Peek();
    switch (t.type) {
      case TokenType::kIntLiteral:
        return Expr::Literal(storage::Value::Int(Advance().int_value));
      case TokenType::kDoubleLiteral:
        return Expr::Literal(storage::Value::Double(Advance().double_value));
      case TokenType::kStringLiteral:
        return Expr::Literal(storage::Value::String(Advance().text));
      default:
        break;
    }
    if (t.IsKeyword("true")) {
      Advance();
      return Expr::Literal(storage::Value::Bool(true));
    }
    if (t.IsKeyword("false")) {
      Advance();
      return Expr::Literal(storage::Value::Bool(false));
    }
    if (t.IsKeyword("null")) {
      Advance();
      return Expr::Literal(storage::Value::Null_());
    }
    if (t.IsKeyword("exists")) {
      Advance();
      SFSQL_RETURN_IF_ERROR(ExpectSymbol("("));
      auto e = std::make_unique<Expr>();
      e->kind = ExprKind::kExistsSubquery;
      SFSQL_ASSIGN_OR_RETURN(e->subquery, ParseSelectBlock());
      SFSQL_RETURN_IF_ERROR(ExpectSymbol(")"));
      return ExprPtr(std::move(e));
    }
    if (t.IsSymbol("(")) {
      Advance();
      if (Peek().IsKeyword("select")) {
        auto e = std::make_unique<Expr>();
        e->kind = ExprKind::kScalarSubquery;
        SFSQL_ASSIGN_OR_RETURN(e->subquery, ParseSelectBlock());
        SFSQL_RETURN_IF_ERROR(ExpectSymbol(")"));
        return ExprPtr(std::move(e));
      }
      SFSQL_ASSIGN_OR_RETURN(ExprPtr inner, ParseExpr());
      SFSQL_RETURN_IF_ERROR(ExpectSymbol(")"));
      return inner;
    }

    // Function call: exact identifier immediately followed by '('.
    if (t.type == TokenType::kIdentifier && !IsReserved(t.text) &&
        Peek(1).IsSymbol("(")) {
      std::string name = Advance().text;
      Advance();  // '('
      bool distinct = ConsumeKeyword("distinct");
      std::vector<ExprPtr> args;
      if (Peek().IsSymbol("*")) {
        Advance();
        args.push_back(Expr::Star());
      } else if (!Peek().IsSymbol(")")) {
        do {
          SFSQL_ASSIGN_OR_RETURN(ExprPtr arg, ParseExpr());
          args.push_back(std::move(arg));
        } while (ConsumeSymbol(","));
      }
      SFSQL_RETURN_IF_ERROR(ExpectSymbol(")"));
      return Expr::Call(std::move(name), std::move(args), distinct);
    }

    if (AtNameElement()) {
      SFSQL_ASSIGN_OR_RETURN(NameRef first, ParseNameElement());
      if (ConsumeSymbol(".")) {
        if (Peek().IsSymbol("*")) {
          // rel.* — treated as a star restricted to one relation; keep the
          // relation hint on a Star-like column ref.
          Advance();
          auto e = std::make_unique<Expr>();
          e->kind = ExprKind::kStar;
          e->relation = std::move(first);
          return ExprPtr(std::move(e));
        }
        SFSQL_ASSIGN_OR_RETURN(NameRef attr, ParseNameElement());
        return Expr::Column(std::move(first), std::move(attr));
      }
      return Expr::Column(NameRef::Unspecified(), std::move(first));
    }
    return Error(StrCat("unexpected token '", t.text, "'"));
  }

  std::vector<Token> tokens_;
  size_t pos_ = 0;
  int anon_counter_ = 0;
};

}  // namespace

Result<SelectPtr> ParseSelect(std::string_view input) {
  SFSQL_ASSIGN_OR_RETURN(std::vector<Token> tokens, Lex(input));
  Parser parser(std::move(tokens));
  return parser.ParseStatement();
}

}  // namespace sfsql::sql
