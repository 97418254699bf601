#include "sql/lexer.h"

#include <cctype>
#include <cerrno>
#include <cstdlib>

#include "common/strings.h"

namespace sfsql::sql {

bool Token::IsKeyword(std::string_view kw) const {
  return type == TokenType::kIdentifier && EqualsIgnoreCase(text, kw);
}

namespace {

bool IsIdentStart(char c) {
  return std::isalpha(static_cast<unsigned char>(c)) || c == '_';
}
bool IsIdentChar(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) || c == '_';
}

}  // namespace

Result<std::vector<Token>> Lex(std::string_view input) {
  std::vector<Token> tokens;
  size_t i = 0;
  const size_t n = input.size();
  while (i < n) {
    char c = input[i];
    if (std::isspace(static_cast<unsigned char>(c))) {
      ++i;
      continue;
    }
    Token tok;
    tok.position = static_cast<int>(i);
    // Comments: -- to end of line.
    if (c == '-' && i + 1 < n && input[i + 1] == '-') {
      while (i < n && input[i] != '\n') ++i;
      continue;
    }
    if (IsIdentStart(c)) {
      size_t start = i;
      while (i < n && IsIdentChar(input[i])) ++i;
      tok.text = std::string(input.substr(start, i - start));
      if (i < n && input[i] == '?') {
        ++i;
        tok.type = TokenType::kVagueIdentifier;
      } else {
        tok.type = TokenType::kIdentifier;
      }
      tokens.push_back(std::move(tok));
      continue;
    }
    if (c == '?') {
      ++i;
      if (i < n && IsIdentStart(input[i])) {
        size_t start = i;
        while (i < n && IsIdentChar(input[i])) ++i;
        tok.type = TokenType::kPlaceholder;
        tok.text = std::string(input.substr(start, i - start));
      } else {
        tok.type = TokenType::kAnonymousMark;
        tok.text = "?";
      }
      tokens.push_back(std::move(tok));
      continue;
    }
    if (std::isdigit(static_cast<unsigned char>(c)) ||
        (c == '.' && i + 1 < n &&
         std::isdigit(static_cast<unsigned char>(input[i + 1])))) {
      size_t start = i;
      bool is_double = false;
      while (i < n && std::isdigit(static_cast<unsigned char>(input[i]))) ++i;
      if (i < n && input[i] == '.') {
        is_double = true;
        ++i;
        while (i < n && std::isdigit(static_cast<unsigned char>(input[i]))) ++i;
      }
      if (i < n && (input[i] == 'e' || input[i] == 'E')) {
        is_double = true;
        ++i;
        if (i < n && (input[i] == '+' || input[i] == '-')) ++i;
        if (i >= n || !std::isdigit(static_cast<unsigned char>(input[i]))) {
          return Status::ParseError(
              StrCat("malformed number at position ", start));
        }
        while (i < n && std::isdigit(static_cast<unsigned char>(input[i]))) ++i;
      }
      tok.text = std::string(input.substr(start, i - start));
      if (is_double) {
        tok.type = TokenType::kDoubleLiteral;
        tok.double_value = std::strtod(tok.text.c_str(), nullptr);
      } else {
        tok.type = TokenType::kIntLiteral;
        errno = 0;
        tok.int_value = std::strtoll(tok.text.c_str(), nullptr, 10);
        if (errno == ERANGE) {
          return Status::ParseError(StrCat("integer literal ", tok.text,
                                           " out of range at position ", start));
        }
      }
      tokens.push_back(std::move(tok));
      continue;
    }
    if (c == '\'' || c == '"') {
      // Both quote styles are accepted as string literals; the paper's examples
      // use double quotes. '' escapes a quote inside a single-quoted string.
      char quote = c;
      ++i;
      std::string text;
      bool closed = false;
      while (i < n) {
        if (input[i] == quote) {
          if (quote == '\'' && i + 1 < n && input[i + 1] == '\'') {
            text += '\'';
            i += 2;
            continue;
          }
          ++i;
          closed = true;
          break;
        }
        text += input[i];
        ++i;
      }
      if (!closed) {
        return Status::ParseError(
            StrCat("unterminated string literal at position ", tok.position));
      }
      tok.type = TokenType::kStringLiteral;
      tok.text = std::move(text);
      tokens.push_back(std::move(tok));
      continue;
    }
    // Multi-char symbols first.
    auto two = (i + 1 < n) ? input.substr(i, 2) : std::string_view();
    if (two == "<=" || two == ">=" || two == "<>" || two == "!=") {
      tok.type = TokenType::kSymbol;
      tok.text = std::string(two == "!=" ? "<>" : two);
      tokens.push_back(std::move(tok));
      i += 2;
      continue;
    }
    static constexpr std::string_view kSingles = "=<>+-*/%(),.;";
    if (kSingles.find(c) != std::string_view::npos) {
      tok.type = TokenType::kSymbol;
      tok.text = std::string(1, c);
      tokens.push_back(std::move(tok));
      ++i;
      continue;
    }
    return Status::ParseError(
        StrCat("unexpected character '", std::string(1, c), "' at position ", i));
  }
  Token end;
  end.type = TokenType::kEnd;
  end.position = static_cast<int>(n);
  tokens.push_back(std::move(end));
  return tokens;
}

}  // namespace sfsql::sql
