#include "parser/lexer.h"

#include <cctype>
#include <cerrno>
#include <cstdlib>
#include <string>

#include "common/str_util.h"

namespace xsql {

bool Token::IsKeyword(const char* kw) const {
  return type == TokenType::kIdent && EqualsIgnoreCase(text, kw);
}

namespace {

bool IsIdentStart(char c) {
  return std::isalpha(static_cast<unsigned char>(c)) || c == '_';
}
bool IsIdentChar(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) || c == '_';
}

}  // namespace

Result<std::vector<Token>> Lex(const std::string& input) {
  std::vector<Token> tokens;
  size_t i = 0;
  const size_t n = input.size();
  auto push = [&tokens](TokenType type, size_t pos, std::string text = "") {
    Token t;
    t.type = type;
    t.pos = pos;
    t.text = std::move(text);
    tokens.push_back(std::move(t));
  };

  while (i < n) {
    char c = input[i];
    if (std::isspace(static_cast<unsigned char>(c))) {
      ++i;
      continue;
    }
    // -- comment to end of line.
    if (c == '-' && i + 1 < n && input[i + 1] == '-') {
      while (i < n && input[i] != '\n') ++i;
      continue;
    }
    const size_t start = i;
    if (IsIdentStart(c)) {
      size_t j = i;
      while (j < n && IsIdentChar(input[j])) ++j;
      push(TokenType::kIdent, start, input.substr(i, j - i));
      i = j;
      continue;
    }
    if (std::isdigit(static_cast<unsigned char>(c))) {
      size_t j = i;
      bool is_real = false;
      while (j < n && std::isdigit(static_cast<unsigned char>(input[j]))) ++j;
      if (j < n && input[j] == '.' && j + 1 < n &&
          std::isdigit(static_cast<unsigned char>(input[j + 1]))) {
        is_real = true;
        ++j;
        while (j < n && std::isdigit(static_cast<unsigned char>(input[j]))) ++j;
      }
      // An exponent (`9e307`, `1.5E-3`, `2e+3`) needs a digit after the
      // `e` and its optional sign; otherwise the `e` starts the next token.
      if (j < n && (input[j] == 'e' || input[j] == 'E')) {
        size_t k = j + 1;
        if (k < n && (input[k] == '+' || input[k] == '-')) ++k;
        if (k < n && std::isdigit(static_cast<unsigned char>(input[k]))) {
          is_real = true;
          j = k;
          while (j < n && std::isdigit(static_cast<unsigned char>(input[j]))) {
            ++j;
          }
        }
      }
      Token t;
      t.pos = start;
      t.text = input.substr(i, j - i);
      // strtod/strtoll report a value out of range through errno
      // (overflow, or a real that underflows); std::stod/stoll would
      // throw instead.
      errno = 0;
      if (is_real) {
        t.type = TokenType::kReal;
        t.real_value = std::strtod(t.text.c_str(), nullptr);
      } else {
        t.type = TokenType::kInt;
        t.int_value = std::strtoll(t.text.c_str(), nullptr, 10);
      }
      if (errno == ERANGE) {
        return Status::ParseError("numeric literal out of range at offset " +
                                  std::to_string(start));
      }
      tokens.push_back(std::move(t));
      i = j;
      continue;
    }
    switch (c) {
      case '\'': {
        size_t j = i + 1;
        std::string body;
        while (j < n && input[j] != '\'') body += input[j++];
        if (j >= n) {
          return Status::ParseError("unterminated string literal at offset " +
                                    std::to_string(start));
        }
        push(TokenType::kString, start, std::move(body));
        i = j + 1;
        continue;
      }
      case '$':
      case '"':
      case '?': {
        size_t j = i + 1;
        if (j >= n || !IsIdentStart(input[j])) {
          return Status::ParseError(std::string("expected identifier after '") +
                                    c + "' at offset " + std::to_string(start));
        }
        size_t k = j;
        while (k < n && IsIdentChar(input[k])) ++k;
        TokenType type = c == '$'   ? TokenType::kClassVar
                         : c == '"' ? TokenType::kMethodVar
                                    : TokenType::kExplicitVar;
        push(type, start, input.substr(j, k - j));
        i = k;
        continue;
      }
      case '.':
        push(TokenType::kDot, start);
        break;
      case ',':
        push(TokenType::kComma, start);
        break;
      case '(':
        push(TokenType::kLParen, start);
        break;
      case ')':
        push(TokenType::kRParen, start);
        break;
      case '[':
        push(TokenType::kLBracket, start);
        break;
      case ']':
        push(TokenType::kRBracket, start);
        break;
      case '{':
        push(TokenType::kLBrace, start);
        break;
      case '}':
        push(TokenType::kRBrace, start);
        break;
      case '@':
        push(TokenType::kAt, start);
        break;
      case ':':
        push(TokenType::kColon, start);
        break;
      case '+':
        push(TokenType::kPlus, start);
        break;
      case '*':
        push(TokenType::kStar, start);
        break;
      case '/':
        push(TokenType::kSlash, start);
        break;
      case '=':
        if (i + 2 < n && input[i + 1] == '>' && input[i + 2] == '>') {
          push(TokenType::kDoubleArrow, start);
          i += 2;
        } else if (i + 1 < n && input[i + 1] == '>') {
          push(TokenType::kArrow, start);
          i += 1;
        } else {
          push(TokenType::kEq, start);
        }
        break;
      case '!':
        if (i + 1 < n && input[i + 1] == '=') {
          push(TokenType::kNe, start);
          i += 1;
        } else {
          return Status::ParseError("stray '!' at offset " +
                                    std::to_string(start));
        }
        break;
      case '<':
        if (i + 1 < n && input[i + 1] == '=') {
          push(TokenType::kLe, start);
          i += 1;
        } else {
          push(TokenType::kLt, start);
        }
        break;
      case '>':
        if (i + 1 < n && input[i + 1] == '=') {
          push(TokenType::kGe, start);
          i += 1;
        } else {
          push(TokenType::kGt, start);
        }
        break;
      case '-':
        if (i + 2 < n && input[i + 1] == '>' && input[i + 2] == '>') {
          push(TokenType::kDoubleArrow, start);
          i += 2;
        } else if (i + 1 < n && input[i + 1] == '>') {
          push(TokenType::kArrow, start);
          i += 1;
        } else {
          push(TokenType::kMinus, start);
        }
        break;
      default:
        return Status::ParseError(std::string("unexpected character '") + c +
                                  "' at offset " + std::to_string(start));
    }
    ++i;
  }
  push(TokenType::kEnd, n);
  return tokens;
}

}  // namespace xsql
