#include "lexer.h"

#include <cctype>

namespace gqr::analyze {

namespace {

bool IsIdentStart(char c) {
  return std::isalpha(static_cast<unsigned char>(c)) || c == '_';
}

bool IsIdentChar(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) || c == '_';
}

}  // namespace

std::vector<Token> Lex(const std::string& text) {
  std::vector<Token> out;
  const size_t n = text.size();
  size_t i = 0;
  int line = 1;
  // Conditional-compilation stack: one entry per open #if/#ifdef, true
  // when its condition mentions GQR_VALIDATE (so the current branch is
  // validation-build-only code).
  std::vector<bool> cond_stack;
  bool at_line_start = true;  // Only whitespace seen on this line so far.

  auto in_validate = [&] {
    for (bool v : cond_stack) {
      if (v) return true;
    }
    return false;
  };

  auto push = [&](Token::Kind kind, std::string tok_text, int tok_line) {
    out.push_back(Token{kind, std::move(tok_text), tok_line, in_validate()});
  };

  while (i < n) {
    const char c = text[i];
    const char nxt = i + 1 < n ? text[i + 1] : '\0';

    if (c == '\n') {
      ++line;
      ++i;
      at_line_start = true;
      continue;
    }
    if (std::isspace(static_cast<unsigned char>(c))) {
      ++i;
      continue;
    }

    // Preprocessor directive: consume the logical line (continuations
    // included), maintaining the conditional stack.
    if (c == '#' && at_line_start) {
      size_t j = i + 1;
      const int directive_start = line;
      std::string directive_line;
      while (j < n) {
        if (text[j] == '\\' && j + 1 < n && text[j + 1] == '\n') {
          directive_line += ' ';
          j += 2;
          ++line;
          continue;
        }
        if (text[j] == '\n') break;
        directive_line += text[j];
        ++j;
      }
      // First word after optional space is the directive name.
      size_t d = 0;
      while (d < directive_line.size() &&
             std::isspace(static_cast<unsigned char>(directive_line[d]))) {
        ++d;
      }
      size_t e = d;
      while (e < directive_line.size() && IsIdentChar(directive_line[e])) ++e;
      const std::string name = directive_line.substr(d, e - d);
      const bool mentions_validate =
          directive_line.find("GQR_VALIDATE") != std::string::npos;
      if (name == "if" || name == "ifdef" || name == "ifndef") {
        cond_stack.push_back(mentions_validate);
      } else if (name == "elif") {
        if (!cond_stack.empty()) cond_stack.back() = mentions_validate;
      } else if (name == "else") {
        // The else-branch of a validate conditional is the non-validate
        // code (and vice versa is not knowable — stay conservative and
        // treat it as regular code).
        if (!cond_stack.empty()) cond_stack.back() = false;
      } else if (name == "endif") {
        if (!cond_stack.empty()) cond_stack.pop_back();
      } else if (name == "define") {
        for (Token t : Lex(directive_line.substr(e))) {
          t.line = directive_start;  // Continuations were joined.
          t.validate_only = in_validate();
          t.macro_body = true;
          out.push_back(std::move(t));
        }
      }
      i = j;  // The '\n' (or EOF) is handled by the main loop.
      continue;
    }

    at_line_start = false;

    // Comments.
    if (c == '/' && nxt == '/') {
      while (i < n && text[i] != '\n') ++i;
      continue;
    }
    if (c == '/' && nxt == '*') {
      i += 2;
      while (i + 1 < n && !(text[i] == '*' && text[i + 1] == '/')) {
        if (text[i] == '\n') ++line;
        ++i;
      }
      i = i + 2 <= n ? i + 2 : n;
      continue;
    }

    // Raw string literal: R"delim( ... )delim".
    if (c == 'R' && nxt == '"') {
      size_t j = i + 2;
      std::string delim;
      while (j < n && text[j] != '(' && text[j] != '\n') delim += text[j++];
      const std::string closer = ")" + delim + "\"";
      size_t end = text.find(closer, j);
      if (end == std::string::npos) end = n;
      for (size_t k = i; k < end && k < n; ++k) {
        if (text[k] == '\n') ++line;
      }
      push(Token::Kind::kString, "\"\"", line);
      i = end == n ? n : end + closer.size();
      continue;
    }

    // String / char literals (blanked; the frontend never needs their
    // contents, and lock names inside strings must not count).
    if (c == '"' || c == '\'') {
      const char quote = c;
      size_t j = i + 1;
      while (j < n && text[j] != quote) {
        if (text[j] == '\\' && j + 1 < n) {
          j += 2;
          continue;
        }
        if (text[j] == '\n') {  // Unterminated; bail at line end.
          break;
        }
        ++j;
      }
      push(Token::Kind::kString, quote == '"' ? "\"\"" : "''", line);
      i = j < n ? j + 1 : n;
      continue;
    }

    // Identifier / keyword.
    if (IsIdentStart(c)) {
      size_t j = i;
      while (j < n && IsIdentChar(text[j])) ++j;
      push(Token::Kind::kIdent, text.substr(i, j - i), line);
      i = j;
      continue;
    }

    // Number (pp-number: digits, idents, dots, exponent signs).
    if (std::isdigit(static_cast<unsigned char>(c)) ||
        (c == '.' && std::isdigit(static_cast<unsigned char>(nxt)))) {
      size_t j = i;
      while (j < n) {
        const char d = text[j];
        if (IsIdentChar(d) || d == '.') {
          ++j;
          continue;
        }
        if ((d == '+' || d == '-') && j > i) {
          const char prev = text[j - 1];
          if (prev == 'e' || prev == 'E' || prev == 'p' || prev == 'P') {
            ++j;
            continue;
          }
        }
        break;
      }
      push(Token::Kind::kNumber, text.substr(i, j - i), line);
      i = j;
      continue;
    }

    // Punctuation. The frontend needs "::" and "->" as single tokens;
    // everything else is one character.
    if (c == ':' && nxt == ':') {
      push(Token::Kind::kPunct, "::", line);
      i += 2;
      continue;
    }
    if (c == '-' && nxt == '>') {
      push(Token::Kind::kPunct, "->", line);
      i += 2;
      continue;
    }
    push(Token::Kind::kPunct, std::string(1, c), line);
    ++i;
  }
  return out;
}

}  // namespace gqr::analyze
