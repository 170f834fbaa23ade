// Token-level C++ lexer for gqr-analyze.
//
// The analyzer's frontend works on a token stream, not an AST: the
// container ships no Clang development headers, so the tool must parse
// repo C++ itself (see README.md for the precision contract). The lexer
// handles everything that would otherwise corrupt a token-level scan:
// comments, string/char literals (including raw strings), preprocessor
// directives with continuations, and multi-character punctuators the
// frontend keys on (`::`, `->`).
//
// Preprocessor conditionals are tracked, not expanded: tokens inside any
// `#if`/`#ifdef` block whose condition mentions GQR_VALIDATE are marked
// `validate_only`, so the hot-path purity analysis can exclude
// validation-build code (validating builds deliberately trade speed for
// checking) while the lock-order analysis still sees it. All other
// conditional branches are analyzed unconditionally (union semantics —
// conservative for both analyses).
//
// `#define` bodies are lexed too and marked `macro_body`: the frontend
// drops them (it does not expand macros), while the token-level source
// rules still see a banned name hidden inside a macro.
#ifndef GQR_TOOLS_ANALYZE_LEXER_H_
#define GQR_TOOLS_ANALYZE_LEXER_H_

#include <string>
#include <vector>

namespace gqr::analyze {

struct Token {
  enum class Kind {
    kIdent,   // identifiers and keywords
    kNumber,  // numeric literals (PP-number, loosely)
    kString,  // string literal (text is the blanked placeholder "\"\"")
    kPunct,   // punctuation; multi-char: "::" "->"
  };

  Kind kind;
  std::string text;
  int line = 0;
  // Inside a conditional block whose condition mentions GQR_VALIDATE.
  bool validate_only = false;
  // Part of a `#define` replacement list (or its name and parameters).
  bool macro_body = false;
};

/// Lexes `text` (one source file). Never fails: unexpected bytes are
/// skipped, unterminated literals end at EOF. Line numbers are 1-based.
std::vector<Token> Lex(const std::string& text);

}  // namespace gqr::analyze

#endif  // GQR_TOOLS_ANALYZE_LEXER_H_
