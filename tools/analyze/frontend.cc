#include "frontend.h"

#include <cctype>
#include <functional>
#include <set>

#include "lexer.h"

namespace gqr::analyze {

namespace {

const std::set<std::string>& Keywords() {
  static const std::set<std::string> kw = {
      "if",       "else",    "for",      "while",    "do",      "switch",
      "case",     "default", "return",   "break",    "continue", "goto",
      "sizeof",   "alignof", "alignas",  "decltype", "typeid",  "noexcept",
      "new",      "delete",  "throw",    "try",      "catch",   "const",
      "constexpr", "consteval", "constinit", "volatile", "mutable", "static",
      "thread_local", "inline", "extern", "register", "auto",    "void",
      "bool",     "char",    "short",    "int",      "long",    "float",
      "double",   "signed",  "unsigned", "wchar_t",  "char8_t", "char16_t",
      "char32_t", "size_t",  "ssize_t",  "ptrdiff_t", "struct", "class",
      "union",    "enum",    "typename", "template", "using",   "typedef",
      "namespace", "public", "private",  "protected", "friend", "virtual",
      "override", "final",   "explicit", "operator", "this",    "nullptr",
      "true",     "false",   "static_cast", "dynamic_cast", "const_cast",
      "reinterpret_cast", "static_assert", "requires", "concept", "co_await",
      "co_return", "co_yield", "and", "or", "not", "restrict",
  };
  return kw;
}

bool IsKeyword(const std::string& s) { return Keywords().count(s) != 0; }

bool IsAnnotationMacro(const std::string& s) {
  // GQR_HOT, GQR_REQUIRES, GQR_GUARDED_BY, GQR_CHECK, ... — any GQR_*
  // identifier is an annotation/contract macro, never a function we want
  // in the call graph. Same for the clang-builtin-ish GQR_TARGET_* and
  // standard attribute idents.
  return s.rfind("GQR_", 0) == 0;
}

bool IsMallocName(const std::string& s) {
  return s == "malloc" || s == "calloc" || s == "realloc" ||
         s == "aligned_alloc" || s == "posix_memalign" || s == "strdup" ||
         s == "strndup";
}

bool IsMakeAllocName(const std::string& s) {
  return s == "make_unique" || s == "make_shared" ||
         s == "make_unique_for_overwrite" || s == "make_shared_for_overwrite" ||
         s == "allocate_shared";
}

bool IsBlockingCallName(const std::string& s) {
  return s == "Wait" || s == "WaitUntil" || s == "wait" || s == "wait_for" ||
         s == "wait_until" || s == "join" || s == "sleep_for" ||
         s == "sleep_until";
}

bool IsOwningContainerName(const std::string& s) {
  return s == "vector" || s == "string" || s == "basic_string" ||
         s == "deque" || s == "list" || s == "forward_list" || s == "map" ||
         s == "set" || s == "multimap" || s == "multiset" ||
         s == "unordered_map" || s == "unordered_set" ||
         s == "unordered_multimap" || s == "unordered_multiset" ||
         s == "function" || s == "any" || s == "ostringstream" ||
         s == "istringstream" || s == "stringstream" || s == "valarray";
}

bool IsStdScopedLockName(const std::string& s) {
  return s == "lock_guard" || s == "unique_lock" || s == "shared_lock" ||
         s == "scoped_lock";
}

/// Repo scoped-lock convention: util/sync.h types plus any
/// GQR_SCOPED_CAPABILITY wrapper — all named *Lock (MutexLock,
/// ReaderLock, WriterLock, ShardReadLock, ShardWriteLock, ...).
bool IsScopedLockTypeName(const std::string& s) {
  if (IsStdScopedLockName(s)) return true;
  if (s.size() <= 4) return false;
  if (s.compare(s.size() - 4, 4, "Lock") != 0) return false;
  return std::isupper(static_cast<unsigned char>(s[0])) != 0;
}

bool IsMutexTypeName(const std::string& s) {
  return s == "Mutex" || s == "SharedMutex" || s == "mutex" ||
         s == "shared_mutex" || s == "recursive_mutex" || s == "timed_mutex";
}

class Parser {
 public:
  Parser(std::string path, std::vector<Token> toks, FileModel* out)
      : path_(std::move(path)), toks_(std::move(toks)), out_(out) {}

  void Run() {
    while (pos_ < toks_.size()) ParseDeclaration();
  }

 private:
  struct Scope {
    enum Kind { kNamespace, kClass, kOpaque } kind;
    std::string name;
  };

  // --- token stream helpers -------------------------------------------

  bool AtEnd() const { return pos_ >= toks_.size(); }
  const Token& Cur() const { return toks_[pos_]; }
  const std::string& Text(size_t i) const {
    static const std::string empty;
    return i < toks_.size() ? toks_[i].text : empty;
  }
  bool Is(size_t i, const char* t) const { return Text(i) == t; }
  bool IsIdentAt(size_t i) const {
    return i < toks_.size() && toks_[i].kind == Token::Kind::kIdent;
  }

  /// Index just past the region balanced on (), {}, [], <> starting at
  /// the opener `i`. `<` balancing is only meaningful when the caller
  /// knows `i` opens template args.
  size_t SkipBalanced(size_t i) const {
    if (i >= toks_.size()) return i;
    const std::string& open = toks_[i].text;
    std::string close;
    if (open == "(") close = ")";
    else if (open == "{") close = "}";
    else if (open == "[") close = "]";
    else if (open == "<") close = ">";
    else return i + 1;
    int depth = 0;
    size_t j = i;
    while (j < toks_.size()) {
      const std::string& t = toks_[j].text;
      if (t == open) {
        ++depth;
      } else if (t == close) {
        if (--depth == 0) return j + 1;
      } else if (open == "<" && (t == ";" || t == "{")) {
        return j;  // Not template args after all (comparison); bail.
      }
      ++j;
    }
    return j;
  }

  /// Skips to just past the next `;` at brace/paren depth 0 relative to
  /// the current position (balanced sub-blocks are skipped whole).
  void SkipToSemicolon() {
    int depth = 0;
    while (!AtEnd()) {
      const std::string& t = Cur().text;
      if (t == "(" || t == "{" || t == "[") {
        pos_ = SkipBalanced(pos_);
        continue;
      }
      if (t == "}" && depth == 0) return;  // Scope close; leave for caller.
      if (t == ";" && depth == 0) {
        ++pos_;
        return;
      }
      ++pos_;
    }
  }

  std::string InnermostClass() const {
    for (auto it = scopes_.rbegin(); it != scopes_.rend(); ++it) {
      if (it->kind == Scope::kClass) return it->name;
    }
    return "";
  }

  std::string QualifiedName(const std::string& written_qual,
                            const std::string& name) const {
    std::string q;
    for (const Scope& s : scopes_) {
      if (s.kind == Scope::kOpaque || s.name.empty()) continue;
      if (!q.empty()) q += "::";
      q += s.name;
    }
    if (!written_qual.empty()) {
      if (!q.empty()) q += "::";
      q += written_qual;
    }
    if (!q.empty()) q += "::";
    q += name;
    return q;
  }

  // --- declaration level ----------------------------------------------

  void ParseDeclaration() {
    const size_t boundary = pos_;
    const std::string& t = Cur().text;

    if (t == "}") {
      if (!scopes_.empty()) scopes_.pop_back();
      ++pos_;
      return;
    }
    if (t == ";" || t == ":") {  // stray / access-spec colon
      ++pos_;
      return;
    }
    if (t == "public" || t == "private" || t == "protected") {
      ++pos_;
      if (!AtEnd() && Is(pos_, ":")) ++pos_;
      return;
    }
    if (t == "namespace") {
      ParseNamespace();
      return;
    }
    if (t == "class" || t == "struct" || t == "union") {
      ParseClassHead();
      return;
    }
    if (t == "enum") {
      ParseEnum();
      return;
    }
    if (t == "template") {
      ++pos_;
      if (!AtEnd() && Is(pos_, "<")) pos_ = SkipBalanced(pos_);
      return;  // The templated entity parses as the next declaration.
    }
    if (t == "using" || t == "typedef" || t == "static_assert" ||
        t == "friend" || t == "concept") {
      SkipToSemicolon();
      return;
    }
    if (t == "extern") {
      // `extern "C" { ... }` — parse contents normally under an
      // anonymous namespace-like scope; plain extern decls fall through.
      if (pos_ + 1 < toks_.size() &&
          toks_[pos_ + 1].kind == Token::Kind::kString) {
        pos_ += 2;
        if (!AtEnd() && Is(pos_, "{")) {
          scopes_.push_back({Scope::kNamespace, ""});
          ++pos_;
        }
        return;
      }
    }
    if (t == "{") {  // Unclassified brace block at decl scope.
      pos_ = SkipBalanced(pos_);
      return;
    }

    // General declaration: scan for a function-ish `ident (` pattern,
    // else record a member/variable declaration at the `;`.
    ScanDeclarationFrom(boundary);
  }

  void ParseNamespace() {
    ++pos_;  // "namespace"
    std::string name;
    while (IsIdentAt(pos_)) {
      if (!name.empty()) name += "::";
      name += Cur().text;
      ++pos_;
      if (Is(pos_, "::")) {
        ++pos_;
        continue;
      }
      break;
    }
    if (Is(pos_, "=")) {  // namespace alias
      SkipToSemicolon();
      return;
    }
    if (Is(pos_, "{")) {
      scopes_.push_back({Scope::kNamespace, name});
      ++pos_;
    }
  }

  void ParseClassHead() {
    ++pos_;  // class/struct/union
    // Attribute macros (GQR_CAPABILITY("mutex"), GQR_SCOPED_CAPABILITY),
    // alignas, [[...]].
    std::string name;
    while (!AtEnd()) {
      const std::string& t = Cur().text;
      if (t == "[") {
        pos_ = SkipBalanced(pos_);
        continue;
      }
      if (t == "alignas" || IsAnnotationMacro(t)) {
        ++pos_;
        if (Is(pos_, "(")) pos_ = SkipBalanced(pos_);
        continue;
      }
      if (IsIdentAt(pos_) && t != "final") {
        name = t;
        ++pos_;
        if (Is(pos_, "<")) pos_ = SkipBalanced(pos_);  // specialization
        continue;
      }
      break;
    }
    if (Is(pos_, "final")) ++pos_;
    if (Is(pos_, ";")) {  // forward declaration
      ++pos_;
      return;
    }
    if (Is(pos_, ":")) {  // base clause: skip to the body brace
      ++pos_;
      while (!AtEnd() && !Is(pos_, "{") && !Is(pos_, ";")) {
        if (Is(pos_, "<") || Is(pos_, "(")) {
          pos_ = SkipBalanced(pos_);
          continue;
        }
        ++pos_;
      }
    }
    if (Is(pos_, "{")) {
      scopes_.push_back({Scope::kClass, name});
      ++pos_;
      return;
    }
    // `struct Foo x;` elaborated-type declaration — let the scanner
    // finish the statement.
    SkipToSemicolon();
  }

  void ParseEnum() {
    ++pos_;
    if (Is(pos_, "class") || Is(pos_, "struct")) ++pos_;
    if (IsIdentAt(pos_)) ++pos_;
    if (Is(pos_, ":")) {  // underlying type
      ++pos_;
      while (IsIdentAt(pos_) || Is(pos_, "::")) ++pos_;
    }
    if (Is(pos_, "{")) {
      pos_ = SkipBalanced(pos_);  // Enumerators are opaque to us.
    }
    if (Is(pos_, ";")) ++pos_;
  }

  /// Scans one declaration starting at `boundary` for a function
  /// definition/declaration; records a member variable otherwise.
  void ScanDeclarationFrom(size_t boundary) {
    while (!AtEnd()) {
      const std::string& t = Cur().text;
      if (t == "}") return;  // Scope close; caller handles.
      if (t == ";") {
        RecordMemberDecl(boundary, pos_);
        ++pos_;
        return;
      }
      if (t == "{") {  // brace init of a variable: {...} then ;
        pos_ = SkipBalanced(pos_);
        continue;
      }
      if (t == "<") {
        pos_ = SkipBalanced(pos_);
        continue;
      }
      if (t == "class" || t == "struct" || t == "namespace" ||
          t == "template" || t == "public" || t == "private" ||
          t == "protected") {
        return;  // Re-dispatch: mis-scanned into a nested construct.
      }
      if (t == "(" && pos_ > boundary && IsIdentAt(pos_ - 1)) {
        const std::string& prev = toks_[pos_ - 1].text;
        if (!IsKeyword(prev) && !IsAnnotationMacro(prev)) {
          if (TryParseFunction(boundary, pos_ - 1)) return;
          // Not a function: skip the matched parens and keep scanning.
          pos_ = SkipBalanced(pos_);
          continue;
        }
        pos_ = SkipBalanced(pos_);
        continue;
      }
      if (t == "(" || t == "[") {
        pos_ = SkipBalanced(pos_);
        continue;
      }
      ++pos_;
    }
  }

  /// Member/namespace-scope variable: last two top-level identifiers of
  /// the pre-`=`/`;` span are (type, name). Needed so lock expressions
  /// like `mu_` and `s.mu` canonicalize to `Class::member`.
  void RecordMemberDecl(size_t begin, size_t end) {
    std::vector<size_t> idents;
    std::vector<std::string> targs;  // template args written after each ident
    for (size_t i = begin; i < end; ++i) {
      const std::string& t = toks_[i].text;
      if (t == "=") break;
      if (t == "<") {
        size_t j = SkipBalanced(i);
        if (j > i + 1) {
          // Template args directly after the previous ident belong to it
          // (std::atomic<Node*> / Atomic<T, AtomicIntent::kSeqlock>).
          if (!idents.empty() && idents.back() == i - 1) {
            targs.back() = JoinTokens(i + 1, j - 1);
          }
          i = j - 1;
          continue;
        }
      }
      if (t == "(" || t == "{" || t == "[") {
        i = SkipBalanced(i) - 1;
        continue;
      }
      if (toks_[i].kind == Token::Kind::kIdent && !IsKeyword(t) &&
          !IsAnnotationMacro(t)) {
        idents.push_back(i);
        targs.emplace_back();
      }
    }
    if (idents.size() < 2) return;
    MemberDecl m;
    m.class_name = InnermostClass();
    m.name = toks_[idents.back()].text;
    m.type = toks_[idents[idents.size() - 2]].text;
    m.type_args = targs[idents.size() - 2];
    // Smart-pointer members descend into the pointee, same as ParseParams
    // — `std::shared_ptr<Future::State> state_` types receiver chains
    // like `state_->cv` as State, not shared_ptr.
    if ((m.type == "shared_ptr" || m.type == "unique_ptr" ||
         m.type == "weak_ptr") &&
        !m.type_args.empty()) {
      std::string tail;
      std::string run;
      for (const char c : m.type_args + '\0') {
        if (std::isalnum(static_cast<unsigned char>(c)) || c == '_') {
          run += c;
          continue;
        }
        if (!run.empty() && !IsKeyword(run) &&
            !std::isdigit(static_cast<unsigned char>(run[0]))) {
          tail = run;
        }
        run.clear();
      }
      if (!tail.empty()) m.type = tail;
    }
    m.file = path_;
    m.line = toks_[idents.back()].line;
    out_->members.push_back(std::move(m));
  }

  /// Joined text of [begin, end), token-concatenated (no spaces; intent
  /// tags like AtomicIntent::kSeqlock stay substring-searchable).
  std::string JoinTokens(size_t begin, size_t end) const {
    std::string out;
    for (size_t i = begin; i < end && i < toks_.size(); ++i) {
      out += toks_[i].text;
    }
    return out;
  }

  // --- function level -------------------------------------------------

  /// `name_pos` is the identifier just before `(` at `pos_`. Returns
  /// true when the construct was consumed as a function definition or
  /// declaration; false (with pos_ untouched) otherwise.
  bool TryParseFunction(size_t decl_begin, size_t name_pos) {
    const size_t saved = pos_;
    // Back-chain A::B::name.
    std::vector<std::string> quals;
    std::string name = toks_[name_pos].text;
    size_t q = name_pos;
    while (q >= 2 && Is(q - 1, "::") && IsIdentAt(q - 2)) {
      quals.insert(quals.begin(), toks_[q - 2].text);
      q -= 2;
    }
    if (name == "operator") return false;  // operator() — out of scope.

    const size_t lparen = pos_;
    const size_t after_params = SkipBalanced(lparen);
    size_t i = after_params;

    std::vector<std::string> requires_raw;
    bool body = false, decl = false;
    while (i < toks_.size()) {
      const std::string& t = toks_[i].text;
      if (t == ";") {
        decl = true;
        ++i;
        break;
      }
      if (t == "{") {
        body = true;
        break;
      }
      if (t == "const" || t == "volatile" || t == "override" ||
          t == "final" || t == "mutable" || t == "noexcept" || t == "throw" ||
          t == "&" || t == "try" || t == "requires") {
        ++i;
        if (i < toks_.size() && Is(i, "(")) i = SkipBalanced(i);
        continue;
      }
      if (t == "&" || t == "[") {
        i = t == "[" ? SkipBalanced(i) : i + 1;
        continue;
      }
      if (t == "GQR_REQUIRES" || t == "GQR_REQUIRES_SHARED") {
        size_t j = i + 1;
        if (j < toks_.size() && Is(j, "(")) {
          const size_t close = SkipBalanced(j);
          for (const auto& arg : SplitTopLevelArgs(j + 1, close - 1)) {
            requires_raw.push_back(arg);
          }
          i = close;
          continue;
        }
        ++i;
        continue;
      }
      if (IsAnnotationMacro(t) || t == "alignas") {
        ++i;
        if (i < toks_.size() && Is(i, "(")) i = SkipBalanced(i);
        continue;
      }
      if (t == "->") {  // trailing return type
        ++i;
        while (i < toks_.size() && !Is(i, "{") && !Is(i, ";")) {
          if (Is(i, "(") || Is(i, "<") || Is(i, "[")) {
            i = SkipBalanced(i);
            continue;
          }
          ++i;
        }
        continue;
      }
      if (t == ":") {  // constructor mem-init list
        ++i;
        bool ok = true;
        while (i < toks_.size()) {
          while (i < toks_.size() &&
                 (IsIdentAt(i) || Is(i, "::") || Is(i, "<"))) {
            i = Is(i, "<") ? SkipBalanced(i) : i + 1;
          }
          if (i < toks_.size() && (Is(i, "(") || Is(i, "{"))) {
            // `{` here is ambiguous: brace-init vs function body. A
            // body never directly follows `:` or `,`, so a `{` right
            // after an initializer name is an initializer.
            i = SkipBalanced(i);
          } else {
            ok = false;
            break;
          }
          if (i < toks_.size() && Is(i, ",")) {
            ++i;
            continue;
          }
          break;
        }
        if (!ok || i >= toks_.size() || !Is(i, "{")) return RestoreAt(saved);
        body = true;
        break;
      }
      if (t == "=") {
        ++i;
        if (i < toks_.size() &&
            (Is(i, "default") || Is(i, "delete") || Is(i, "0"))) {
          while (i < toks_.size() && !Is(i, ";")) ++i;
          if (i < toks_.size()) ++i;
          decl = true;
          break;
        }
        return RestoreAt(saved);
      }
      return RestoreAt(saved);
    }
    if (!body && !decl) return RestoreAt(saved);

    FunctionInfo fn;
    fn.name = name;
    fn.class_name = quals.empty() ? InnermostClass() : quals.back();
    std::string written_qual;
    for (const auto& s : quals) {
      if (!written_qual.empty()) written_qual += "::";
      written_qual += s;
    }
    fn.qname = QualifiedName(written_qual, name);
    fn.file = path_;
    fn.line = toks_[name_pos].line;
    fn.defined = body;
    for (size_t k = decl_begin; k < name_pos; ++k) {
      if (Text(k) == "GQR_HOT") fn.hot = true;
    }
    ParseParams(lparen + 1, after_params - 1, &fn);
    for (const auto& raw : requires_raw) {
      fn.requires_locks.push_back(CanonicalizeLockText(raw, fn));
    }
    if (body) {
      pos_ = i;  // at `{`
      ParseBody(&fn);
    } else {
      pos_ = i;
    }
    out_->functions.push_back(std::move(fn));
    return true;
  }

  bool RestoreAt(size_t saved) {
    pos_ = saved;
    return false;
  }

  /// Splits [begin,end) on top-level commas, returning joined texts.
  std::vector<std::string> SplitTopLevelArgs(size_t begin, size_t end) const {
    std::vector<std::string> out;
    std::string cur;
    int depth = 0;
    for (size_t i = begin; i < end && i < toks_.size(); ++i) {
      const std::string& t = toks_[i].text;
      if (t == "(" || t == "{" || t == "[" || t == "<") ++depth;
      if (t == ")" || t == "}" || t == "]" || t == ">") --depth;
      if (t == "," && depth == 0) {
        if (!cur.empty()) out.push_back(cur);
        cur.clear();
        continue;
      }
      if (!cur.empty() && (IsIdentAt(i) || toks_[i].kind ==
                                               Token::Kind::kNumber) &&
          (toks_[i - 1].kind == Token::Kind::kIdent)) {
        cur += ' ';
      }
      cur += t;
    }
    if (!cur.empty()) out.push_back(cur);
    return out;
  }

  /// Parameter list -> local_types: for each top-level param, name is
  /// the last depth-0 identifier (before any default `=`), type the one
  /// before it (keywords excluded). `const Shard& s` -> s:Shard;
  /// `std::shared_ptr<Future::State> st` -> st:State (template arg tail
  /// is the most specific class-ish name).
  void ParseParams(size_t begin, size_t end, FunctionInfo* fn) {
    size_t i = begin;
    size_t param_start = begin;
    int depth = 0;
    auto flush = [&](size_t from, size_t to) {
      std::vector<std::string> idents;
      for (size_t k = from; k < to && k < toks_.size(); ++k) {
        const std::string& t = toks_[k].text;
        if (t == "=") break;
        if (t == "(" || t == "[") {
          k = SkipBalanced(k) - 1;
          continue;
        }
        if (toks_[k].kind == Token::Kind::kIdent && !IsKeyword(t) &&
            !IsAnnotationMacro(t)) {
          idents.push_back(t);
        }
      }
      if (idents.size() >= 2) {
        fn->local_types[idents.back()] = idents[idents.size() - 2];
      }
    };
    while (i < end && i < toks_.size()) {
      const std::string& t = toks_[i].text;
      if (t == "(" || t == "{" || t == "[" || t == "<") ++depth;
      if (t == ")" || t == "}" || t == "]" || t == ">") --depth;
      if (t == "," && depth == 0) {
        flush(param_start, i);
        param_start = i + 1;
      }
      ++i;
    }
    if (param_start < end) flush(param_start, end);
  }

  // --- body level -----------------------------------------------------

  struct HeldLock {
    std::string canon;
    int line;
    int depth;     // brace depth at acquisition (scoped release point)
    bool scoped;   // RAII lock: released when its scope closes
  };

  void ParseBody(FunctionInfo* fn) {
    // pos_ at `{`.
    int depth = 0;
    int paren = 0;
    bool stmt_start = true;
    bool once_active = false;
    int once_depth = 0;
    std::vector<HeldLock> held;

    auto held_snapshot = [&](AcquireSite* site) {
      for (const HeldLock& h : held) {
        site->held_exprs.push_back(h.canon);
        site->held_lines.push_back(h.line);
      }
    };

    while (!AtEnd()) {
      const Token& tok = Cur();
      const std::string& t = tok.text;

      if (t == "{") {
        ++depth;
        ++pos_;
        stmt_start = true;
        continue;
      }
      if (t == "}") {
        --depth;
        ++pos_;
        while (!held.empty() && held.back().scoped &&
               held.back().depth > depth) {
          held.pop_back();
        }
        if (once_active && depth <= once_depth) once_active = false;
        stmt_start = true;
        if (depth == 0) return;  // body closed
        continue;
      }
      if (t == "(") {
        ++paren;
        ++pos_;
        stmt_start = false;
        continue;
      }
      if (t == ")") {
        --paren;
        ++pos_;
        continue;
      }
      if (t == ";") {
        ++pos_;
        if (paren == 0) {
          stmt_start = true;
          if (once_active && depth == once_depth) once_active = false;
        }
        continue;
      }

      if (tok.kind == Token::Kind::kIdent) {
        if (stmt_start && (t == "static" || t == "thread_local")) {
          once_active = true;
          once_depth = depth;
          ++pos_;
          continue;
        }
        // cv/storage qualifiers are transparent at statement start, so
        // `const BudgetPlanner* p = ...` still captures p's type.
        if (stmt_start && (t == "const" || t == "constexpr")) {
          ++pos_;
          continue;
        }
        if (t == "new") {
          AddEffect(fn, EffectSite::Type::kNew, "operator new", tok,
                    once_active);
          ++pos_;
          stmt_start = false;
          continue;
        }
        if (t == "throw") {
          AddEffect(fn, EffectSite::Type::kThrow, "throw", tok, once_active);
          ++pos_;
          stmt_start = false;
          continue;
        }

        // Scoped-lock construction: Type [<...>] var (args) / {args}.
        if (IsScopedLockTypeName(t) && !Is(pos_ + 1, "::")) {
          size_t j = pos_ + 1;
          if (Is(j, "<")) j = SkipBalanced(j);
          if (IsIdentAt(j) && (Is(j + 1, "(") || Is(j + 1, "{"))) {
            const size_t open = j + 1;
            const size_t close = SkipBalanced(open);
            for (const auto& arg : SplitTopLevelArgs(open + 1, close - 1)) {
              AcquireSite site;
              site.lock_expr = CanonicalizeLockText(arg, *fn);
              site.line = tok.line;
              site.validate_only = tok.validate_only;
              site.blocking = true;
              held_snapshot(&site);
              fn->acquires.push_back(site);
              held.push_back({site.lock_expr, tok.line, depth, true});
              AddEffect(fn, EffectSite::Type::kBlocking, t + "(" + arg + ")",
                        tok, once_active);
            }
            pos_ = close;
            stmt_start = false;
            continue;
          }
        }

        // Call-ish: ident followed by `(`.
        if (Is(pos_ + 1, "(")) {
          HandleCall(fn, &held, depth, once_active, held_snapshot);
          stmt_start = false;
          continue;
        }

        // Owning local container declaration: std::vector<...> name ...
        // A reference or pointer local (std::vector<...>& name) binds
        // storage owned elsewhere and constructs nothing.
        if (t == "std" && Is(pos_ + 1, "::") && IsIdentAt(pos_ + 2) &&
            IsOwningContainerName(Text(pos_ + 2))) {
          size_t j = pos_ + 3;
          if (Is(j, "<")) j = SkipBalanced(j);
          const bool by_value = !Is(j, "&") && !Is(j, "*");
          while (Is(j, "&") || Is(j, "*")) ++j;
          if (IsIdentAt(j) && !IsKeyword(Text(j))) {
            if (by_value) {
              AddEffect(fn, EffectSite::Type::kOwningLocal,
                        "std::" + Text(pos_ + 2) + " local '" + Text(j) +
                            "'",
                        tok, once_active);
            }
            fn->local_types[Text(j)] = Text(pos_ + 2);
            pos_ = j + 1;
            stmt_start = false;
            continue;
          }
          pos_ += 2;
          stmt_start = false;
          continue;
        }

        // Local declaration type capture: Type[<...>] [&*] name [=;({].
        if (stmt_start && !IsKeyword(t) && !IsAnnotationMacro(t)) {
          TryCaptureLocalDecl(fn);
        }
        ++pos_;
        stmt_start = false;
        continue;
      }

      ++pos_;
      if (t != "::" && t != "->" && t != ".") stmt_start = false;
    }
  }

  /// Best-effort `Type name` local capture for receiver resolution;
  /// pure lookahead, consumes nothing.
  void TryCaptureLocalDecl(FunctionInfo* fn) {
    size_t j = pos_;
    std::string last_type;
    // Type: ident (:: ident)* [<...>]
    if (!IsIdentAt(j)) return;
    last_type = Text(j);
    ++j;
    while (Is(j, "::") && IsIdentAt(j + 1)) {
      last_type = Text(j + 1);
      j += 2;
    }
    if (Is(j, "<")) {
      size_t k = SkipBalanced(j);
      if (k <= j + 1) return;
      // Template tail: most specific class-ish name inside.
      for (size_t m = j + 1; m + 1 < k; ++m) {
        if (IsIdentAt(m) && !IsKeyword(Text(m))) last_type = Text(m);
      }
      j = k;
    }
    while (Is(j, "&") || Is(j, "*") || Is(j, "const")) ++j;
    if (!IsIdentAt(j) || IsKeyword(Text(j))) return;
    const std::string& var = Text(j);
    const std::string& after = Text(j + 1);
    if (after == "=" || after == ";" || after == "{" || after == "(" ||
        after == "[") {
      if (!IsKeyword(last_type)) fn->local_types[var] = last_type;
    }
  }

  using SnapshotFn = std::function<void(AcquireSite*)>;

  void HandleCall(FunctionInfo* fn, std::vector<HeldLock>* held, int depth,
                  bool once_active, const SnapshotFn& held_snapshot) {
    const Token& tok = Cur();
    const std::string& name = tok.text;

    // Receiver / qualifier to the left.
    std::string qualifier;
    std::string receiver_tokens;
    bool has_receiver = false;
    if (pos_ >= 1 && (Is(pos_ - 1, ".") || Is(pos_ - 1, "->"))) {
      has_receiver = true;
      receiver_tokens = ReceiverExprBefore(pos_ - 1);
      qualifier = ResolveExprType(receiver_tokens, *fn);
    } else if (pos_ >= 2 && Is(pos_ - 1, "::") && IsIdentAt(pos_ - 2)) {
      size_t q = pos_;
      std::vector<std::string> parts;
      while (q >= 2 && Is(q - 1, "::") && IsIdentAt(q - 2)) {
        parts.insert(parts.begin(), Text(q - 2));
        q -= 2;
      }
      for (const auto& p : parts) {
        if (!qualifier.empty()) qualifier += "::";
        qualifier += p;
      }
    }

    auto advance_past_name = [&] { ++pos_; };  // leave `(` to main loop

    if (IsKeyword(name) || IsAnnotationMacro(name)) {
      advance_past_name();
      return;
    }

    if (has_receiver && !receiver_tokens.empty()) {
      const std::string canon =
          CanonicalizeLockText(receiver_tokens, *fn);
      if (name == "Lock" || name == "LockShared" || name == "lock" ||
          name == "lock_shared") {
        AcquireSite site;
        site.lock_expr = canon;
        site.line = tok.line;
        site.validate_only = tok.validate_only;
        site.blocking = true;
        held_snapshot(&site);
        fn->acquires.push_back(site);
        held->push_back({canon, tok.line, depth, false});
        AddEffect(fn, EffectSite::Type::kBlocking, name + "() on " + canon,
                  tok, once_active);
        advance_past_name();
        return;
      }
      if (name == "TryLock" || name == "TryLockShared" ||
          name == "try_lock") {
        AcquireSite site;
        site.lock_expr = canon;
        site.line = tok.line;
        site.validate_only = tok.validate_only;
        site.blocking = false;
        held_snapshot(&site);
        fn->acquires.push_back(site);
        held->push_back({canon, tok.line, depth, false});
        advance_past_name();
        return;
      }
      if (name == "Unlock" || name == "UnlockShared" || name == "unlock" ||
          name == "unlock_shared") {
        for (size_t k = held->size(); k-- > 0;) {
          if ((*held)[k].canon == canon) {
            held->erase(held->begin() + static_cast<long>(k));
            break;
          }
        }
        advance_past_name();
        return;
      }
      if (name == "reserve" || name == "shrink_to_fit") {
        AddEffect(fn, EffectSite::Type::kCapacity,
                  name + "() on " + receiver_tokens, tok, once_active);
        advance_past_name();
        return;
      }
      // Condition-variable operations, recorded by canonical identity.
      // The frontend cannot always see the receiver's declaration (inline
      // methods parse before trailing members), so every Wait/Notify
      // member call is recorded and the atomics analysis filters to
      // receivers whose merged member type is CondVar.
      if (name == "Wait" || name == "WaitUntil" || name == "NotifyOne" ||
          name == "NotifyAll") {
        CvOpSite site;
        site.cv_expr = canon;
        site.line = tok.line;
        site.is_wait = name == "Wait" || name == "WaitUntil";
        if (site.is_wait && Is(pos_ + 1, "(")) {
          const size_t open = pos_ + 1;
          const size_t close = SkipBalanced(open);
          const auto args = SplitTopLevelArgs(open + 1, close - 1);
          if (!args.empty()) {
            site.mutex_expr = CanonicalizeLockText(args[0], *fn);
          }
        }
        fn->cv_ops.push_back(std::move(site));
        // Fall through: Wait keeps its blocking effect and call record.
      }
    }

    if (IsBlockingCallName(name)) {
      AddEffect(fn, EffectSite::Type::kBlocking, name + "()", tok,
                once_active);
      // Still record the call: Wait-style methods defined in this repo
      // (TaskGroup::Wait) have bodies worth traversing.
    }
    if (IsMallocName(name)) {
      AddEffect(fn, EffectSite::Type::kMalloc, name + "()", tok, once_active);
      advance_past_name();
      return;
    }
    if (IsMakeAllocName(name)) {
      AddEffect(fn, EffectSite::Type::kNew, "std::" + name, tok, once_active);
      advance_past_name();
      return;
    }

    // Declaration, not a call: `Foo bar(args);` — previous token is a
    // non-keyword identifier or a template/type tail.
    if (!has_receiver && qualifier.empty() && pos_ >= 1) {
      const Token& prev = toks_[pos_ - 1];
      if ((prev.kind == Token::Kind::kIdent && !IsKeyword(prev.text)) ||
          prev.text == ">" || prev.text == "*" || prev.text == "&") {
        advance_past_name();
        return;
      }
    }

    CallSite call;
    call.name = name;
    call.qualifier = qualifier;
    call.line = tok.line;
    call.validate_only = tok.validate_only;
    call.once_only = once_active;
    call.member_call = has_receiver;
    fn->calls.push_back(std::move(call));
    advance_past_name();
  }

  /// Textual receiver expression ending at the `.`/`->` at `dot`.
  std::string ReceiverExprBefore(size_t dot) const {
    // Walk back over ident / ] (balanced) / :: / linking . -> chains.
    size_t i = dot;
    std::vector<std::string> parts;  // reversed
    while (i > 0) {
      const Token& p = toks_[i - 1];
      if (p.kind == Token::Kind::kIdent || p.text == "this") {
        parts.push_back(p.text);
        i -= 1;
        if (i > 0 && (Is(i - 1, ".") || Is(i - 1, "->") || Is(i - 1, "::"))) {
          parts.push_back(Text(i - 1));
          i -= 1;
          continue;
        }
        break;
      }
      if (p.text == "]") {
        // shards_[idx].  — skip the subscript, keep the array name.
        size_t open = i - 1;
        int d = 0;
        while (open > 0) {
          if (toks_[open].text == "]") ++d;
          if (toks_[open].text == "[" && --d == 0) break;
          --open;
        }
        i = open;
        continue;  // next loop picks up the ident before `[`
      }
      if (p.text == ")") return "";  // call-chained receiver: give up
      break;
    }
    std::string out;
    for (auto it = parts.rbegin(); it != parts.rend(); ++it) out += *it;
    return out;
  }

  /// Resolves the *type* (last class-ish component) of a receiver
  /// expression via parameter/local types, then enclosing-class members.
  std::string ResolveExprType(const std::string& expr,
                              const FunctionInfo& fn) const {
    if (expr.empty()) return "";
    if (expr == "this") return fn.class_name;
    // Single identifier?
    if (expr.find('.') == std::string::npos &&
        expr.find("->") == std::string::npos &&
        expr.find("::") == std::string::npos) {
      auto it = fn.local_types.find(expr);
      if (it != fn.local_types.end()) return it->second;
      // Member of the enclosing class?
      for (const MemberDecl& m : out_->members) {
        if (m.name == expr && m.class_name == fn.class_name) return m.type;
      }
      return "";
    }
    return "";
  }

  /// Canonical lock identity for an expression:
  ///   member `mu_` of class C            -> "C::mu_"
  ///   `s.mu` / `s->mu` with s : Shard    -> "Shard::mu"
  ///   object `s` of type Shard that owns
  ///     exactly one mutex member `mu`    -> "Shard::mu"
  ///   `this->mu_`                        -> "C::mu_"
  ///   anything else                      -> the expression text
  std::string CanonicalizeLockText(const std::string& raw,
                                   const FunctionInfo& fn) const {
    std::string e = raw;
    // Strip leading &, *, this->/this.
    while (!e.empty() && (e[0] == '&' || e[0] == '*' || e[0] == ' ')) {
      e.erase(e.begin());
    }
    if (e.rfind("this->", 0) == 0) e = e.substr(6);
    else if (e.rfind("this.", 0) == 0) e = e.substr(5);

    // Split a.b / a->b (first separator only).
    size_t sep = e.find("->");
    size_t sep_len = 2;
    if (sep == std::string::npos) {
      sep = e.find('.');
      sep_len = 1;
    }
    if (sep != std::string::npos) {
      const std::string base = e.substr(0, sep);
      const std::string member = e.substr(sep + sep_len);
      if (member.find('.') == std::string::npos &&
          member.find("->") == std::string::npos) {
        const std::string t = ResolveExprType(base, fn);
        if (!t.empty()) return t + "::" + member;
      }
      return e;
    }

    // Bare identifier. Locals/params first (a mutex passed by reference
    // keeps its written name; a lock-owning object gets type identity).
    if (fn.local_types.count(e) != 0) {
      const std::string t = fn.local_types.at(e);
      if (IsMutexTypeName(t)) return e;
      // Object of a class with exactly one mutex member -> that member;
      // otherwise the type itself is the lock identity (one lock class
      // per object, e.g. ShardReadLock(shard) -> "Shard").
      std::string found;
      int count = 0;
      for (const MemberDecl& m : out_->members) {
        if (m.class_name == t && IsMutexTypeName(m.type)) {
          found = m.name;
          ++count;
        }
      }
      if (count == 1) return t + "::" + found;
      return t;
    }
    for (const MemberDecl& m : out_->members) {
      if (m.name == e && m.class_name == fn.class_name &&
          !m.class_name.empty()) {
        return fn.class_name + "::" + e;
      }
    }
    for (const MemberDecl& m : out_->members) {
      if (m.name == e && m.class_name.empty()) return e;  // file-scope var
    }
    // Unqualified non-local name inside a method is almost always a
    // member (possibly declared in a header we are not parsing right
    // now) — qualify it so same-named members of different classes do
    // not collapse into one lock node.
    if (!fn.class_name.empty()) return fn.class_name + "::" + e;
    return e;
  }

  void AddEffect(FunctionInfo* fn, EffectSite::Type type, std::string detail,
                 const Token& tok, bool once_active) {
    EffectSite e;
    e.type = type;
    e.detail = std::move(detail);
    e.line = tok.line;
    e.validate_only = tok.validate_only;
    e.once_only = once_active;
    fn->effects.push_back(std::move(e));
  }

  std::string path_;
  std::vector<Token> toks_;
  FileModel* out_;
  size_t pos_ = 0;
  std::vector<Scope> scopes_;
};

}  // namespace

FileModel ParseFile(const std::string& path, std::vector<Token> tokens) {
  // Macro bodies are not expanded at their use sites, so they take no
  // part in the model (only the token-level source rules read them).
  std::erase_if(tokens, [](const Token& t) { return t.macro_body; });
  FileModel model;
  model.path = path;
  Parser parser(path, std::move(tokens), &model);
  parser.Run();
  return model;
}

}  // namespace gqr::analyze
