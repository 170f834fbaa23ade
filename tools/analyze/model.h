// Extraction model shared by the gqr-analyze frontend and analyses.
//
// The frontend reduces every translation unit to this model; the
// analyses (analysis.h) consume only the model, never the tokens.
#ifndef GQR_TOOLS_ANALYZE_MODEL_H_
#define GQR_TOOLS_ANALYZE_MODEL_H_

#include <map>
#include <string>
#include <vector>

namespace gqr::analyze {

/// One call expression inside a function body.
struct CallSite {
  std::string name;       // Last name component ("Next", "Plan").
  std::string qualifier;  // Written qualifier, if any ("std", "gqr::detail").
  int line = 0;
  bool validate_only = false;  // Inside a GQR_VALIDATE conditional.
  bool once_only = false;      // Inside a static/thread_local initializer.
  /// Written as `expr.name(...)` / `expr->name(...)`. When the receiver
  /// type could not be resolved (qualifier empty), resolution falls back
  /// to every same-named function — virtual dispatch conservatism.
  bool member_call = false;
};

/// A hot-path-relevant effect inside a function body.
struct EffectSite {
  enum class Type {
    kNew,          // operator new / new[]
    kMalloc,       // malloc-family call
    kOwningLocal,  // automatic-storage owning container declaration
    kCapacity,     // reserve / shrink_to_fit member call
    kThrow,        // throw expression
    kBlocking,     // blocking lock acquisition or condition-variable wait
  };

  Type type;
  std::string detail;  // Human-readable: "new", "std::vector local", ...
  int line = 0;
  bool validate_only = false;
  bool once_only = false;
};

/// One condition-variable operation: `cv.Wait(mu)` / `cv.WaitUntil(mu,
/// ...)` records the canonical cv and mutex identities; `cv.NotifyOne()`
/// / `cv.NotifyAll()` records the cv alone. Raw material for the
/// atomics-discipline check's wait/notify mutex-consistency rule.
struct CvOpSite {
  std::string cv_expr;     // Canonicalized ("State::cv", "Impl::cv_").
  std::string mutex_expr;  // Wait sites only; empty for notifies.
  int line = 0;
  bool is_wait = false;
};

/// One lock acquisition (scoped-lock construction or direct Lock call),
/// with the set of locks already held in the enclosing scopes at that
/// point — the raw material of the lock-order graph.
struct AcquireSite {
  std::string lock_expr;  // Canonicalized lock name ("Shard::mu", "g_mu").
  int line = 0;
  bool validate_only = false;
  /// False for TryLock/TryLockShared: a failed try cannot block, so the
  /// acquisition never closes a deadlock cycle — but a *successful* try
  /// is still held, so it contributes to held_exprs of later acquires.
  bool blocking = true;
  /// Lock expressions (same normalization) held when this acquisition
  /// happens, innermost last; GQR_REQUIRES locks are added by the
  /// analysis, not here.
  std::vector<std::string> held_exprs;
  std::vector<int> held_lines;
};

/// One function definition or declaration.
struct FunctionInfo {
  std::string qname;  // Fully scope-qualified ("gqr::ThreadPool::Enqueue").
  std::string name;   // Last component ("Enqueue").
  // Innermost enclosing (or written) class name, empty for free functions.
  std::string class_name;
  std::string file;
  int line = 0;
  bool defined = false;  // Has a body (vs declaration only).
  bool hot = false;      // Carries GQR_HOT (on this decl or a merged one).

  /// Raw argument strings of GQR_REQUIRES / GQR_REQUIRES_SHARED.
  std::vector<std::string> requires_locks;

  std::vector<CallSite> calls;
  std::vector<EffectSite> effects;
  std::vector<AcquireSite> acquires;
  std::vector<CvOpSite> cv_ops;

  /// Best-effort local/parameter name -> type (last class-ish component),
  /// used to resolve lock expressions like "s.mu" to "Shard::mu".
  std::map<std::string, std::string> local_types;
};

/// A class member (or namespace-scope variable) declaration the lock
/// analyses care about: sync primitives and, best-effort, typed members
/// used to resolve receiver expressions.
struct MemberDecl {
  std::string class_name;  // Empty for namespace-scope variables.
  std::string name;
  std::string type;  // Last type component ("Mutex", "SharedMutex", ...).
  /// Joined text of the template arguments written directly after the
  /// type ("Node*,AtomicIntent::kCounter" for Atomic<Node*, ...>); empty
  /// when the type is not written with template arguments. Used by the
  /// atomics-discipline check to read the declared intent.
  std::string type_args;
  std::string file;
  int line = 0;
};

/// Everything extracted from one file.
struct FileModel {
  std::string path;
  std::vector<FunctionInfo> functions;
  std::vector<MemberDecl> members;
};

}  // namespace gqr::analyze

#endif  // GQR_TOOLS_ANALYZE_MODEL_H_
