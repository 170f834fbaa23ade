// Whole-program analyses over the extracted FileModels.
//
//  * Hot-path purity: call-graph BFS from every GQR_HOT function; any
//    transitively reachable allocation / throw / blocking acquisition is
//    a finding, reported with the full call chain. GQR_VALIDATE-gated
//    code and static/thread_local once-only initializers are excluded —
//    the hot-path contract is a release-build contract.
//  * Lock order: every acquisition made while other locks are held (or
//    declared pre-held via GQR_REQUIRES) contributes an edge to a global
//    lock-order graph over canonical lock names; any cycle — including a
//    self-edge, i.e. nested acquisition of the same lock class — is a
//    finding.
//  * Atomics discipline: (3a) a pointer-typed Atomic<> without
//    AtomicIntent::kPublicationPtr is a finding (its relaxed load would
//    feed a dereference with no acquire edge back to the publishing
//    store); (3b) every wait on a condition variable must use one
//    consistent mutex, and every notify must sit in a function that
//    acquires (or GQR_REQUIRES) that mutex — the static twin of the
//    lost-wakeup class the schedule explorer hunts dynamically.
//  * Token rules (check 4, per file, no model needed): raw std sync
//    primitives outside util/sync.h, bare assert(), and raw std::atomic
//    in src/ outside util/atomic.h. See CheckTokens.
//
// Waivers (tools/analyze/waivers.txt) suppress individual findings by
// pattern, and every waiver must carry a reason — same policy as the
// repo's NOLINT-with-reason clang-tidy gate.
#ifndef GQR_TOOLS_ANALYZE_ANALYSIS_H_
#define GQR_TOOLS_ANALYZE_ANALYSIS_H_

#include <map>
#include <string>
#include <vector>

#include "lexer.h"
#include "model.h"

namespace gqr::analyze {

struct Finding {
  std::string check;  // "hot-path" | "lock-order" | "atomics" | "tokens"
  std::string file;
  int line = 0;
  std::string message;     // Fully formatted, multi-line (chain included).
  std::string waiver_key;  // What waiver patterns match against.
  bool waived = false;
  std::string waiver_reason;
};

struct Waiver {
  std::string check;    // "hot-path" | "lock-order" | "atomics" | "tokens"
  std::string pattern;  // Substring of the finding's waiver_key.
  std::string reason;   // Required non-empty.
  int line = 0;
  bool used = false;
};

/// Parses a waivers file. Returns false (with *error set) on a
/// malformed line — including a waiver without a reason.
bool ParseWaivers(const std::string& text, std::vector<Waiver>* out,
                  std::string* error);

bool EndsWith(const std::string& s, const std::string& suffix);

/// Trees the token rules cover, relative to the repo root.
inline constexpr const char* kTokenRuleRoots[] = {"src", "tests", "bench",
                                                  "fuzz", "examples"};

/// Check 4, over one lexed file; `path` is relative to the repo root and
/// decides the scope. Comments and string literals never match (the
/// lexer drops them), while code that NDEBUG or any other conditional
/// compiles out, and `#define` bodies, do.
///   raw-sync    std::mutex / lock_guard / unique_lock / scoped_lock /
///               shared_mutex / shared_lock / condition_variable[_any] /
///               timed_mutex / recursive_* / shared_timed_mutex outside
///               util/sync.h and util/det_sched.*, in every root above;
///   raw-assert  a bare assert( call, in every root above;
///   raw-atomic  std::atomic / std::atomic_flag in src/ outside
///               util/atomic.h and util/det_sched.*.
std::vector<Finding> CheckTokens(const std::string& path,
                                 const std::vector<Token>& tokens,
                                 std::vector<Waiver>* waivers);

class Analyzer {
 public:
  /// `in_lock_universe` excludes the sync-primitive implementation file
  /// itself (util/sync.h) from lock-order edge extraction; it stays in
  /// the hot-path universe.
  /// `in_atomics_universe` excludes util/atomic.h and util/sync.h from
  /// the atomics-discipline check — they implement the sanctioned
  /// wrappers and the condvar itself. Member *types* from excluded files
  /// still inform the check (they identify which members are CondVars).
  void AddFile(FileModel model, bool in_lock_universe,
               bool in_atomics_universe);

  /// The analyses. Waivers are matched (and flagged used) in place.
  std::vector<Finding> RunHotPath(std::vector<Waiver>* waivers) const;
  std::vector<Finding> RunLockOrder(std::vector<Waiver>* waivers) const;
  std::vector<Finding> RunAtomics(std::vector<Waiver>* waivers) const;

  /// Debug aid (--dump): prints extraction for every function whose
  /// qname contains `pattern`.
  void DumpFunctions(const std::string& pattern) const;

 private:
  struct Fn {
    FunctionInfo info;
    bool in_lock_universe = true;
    bool in_atomics_universe = true;
  };

  struct MemberRec {
    MemberDecl decl;
    bool in_atomics_universe = true;
  };

  std::vector<int> Resolve(const Fn& caller, const CallSite& call) const;
  bool MergedHot(const Fn& fn) const;
  std::vector<std::string> MergedRequires(const Fn& fn) const;

  const std::vector<int>& Lookup(const std::string& name) const;
  void BuildIndex() const;

  std::vector<Fn> fns_;
  std::vector<MemberRec> members_;
  // name -> indices into fns_ (built lazily on first Run*).
  mutable std::map<std::string, std::vector<int>> name_index_;
  // class::name -> any decl/def carries GQR_HOT / GQR_REQUIRES.
  mutable std::map<std::string, bool> hot_by_key_;
  mutable std::map<std::string, std::vector<std::string>> requires_by_key_;
  mutable bool index_built_ = false;
};

}  // namespace gqr::analyze

#endif  // GQR_TOOLS_ANALYZE_ANALYSIS_H_
