// Token-level extraction frontend for gqr-analyze.
//
// Parses one C++ source file (header or TU) into the FileModel the
// analyses consume: function definitions with their qualified names,
// GQR_HOT / GQR_REQUIRES markers, call sites, hot-path-relevant effects
// (allocation, throw, blocking acquisition) and lock acquisitions with
// the held-lock context at each site.
//
// Precision contract (also in README.md): the frontend recognizes the
// repo's house style — scope-qualified out-of-line definitions, scoped
// locks from util/sync.h (and any GQR_SCOPED_CAPABILITY type whose name
// ends in "Lock"), GQR_* annotation macros, `#if GQR_VALIDATE` blocks.
// It is deliberately conservative where token-level parsing is
// ambiguous: unresolvable calls are kept by name and matched against
// every same-named function in the analysis universe; unknown external
// calls are assumed pure. It does not expand macros or follow includes.
#ifndef GQR_TOOLS_ANALYZE_FRONTEND_H_
#define GQR_TOOLS_ANALYZE_FRONTEND_H_

#include <string>
#include <vector>

#include "lexer.h"
#include "model.h"

namespace gqr::analyze {

/// Parses `tokens` (the lexed contents of `path`) into a FileModel.
/// Never fails: constructs the frontend can't classify contribute
/// nothing.
FileModel ParseFile(const std::string& path, std::vector<Token> tokens);

}  // namespace gqr::analyze

#endif  // GQR_TOOLS_ANALYZE_FRONTEND_H_
