// gqr-analyze: the static analysis gate for the GQR codebase.
//
//   gqr-analyze --build-dir build [--source-dir .] [--check all]
//   gqr-analyze --self-test [--testdata tools/analyze/testdata]
//
// Checks (see analysis.h / DESIGN.md §17):
//   hot-path    interprocedural GQR_HOT purity (no transitive allocation,
//               throw, or blocking acquisition), with full call chains
//   lock-order  global lock-order graph from scoped-lock usage and
//               GQR_REQUIRES; fails on any cycle
//   atomics     pointer-typed Atomic<> without publication intent, and
//               condvar wait/notify sites that do not share one mutex
//   tokens      per-file rules over src/, tests/, bench/, fuzz/ and
//               examples/: raw std sync primitives outside util/sync.h,
//               bare assert(), raw std::atomic in src/ outside
//               util/atomic.h (runs only with --check all)
//
// Exit codes: 0 clean, 1 findings, 2 usage/internal error. --strict
// additionally promotes unused-waiver warnings to findings (CI hygiene:
// stale waivers must be deleted).

#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "analysis.h"
#include "compile_db.h"
#include "frontend.h"

namespace gqr::analyze {
namespace {

namespace fs = std::filesystem;

bool ReadFileToString(const fs::path& p, std::string* out) {
  std::ifstream in(p, std::ios::binary);
  if (!in) return false;
  std::ostringstream buf;
  buf << in.rdbuf();
  *out = buf.str();
  return true;
}

/// The sync-primitive implementation is excluded from lock-order edge
/// extraction (it IS the locks); everything else in src/ is in both
/// universes.
bool InLockUniverse(const std::string& path) {
  return !EndsWith(path, "util/sync.h");
}

/// util/det_sched.* is the GQR_MODELCHECK-only schedule explorer: its
/// coordinator and hooks block by design (serialized execution is the
/// point), and none of it is compiled into release builds. The token
/// frontend is not preprocessor-aware, so the files are excluded from
/// the analysis universe entirely rather than waived finding by finding.
bool InAnalysisUniverse(const std::string& path) {
  return !EndsWith(path, "util/det_sched.h") &&
         !EndsWith(path, "util/det_sched.cc");
}

/// util/atomic.h implements the sanctioned wrapper (it holds the only
/// permitted raw std::atomic / atomic_flag); util/sync.h implements the
/// condvar whose discipline the check enforces. Their member *types*
/// still feed the analysis — only their own sites are exempt.
bool InAtomicsUniverse(const std::string& path) {
  return !EndsWith(path, "util/atomic.h") && !EndsWith(path, "util/sync.h");
}

std::string Relativize(const std::string& path, const fs::path& root) {
  std::error_code ec;
  const fs::path rel = fs::relative(path, root, ec);
  if (ec || rel.empty()) return path;
  const std::string r = rel.string();
  return r.rfind("..", 0) == 0 ? path : r;
}

struct Options {
  std::string build_dir = "build";
  std::string source_dir = ".";
  std::string waivers_path;  // empty: default to <source>/tools/analyze/...
  std::string check = "all";
  std::string testdata;  // self-test data dir
  std::string dump;      // debug: dump extraction for matching functions
  bool self_test = false;
  bool verbose = false;
  bool strict = false;  // unused waivers become findings
};

int Usage() {
  std::cerr
      << "usage: gqr-analyze [--build-dir DIR] [--source-dir DIR]\n"
         "                   [--waivers FILE] [--check all|hot-path|"
         "lock-order|atomics]\n"
         "                   [--strict] [-v]\n"
         "       gqr-analyze --self-test [--testdata DIR]\n";
  return 2;
}

bool LoadWaivers(const std::string& path, std::vector<Waiver>* out,
                 bool required) {
  std::string text;
  if (!ReadFileToString(path, &text)) {
    if (required) {
      std::cerr << "gqr-analyze: cannot read waivers file " << path << "\n";
      return false;
    }
    return true;  // optional default file absent: no waivers
  }
  std::string error;
  if (!ParseWaivers(text, out, &error)) {
    std::cerr << "gqr-analyze: " << path << ": " << error << "\n";
    return false;
  }
  return true;
}

int ReportFindings(const std::vector<Finding>& findings,
                   const std::vector<Waiver>& waivers, const fs::path& root,
                   bool verbose, bool strict) {
  int unwaived = 0, waived = 0;
  for (const Finding& f : findings) {
    if (f.waived) {
      ++waived;
      if (verbose) {
        std::cout << "gqr-analyze: waived: " << f.check << ": "
                  << Relativize(f.file, root) << ":" << f.line << " ("
                  << f.waiver_reason << ")\n";
      }
      continue;
    }
    ++unwaived;
    std::cout << "gqr-analyze: " << f.check << ": " << f.message << "\n";
  }
  for (const Waiver& w : waivers) {
    if (!w.used) {
      std::cout << "gqr-analyze: " << (strict ? "error" : "warning")
                << ": unused waiver '" << w.pattern << "' (" << w.check
                << ", waivers line " << w.line << ")"
                << (strict ? " — delete stale waivers (--strict)" : "")
                << "\n";
      if (strict) ++unwaived;
    }
  }
  if (waived > 0) {
    std::cout << "gqr-analyze: " << waived
              << " finding(s) waived with reasons (see waivers.txt"
              << (verbose ? "" : ", -v to list") << ")\n";
  }
  return unwaived;
}

// ---------------------------------------------------------------------------
// Repo mode
// ---------------------------------------------------------------------------

int RunRepo(const Options& opt) {
  // Canonicalize so the src/ prefix filter below compares like with
  // like: fs::absolute(".") keeps the trailing "/." and would match no
  // compile-database entry.
  const fs::path source_root =
      fs::weakly_canonical(fs::absolute(opt.source_dir));
  const fs::path src = source_root / "src";
  if (!fs::is_directory(src)) {
    std::cerr << "gqr-analyze: no src/ under " << source_root << "\n";
    return 2;
  }

  // TU list from the compile database, headers from a src/ walk. The
  // frontend does not need compiler flags, but reading the database
  // keeps the analyzed set honest: exactly what the build compiles,
  // plus the headers those TUs include.
  const fs::path db_path =
      fs::path(opt.build_dir) / "compile_commands.json";
  std::vector<std::string> db_files;
  std::string error;
  if (!ReadCompileDb(db_path.string(), &db_files, &error)) {
    std::cerr << "gqr-analyze: " << error
              << " (configure with -DCMAKE_EXPORT_COMPILE_COMMANDS=ON)\n";
    return 2;
  }

  std::set<std::string> universe;
  const std::string src_prefix = src.string() + "/";
  for (const std::string& f : db_files) {
    std::error_code ec;
    const fs::path canon = fs::weakly_canonical(f, ec);
    const std::string p = ec ? f : canon.string();
    if (p.rfind(src_prefix, 0) == 0 && InAnalysisUniverse(p)) {
      universe.insert(p);
    }
  }
  for (const auto& entry : fs::recursive_directory_iterator(src)) {
    if (!entry.is_regular_file()) continue;
    const std::string ext = entry.path().extension().string();
    if (ext != ".h" && ext != ".hpp") continue;
    std::error_code ec;
    const fs::path canon = fs::weakly_canonical(entry.path(), ec);
    const std::string p = ec ? entry.path().string() : canon.string();
    if (InAnalysisUniverse(p)) universe.insert(p);
  }
  if (universe.empty()) {
    std::cerr << "gqr-analyze: no src/ TUs in " << db_path << "\n";
    return 2;
  }

  Analyzer analyzer;
  int parsed = 0;
  for (const std::string& path : universe) {
    std::string text;
    if (!ReadFileToString(path, &text)) {
      std::cerr << "gqr-analyze: cannot read " << path << "\n";
      return 2;
    }
    analyzer.AddFile(ParseFile(Relativize(path, source_root), Lex(text)),
                     InLockUniverse(path), InAtomicsUniverse(path));
    ++parsed;
  }

  std::vector<Waiver> waivers;
  const std::string waivers_path =
      !opt.waivers_path.empty()
          ? opt.waivers_path
          : (source_root / "tools" / "analyze" / "waivers.txt").string();
  if (!LoadWaivers(waivers_path, &waivers, !opt.waivers_path.empty())) {
    return 2;
  }

  if (!opt.dump.empty()) {
    analyzer.DumpFunctions(opt.dump);
    return 0;
  }

  std::vector<Finding> findings;
  if (opt.check == "all" || opt.check == "hot-path") {
    auto f = analyzer.RunHotPath(&waivers);
    findings.insert(findings.end(), f.begin(), f.end());
  }
  if (opt.check == "all" || opt.check == "lock-order") {
    auto f = analyzer.RunLockOrder(&waivers);
    findings.insert(findings.end(), f.begin(), f.end());
  }
  if (opt.check == "all" || opt.check == "atomics") {
    auto f = analyzer.RunAtomics(&waivers);
    findings.insert(findings.end(), f.begin(), f.end());
  }
  if (opt.check == "all") {
    // Every source file of the covered trees, not only what the build
    // compiles: a header no TU includes yet still ships.
    for (const char* root : kTokenRuleRoots) {
      const fs::path dir = source_root / root;
      if (!fs::is_directory(dir)) continue;
      for (const auto& entry : fs::recursive_directory_iterator(dir)) {
        const std::string ext = entry.path().extension().string();
        if (!entry.is_regular_file() ||
            (ext != ".cc" && ext != ".h" && ext != ".cpp" && ext != ".hpp")) {
          continue;
        }
        std::string text;
        if (!ReadFileToString(entry.path(), &text)) {
          std::cerr << "gqr-analyze: cannot read " << entry.path() << "\n";
          return 2;
        }
        auto f = CheckTokens(Relativize(entry.path().string(), source_root),
                             Lex(text), &waivers);
        findings.insert(findings.end(), f.begin(), f.end());
      }
    }
  }

  const int unwaived = ReportFindings(findings, waivers, source_root,
                                      opt.verbose, opt.strict);
  if (opt.verbose) {
    std::cout << "gqr-analyze: analyzed " << parsed << " files ("
              << opt.check << ")\n";
  }
  if (unwaived > 0) {
    std::cout << "gqr-analyze: " << unwaived << " finding(s)\n";
    return 1;
  }
  std::cout << "gqr-analyze: OK (" << parsed << " files, checks: "
            << opt.check << ")\n";
  return 0;
}

// ---------------------------------------------------------------------------
// Self-test mode: seeded-bad TUs must fire, good TUs must stay quiet,
// and the repo waivers file must not mask seeded violations.
// ---------------------------------------------------------------------------

struct SelfTestCase {
  const char* file;     // Seed under testdata/.
  std::string as_path;  // Repo path it is analyzed as (token-rule scope).
  const char* check;    // Check that must fire; "" with min 0: any check.
  int min_findings;     // 0: `check` must stay silent on this path.
  std::vector<std::string> expect;  // Each must appear in some finding.
};

int RunSelfTest(const Options& opt) {
  fs::path testdata = opt.testdata.empty()
                          ? fs::path("tools/analyze/testdata")
                          : fs::path(opt.testdata);
  if (!fs::is_directory(testdata)) {
    // Fall back to the directory next to the binary's source, passed by
    // ctest via --testdata; nothing more to guess here.
    std::cerr << "gqr-analyze: testdata directory not found: " << testdata
              << "\n";
    return 2;
  }

  std::vector<SelfTestCase> cases = {
      {"good.cc", "src/good.cc", "", 0, {}},
      {"bad_hot_transitive_alloc.cc", "src/bad_hot_transitive_alloc.cc",
       "hot-path", 1, {"SeedHot -> SeedMid -> SeedLeafAlloc"}},
      {"bad_hot_transitive_throw.cc", "src/bad_hot_transitive_throw.cc",
       "hot-path", 1, {"may throw"}},
      {"bad_hot_transitive_lock.cc", "src/bad_hot_transitive_lock.cc",
       "hot-path", 1, {"may block"}},
      {"bad_hot_alloc.cc", "src/bad_hot_alloc.cc", "hot-path", 4,
       {"std::vector local", "operator new", "malloc()", "reserve()"}},
      {"bad_hot_template_alloc.cc", "src/bad_hot_template_alloc.cc",
       "hot-path", 1, {"SeedSearcher::SeedSearchInto", "std::vector local"}},
      {"bad_lock_cycle.cc", "src/bad_lock_cycle.cc", "lock-order", 1,
       {"lock-order cycle"}},
      {"bad_lock_requires.cc", "src/bad_lock_requires.cc", "lock-order", 1,
       {"lock-order cycle"}},
      {"bad_atomic_pub_intent.cc", "src/bad_atomic_pub_intent.cc",
       "atomics", 2, {"kPublicationPtr"}},
      {"bad_cv_mixed_mutex.cc", "src/bad_cv_mixed_mutex.cc", "atomics", 1,
       {"different mutexes"}},
      {"bad_cv_notify_no_mutex.cc", "src/bad_cv_notify_no_mutex.cc",
       "atomics", 1, {"without acquiring"}},
      {"bad_raw_atomic.cc", "src/bad_raw_atomic.cc", "tokens", 2,
       {"raw-atomic: std::atomic outside",
        "raw-atomic: std::atomic_flag outside"}},
      // Scope: raw-atomic is src/-only, and each rule spares the
      // wrapper it mandates; nothing outside the five trees is read.
      {"bad_raw_atomic.cc", "tests/bad_raw_atomic.cc", "tokens", 0, {}},
      {"bad_raw_atomic.cc", "src/util/atomic.h", "tokens", 0, {}},
      {"bad_raw_mutex.cc", "src/util/sync.h", "tokens", 0, {}},
      {"bad_raw_mutex.cc", "src/util/det_sched.cc", "tokens", 0, {}},
      {"bad_assert.cc", "tools/bad_assert.cc", "tokens", 0, {}},
  };
  // raw-sync and raw-assert hold in every covered tree, not only src/.
  for (const char* root : kTokenRuleRoots) {
    const std::string dir = std::string(root) + "/";
    cases.push_back({"bad_raw_mutex.cc", dir + "bad_raw_mutex.cc", "tokens",
                     3,
                     {"raw-sync: std::mutex", "raw-sync: std::condition_var",
                      "raw-sync: std::lock_guard"}});
    cases.push_back({"bad_assert.cc", dir + "bad_assert.cc", "tokens", 2,
                     {"raw-assert"}});
  }

  // Repo waivers (if present) are loaded for the masking check below.
  std::vector<Waiver> repo_waivers;
  const fs::path repo_waivers_path = testdata.parent_path() / "waivers.txt";
  {
    std::string text;
    if (ReadFileToString(repo_waivers_path, &text)) {
      std::string error;
      if (!ParseWaivers(text, &repo_waivers, &error)) {
        std::cerr << "gqr-analyze: self-test: repo waivers unparsable: "
                  << error << "\n";
        return 2;
      }
    }
  }

  int failures = 0;
  auto fail = [&](const std::string& msg) {
    std::cerr << "gqr-analyze: self-test FAIL: " << msg << "\n";
    ++failures;
  };

  auto analyze_one = [&](const fs::path& file, const std::string& as_path,
                         std::vector<Waiver>* waivers,
                         std::vector<Finding>* out) -> bool {
    std::string text;
    if (!ReadFileToString(file, &text)) return false;
    const std::vector<Token> tokens = Lex(text);
    Analyzer analyzer;
    analyzer.AddFile(ParseFile(as_path, tokens), true, true);
    for (auto f : {analyzer.RunHotPath(waivers),
                   analyzer.RunLockOrder(waivers),
                   analyzer.RunAtomics(waivers),
                   CheckTokens(as_path, tokens, waivers)}) {
      out->insert(out->end(), f.begin(), f.end());
    }
    return true;
  };

  for (const SelfTestCase& c : cases) {
    const fs::path file = testdata / c.file;
    const std::string label = std::string(c.file) + " as " + c.as_path;
    std::vector<Finding> findings;
    if (!analyze_one(file, c.as_path, nullptr, &findings)) {
      fail("cannot read " + file.string());
      continue;
    }
    int matching = 0;
    const Finding* first = nullptr;
    for (const Finding& f : findings) {
      if (c.check[0] != '\0' && f.check != c.check) continue;
      if (++matching == 1) first = &f;
    }
    if (c.min_findings == 0) {
      if (matching > 0) {
        fail(label + ": expected no " +
             (c.check[0] == '\0' ? "" : std::string(c.check) + " ") +
             "findings, got " + std::to_string(matching) + ": " +
             first->message);
      }
      continue;
    }
    if (matching < c.min_findings) {
      fail(label + ": expected >= " + std::to_string(c.min_findings) + " " +
           c.check + " finding(s), got " + std::to_string(matching));
      continue;
    }
    bool all_found = true;
    for (const std::string& sub : c.expect) {
      bool found = false;
      for (const Finding& f : findings) {
        found = found || f.message.find(sub) != std::string::npos;
      }
      if (!found) {
        fail(label + ": no finding mentions '" + sub + "'");
        all_found = false;
      }
    }
    if (!all_found) continue;
    // Masking check: the repo waivers must not silence a seeded TU.
    if (!repo_waivers.empty()) {
      std::vector<Finding> waived_run;
      std::vector<Waiver> waivers_copy = repo_waivers;
      if (!analyze_one(file, c.as_path, &waivers_copy, &waived_run)) continue;
      int unwaived = 0;
      for (const Finding& f : waived_run) {
        if (!f.waived && f.check == c.check) ++unwaived;
      }
      if (unwaived < c.min_findings) {
        fail(label + ": repo waivers.txt masks a seeded violation");
      }
    }
  }

  // Waiver mechanism: waived.cc findings are suppressed by the adjacent
  // self-test waivers file, and unmatched waivers are detected.
  {
    const fs::path file = testdata / "waived.cc";
    std::string wtext;
    std::vector<Waiver> waivers;
    if (!ReadFileToString(testdata / "waivers_selftest.txt", &wtext)) {
      fail("cannot read waivers_selftest.txt");
    } else {
      std::string error;
      if (!ParseWaivers(wtext, &waivers, &error)) {
        fail("waivers_selftest.txt unparsable: " + error);
      }
    }
    std::vector<Finding> without;
    if (!analyze_one(file, "src/waived.cc", nullptr, &without)) {
      fail("cannot read waived.cc");
    } else {
      if (without.empty()) {
        fail("waived.cc: expected findings without waivers, got none");
      }
      std::vector<Finding> with;
      analyze_one(file, "src/waived.cc", &waivers, &with);
      for (const Finding& f : with) {
        if (!f.waived) {
          fail("waived.cc: finding not waived: " + f.message);
          break;
        }
      }
    }
  }

  // Waiver hygiene: a reason-less waiver must be rejected at parse time.
  {
    std::vector<Waiver> out;
    std::string error;
    if (ParseWaivers("hot-path SomeFunction\n", &out, &error)) {
      fail("reason-less waiver was accepted");
    }
  }

  if (failures > 0) {
    std::cerr << "gqr-analyze: self-test: " << failures << " failure(s)\n";
    return 1;
  }
  std::cout << "gqr-analyze: self-test OK (" << cases.size()
            << " seeded cases + waiver checks)\n";
  return 0;
}

int Main(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    if (arg == "--build-dir") {
      const char* v = next();
      if (!v) return Usage();
      opt.build_dir = v;
    } else if (arg == "--source-dir") {
      const char* v = next();
      if (!v) return Usage();
      opt.source_dir = v;
    } else if (arg == "--waivers") {
      const char* v = next();
      if (!v) return Usage();
      opt.waivers_path = v;
    } else if (arg == "--check") {
      const char* v = next();
      if (!v) return Usage();
      opt.check = v;
      if (opt.check != "all" && opt.check != "hot-path" &&
          opt.check != "lock-order" && opt.check != "atomics") {
        return Usage();
      }
    } else if (arg == "--testdata") {
      const char* v = next();
      if (!v) return Usage();
      opt.testdata = v;
    } else if (arg == "--dump") {
      const char* v = next();
      if (!v) return Usage();
      opt.dump = v;
    } else if (arg == "--self-test") {
      opt.self_test = true;
    } else if (arg == "--strict") {
      opt.strict = true;
    } else if (arg == "-v" || arg == "--verbose") {
      opt.verbose = true;
    } else {
      return Usage();
    }
  }
  return opt.self_test ? RunSelfTest(opt) : RunRepo(opt);
}

}  // namespace
}  // namespace gqr::analyze

int main(int argc, char** argv) { return gqr::analyze::Main(argc, argv); }
