#include "analysis.h"

#include <algorithm>
#include <deque>
#include <functional>
#include <iostream>
#include <set>
#include <sstream>

namespace gqr::analyze {

namespace {

std::string MergeKey(const FunctionInfo& f) {
  return f.class_name + "::" + f.name;
}

bool StartsWith(const std::string& s, const std::string& prefix) {
  return s.rfind(prefix, 0) == 0;
}

bool IsRawSyncName(const std::string& s) {
  return s == "mutex" || s == "timed_mutex" || s == "recursive_mutex" ||
         s == "recursive_timed_mutex" || s == "shared_mutex" ||
         s == "shared_timed_mutex" || s == "condition_variable" ||
         s == "condition_variable_any" || s == "lock_guard" ||
         s == "unique_lock" || s == "scoped_lock" || s == "shared_lock";
}

const char* EffectVerb(EffectSite::Type t) {
  switch (t) {
    case EffectSite::Type::kNew:
      return "may allocate";
    case EffectSite::Type::kMalloc:
      return "may allocate";
    case EffectSite::Type::kOwningLocal:
      return "constructs an owning container";
    case EffectSite::Type::kCapacity:
      return "may reallocate";
    case EffectSite::Type::kThrow:
      return "may throw";
    case EffectSite::Type::kBlocking:
      return "may block";
  }
  return "has an impure effect";
}

void ApplyWaivers(std::vector<Finding>* findings,
                  std::vector<Waiver>* waivers) {
  if (waivers == nullptr) return;
  for (Finding& f : *findings) {
    for (Waiver& w : *waivers) {
      if (w.check != f.check) continue;
      if (f.waiver_key.find(w.pattern) == std::string::npos) continue;
      f.waived = true;
      f.waiver_reason = w.reason;
      w.used = true;
      break;
    }
  }
}

}  // namespace

bool EndsWith(const std::string& s, const std::string& suffix) {
  return s.size() >= suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

std::vector<Finding> CheckTokens(const std::string& path,
                                 const std::vector<Token>& tokens,
                                 std::vector<Waiver>* waivers) {
  bool in_tree = false;
  for (const char* root : kTokenRuleRoots) {
    in_tree = in_tree || StartsWith(path, std::string(root) + "/");
  }
  if (!in_tree) return {};
  const bool explorer = path.find("util/det_sched") != std::string::npos;
  const bool sync_ok = explorer || EndsWith(path, "util/sync.h");
  const bool atomic_ok = !StartsWith(path, "src/") || explorer ||
                         EndsWith(path, "util/atomic.h");

  std::vector<Finding> findings;
  auto report = [&](const Token& tok, const std::string& rule,
                    const std::string& what) {
    Finding f;
    f.check = "tokens";
    f.file = path;
    f.line = tok.line;
    f.waiver_key = path + " " + rule;
    f.message = path + ":" + std::to_string(tok.line) + ": " + rule + ": " +
                what;
    findings.push_back(std::move(f));
  };
  auto is = [&](size_t i, const char* text) {
    return i < tokens.size() && tokens[i].text == text;
  };
  for (size_t i = 0; i < tokens.size(); ++i) {
    const Token& tok = tokens[i];
    if (tok.kind != Token::Kind::kIdent) continue;
    if (tok.text == "assert" && is(i + 1, "(")) {
      report(tok, "raw-assert",
             "bare assert() compiles away under NDEBUG; use GQR_CHECK / "
             "GQR_DCHECK (util/check.h)");
      continue;
    }
    if (tok.text != "std" || !is(i + 1, "::") || i + 2 >= tokens.size()) {
      continue;
    }
    const std::string& name = tokens[i + 2].text;
    if (!sync_ok && IsRawSyncName(name)) {
      report(tok, "raw-sync",
             "std::" + name + " outside util/sync.h; use the annotated "
             "util/sync.h types so the thread-safety analysis sees the lock");
    } else if (!atomic_ok && (name == "atomic" || name == "atomic_flag")) {
      report(tok, "raw-atomic",
             "std::" + name + " outside util/atomic.h; declare a "
             "gqr::Atomic<> with a named memory-order intent");
    }
  }
  ApplyWaivers(&findings, waivers);
  return findings;
}

bool ParseWaivers(const std::string& text, std::vector<Waiver>* out,
                  std::string* error) {
  std::istringstream in(text);
  std::string line;
  int lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    // Trim.
    size_t b = line.find_first_not_of(" \t");
    if (b == std::string::npos) continue;
    if (line[b] == '#') continue;
    std::istringstream ls(line.substr(b));
    Waiver w;
    w.line = lineno;
    if (!(ls >> w.check >> w.pattern)) {
      if (error) {
        *error = "waivers line " + std::to_string(lineno) +
                 ": expected '<check> <pattern> <reason...>'";
      }
      return false;
    }
    std::getline(ls, w.reason);
    const size_t rb = w.reason.find_first_not_of(" \t");
    w.reason = rb == std::string::npos ? "" : w.reason.substr(rb);
    if (w.check != "hot-path" && w.check != "lock-order" &&
        w.check != "atomics" && w.check != "tokens") {
      if (error) {
        *error = "waivers line " + std::to_string(lineno) +
                 ": unknown check '" + w.check + "'";
      }
      return false;
    }
    if (w.reason.empty()) {
      if (error) {
        *error = "waivers line " + std::to_string(lineno) +
                 ": waiver for '" + w.pattern +
                 "' has no reason (reasons are mandatory)";
      }
      return false;
    }
    out->push_back(std::move(w));
  }
  return true;
}

void Analyzer::AddFile(FileModel model, bool in_lock_universe,
                       bool in_atomics_universe) {
  for (FunctionInfo& f : model.functions) {
    Fn fn;
    fn.info = std::move(f);
    fn.in_lock_universe = in_lock_universe;
    fn.in_atomics_universe = in_atomics_universe;
    fns_.push_back(std::move(fn));
  }
  for (MemberDecl& m : model.members) {
    MemberRec rec;
    rec.decl = std::move(m);
    rec.in_atomics_universe = in_atomics_universe;
    members_.push_back(std::move(rec));
  }
  index_built_ = false;
}

void Analyzer::BuildIndex() const {
  if (index_built_) return;
  name_index_.clear();
  hot_by_key_.clear();
  requires_by_key_.clear();
  for (size_t i = 0; i < fns_.size(); ++i) {
    const FunctionInfo& f = fns_[i].info;
    name_index_[f.name].push_back(static_cast<int>(i));
    const std::string key = MergeKey(f);
    if (f.hot) hot_by_key_[key] = true;
    for (const std::string& r : f.requires_locks) {
      auto& v = requires_by_key_[key];
      if (std::find(v.begin(), v.end(), r) == v.end()) v.push_back(r);
    }
  }
  index_built_ = true;
}

const std::vector<int>& Analyzer::Lookup(const std::string& name) const {
  static const std::vector<int> empty;
  auto it = name_index_.find(name);
  return it == name_index_.end() ? empty : it->second;
}

bool Analyzer::MergedHot(const Fn& fn) const {
  auto it = hot_by_key_.find(MergeKey(fn.info));
  return it != hot_by_key_.end() && it->second;
}

std::vector<std::string> Analyzer::MergedRequires(const Fn& fn) const {
  auto it = requires_by_key_.find(MergeKey(fn.info));
  return it == requires_by_key_.end() ? std::vector<std::string>{}
                                      : it->second;
}

std::vector<int> Analyzer::Resolve(const Fn& caller,
                                   const CallSite& call) const {
  // std:: (and other external namespaces we know are external) never
  // resolve into the universe; unknown names fall out naturally below.
  if (call.qualifier == "std" || call.qualifier.rfind("std::", 0) == 0) {
    return {};
  }
  const std::vector<int>& cands = Lookup(call.name);
  if (cands.empty()) return {};

  if (!call.qualifier.empty()) {
    // Last qualifier component is a class or namespace name.
    std::string last = call.qualifier;
    const size_t p = last.rfind("::");
    if (p != std::string::npos) last = last.substr(p + 2);
    std::vector<int> filtered;
    for (int i : cands) {
      const FunctionInfo& f = fns_[i].info;
      if (f.class_name == last ||
          f.qname.find(call.qualifier + "::" + call.name) !=
              std::string::npos) {
        filtered.push_back(i);
      }
    }
    // A receiver typed to a base class (virtual dispatch) matches no
    // candidate class directly — fall back to every implementation.
    return filtered.empty() ? cands : filtered;
  }

  if (call.member_call) return cands;  // Unresolved receiver type.

  // Unqualified call: same-class methods and free functions.
  std::vector<int> filtered;
  for (int i : cands) {
    const FunctionInfo& f = fns_[i].info;
    if (f.class_name.empty() || f.class_name == caller.info.class_name) {
      filtered.push_back(i);
    }
  }
  return filtered.empty() ? cands : filtered;
}

std::vector<Finding> Analyzer::RunHotPath(
    std::vector<Waiver>* waivers) const {
  BuildIndex();
  std::vector<Finding> findings;
  std::set<std::string> reported;  // file:line:detail dedupe across entries

  for (size_t e = 0; e < fns_.size(); ++e) {
    const Fn& entry = fns_[e];
    if (!entry.info.defined || !MergedHot(entry)) continue;

    // BFS with parent links for chain reconstruction.
    std::map<int, std::pair<int, int>> parent;  // idx -> (parent idx, line)
    std::set<int> visited;
    std::deque<int> queue;
    queue.push_back(static_cast<int>(e));
    visited.insert(static_cast<int>(e));

    while (!queue.empty()) {
      const int fi = queue.front();
      queue.pop_front();
      const Fn& fn = fns_[fi];

      for (const EffectSite& eff : fn.info.effects) {
        if (eff.validate_only || eff.once_only) continue;
        const std::string key = fn.info.file + ":" +
                                std::to_string(eff.line) + ":" + eff.detail;
        if (!reported.insert(key).second) continue;

        // Chain entry -> ... -> fn.
        std::vector<std::string> chain;
        int cur = fi;
        chain.push_back(fns_[cur].info.qname);
        while (cur != static_cast<int>(e)) {
          auto it = parent.find(cur);
          if (it == parent.end()) break;
          cur = it->second.first;
          chain.push_back(fns_[cur].info.qname);
        }
        std::reverse(chain.begin(), chain.end());

        Finding f;
        f.check = "hot-path";
        f.file = fn.info.file;
        f.line = eff.line;
        f.waiver_key = fn.info.qname;
        std::ostringstream msg;
        msg << fn.info.file << ":" << eff.line << ": '" << fn.info.qname
            << "' " << EffectVerb(eff.type) << " (" << eff.detail
            << ") and is reachable from GQR_HOT '" << entry.info.qname
            << "'\n    call chain: ";
        for (size_t c = 0; c < chain.size(); ++c) {
          if (c) msg << " -> ";
          msg << chain[c];
        }
        f.message = msg.str();
        findings.push_back(std::move(f));
      }

      for (const CallSite& call : fn.info.calls) {
        if (call.validate_only || call.once_only) continue;
        for (int callee : Resolve(fn, call)) {
          if (!fns_[callee].info.defined) continue;
          if (visited.insert(callee).second) {
            parent[callee] = {fi, call.line};
            queue.push_back(callee);
          }
        }
      }
    }
  }

  ApplyWaivers(&findings, waivers);
  return findings;
}

std::vector<Finding> Analyzer::RunLockOrder(
    std::vector<Waiver>* waivers) const {
  BuildIndex();

  struct EdgeInfo {
    std::string file;
    int line = 0;           // acquisition site of `to`
    int held_line = 0;      // where `from` was acquired (0: GQR_REQUIRES)
    std::string function;
  };
  // from -> to -> first site that established the edge.
  std::map<std::string, std::map<std::string, EdgeInfo>> graph;
  std::vector<Finding> findings;
  std::set<std::string> reported;

  auto add_edge = [&](const std::string& from, const std::string& to,
                      EdgeInfo info) {
    auto& row = graph[from];
    if (row.find(to) == row.end()) row.emplace(to, std::move(info));
  };

  for (const Fn& fn : fns_) {
    if (!fn.in_lock_universe || !fn.info.defined) continue;
    const std::vector<std::string> pre = MergedRequires(fn);
    for (const AcquireSite& acq : fn.info.acquires) {
      if (!acq.blocking) continue;  // try-lock: cannot close a cycle
      std::vector<std::pair<std::string, int>> held;
      for (const std::string& r : pre) held.emplace_back(r, 0);
      for (size_t h = 0; h < acq.held_exprs.size(); ++h) {
        held.emplace_back(acq.held_exprs[h],
                          h < acq.held_lines.size() ? acq.held_lines[h] : 0);
      }
      for (const auto& [from, held_line] : held) {
        if (from == acq.lock_expr) {
          // Self-edge: nested acquisition of the same lock identity.
          const std::string key = "self:" + from + ":" + fn.info.file + ":" +
                                  std::to_string(acq.line);
          if (!reported.insert(key).second) continue;
          Finding f;
          f.check = "lock-order";
          f.file = fn.info.file;
          f.line = acq.line;
          f.waiver_key = from + "->" + acq.lock_expr;
          f.message = fn.info.file + ":" + std::to_string(acq.line) +
                      ": nested acquisition of lock '" + from + "' in '" +
                      fn.info.qname +
                      "' (already held" +
                      (held_line ? " since line " + std::to_string(held_line)
                                 : " via GQR_REQUIRES") +
                      ") — same-identity nesting self-deadlocks or inverts "
                      "across threads";
          findings.push_back(std::move(f));
          continue;
        }
        EdgeInfo info;
        info.file = fn.info.file;
        info.line = acq.line;
        info.held_line = held_line;
        info.function = fn.info.qname;
        add_edge(from, acq.lock_expr, std::move(info));
      }
    }
  }

  // Cycle detection: DFS with colors; report each cycle once (rotated to
  // its lexicographically smallest node for deduplication).
  std::map<std::string, int> color;  // 0 white, 1 grey, 2 black
  std::vector<std::string> stack;

  std::function<void(const std::string&)> dfs = [&](const std::string& node) {
    color[node] = 1;
    stack.push_back(node);
    auto it = graph.find(node);
    if (it != graph.end()) {
      for (const auto& [next, info] : it->second) {
        if (color[next] == 1) {
          // Cycle: suffix of stack from `next`.
          auto from = std::find(stack.begin(), stack.end(), next);
          std::vector<std::string> cycle(from, stack.end());
          // Canonical rotation for dedupe.
          auto min_it = std::min_element(cycle.begin(), cycle.end());
          std::rotate(cycle.begin(), min_it, cycle.end());
          std::string key = "cycle:";
          for (const auto& n : cycle) key += n + ";";
          if (reported.insert(key).second) {
            Finding f;
            f.check = "lock-order";
            std::ostringstream msg;
            msg << "lock-order cycle: ";
            for (size_t c = 0; c < cycle.size(); ++c) {
              msg << cycle[c] << " -> ";
            }
            msg << cycle.front();
            std::string wkey;
            for (size_t c = 0; c < cycle.size(); ++c) {
              const std::string& a = cycle[c];
              const std::string& b = cycle[(c + 1) % cycle.size()];
              const EdgeInfo& ei = graph[a][b];
              msg << "\n    " << a << " -> " << b << " at " << ei.file << ":"
                  << ei.line << " in '" << ei.function << "'"
                  << (ei.held_line
                          ? " (" + a + " held since line " +
                                std::to_string(ei.held_line) + ")"
                          : " (" + a + " held via GQR_REQUIRES)");
              if (!wkey.empty()) wkey += " ";
              wkey += a + "->" + b;
              if (f.file.empty()) {
                f.file = ei.file;
                f.line = ei.line;
              }
            }
            f.waiver_key = wkey;
            f.message = msg.str();
            findings.push_back(std::move(f));
          }
          continue;
        }
        if (color[next] == 0) dfs(next);
      }
    }
    stack.pop_back();
    color[node] = 2;
  };
  for (const auto& [node, edges] : graph) {
    (void)edges;
    if (color[node] == 0) dfs(node);
  }

  ApplyWaivers(&findings, waivers);
  return findings;
}

std::vector<Finding> Analyzer::RunAtomics(
    std::vector<Waiver>* waivers) const {
  BuildIndex();
  std::vector<Finding> findings;

  auto member_key = [](const MemberDecl& m) {
    return m.class_name.empty() ? m.name : m.class_name + "::" + m.name;
  };

  // (3a) Publication intent: a pointer payload under counter/seqlock
  // intent is loaded relaxed (or without a paired release store), so the
  // dereference on the reader side has no happens-before edge to the
  // initialization it reads.
  for (const MemberRec& rec : members_) {
    if (!rec.in_atomics_universe) continue;
    const MemberDecl& m = rec.decl;
    if (m.type == "Atomic" &&
        m.type_args.find('*') != std::string::npos &&
        m.type_args.find("kPublicationPtr") == std::string::npos) {
      Finding f;
      f.check = "atomics";
      f.file = m.file;
      f.line = m.line;
      f.waiver_key = member_key(m);
      f.message = m.file + ":" + std::to_string(m.line) +
                  ": pointer-typed Atomic '" + member_key(m) +
                  "' without AtomicIntent::kPublicationPtr — a relaxed "
                  "load would feed a pointer dereference with no acquire "
                  "edge; use AtomicPublicationPtr<T>";
      findings.push_back(std::move(f));
    }
  }

  // (3b) Wait/notify mutex consistency. Member types from *all* files
  // (universe or not) identify the CondVars; only sites in universe
  // functions are judged.
  std::map<std::string, const MemberDecl*> member_types;
  for (const MemberRec& rec : members_) {
    member_types.emplace(member_key(rec.decl), &rec.decl);
  }
  auto is_condvar = [&](const std::string& canon) {
    auto it = member_types.find(canon);
    if (it == member_types.end()) return false;
    const std::string& t = it->second->type;
    return t == "CondVar" || t == "condition_variable" ||
           t == "condition_variable_any";
  };

  struct WaitSite {
    std::string mutex;
    std::string file;
    int line = 0;
  };
  struct NotifySite {
    const Fn* fn;
    int line = 0;
  };
  std::map<std::string, std::vector<WaitSite>> waits;
  std::map<std::string, std::vector<NotifySite>> notifies;
  for (const Fn& fn : fns_) {
    if (!fn.in_atomics_universe || !fn.info.defined) continue;
    for (const CvOpSite& op : fn.info.cv_ops) {
      if (!is_condvar(op.cv_expr)) continue;
      if (op.is_wait) {
        waits[op.cv_expr].push_back({op.mutex_expr, fn.info.file, op.line});
      } else {
        notifies[op.cv_expr].push_back({&fn, op.line});
      }
    }
  }

  for (const auto& [cv, sites] : waits) {
    // One consistent wait mutex per condvar.
    std::string mutex;
    for (const WaitSite& w : sites) {
      if (w.mutex.empty()) continue;
      if (mutex.empty()) {
        mutex = w.mutex;
        continue;
      }
      if (w.mutex != mutex) {
        Finding f;
        f.check = "atomics";
        f.file = w.file;
        f.line = w.line;
        f.waiver_key = cv;
        f.message = w.file + ":" + std::to_string(w.line) +
                    ": condvar '" + cv + "' waited with different mutexes "
                    "('" + mutex + "' elsewhere, '" + w.mutex +
                    "' here) — waiters under different locks miss each "
                    "other's predicate writes";
        findings.push_back(std::move(f));
        break;
      }
    }
    if (mutex.empty()) continue;

    // Every notify must come from a function that acquires (or declares
    // via GQR_REQUIRES) the wait mutex: the predicate write it orders
    // with the waiter's re-check must be under that lock.
    auto nit = notifies.find(cv);
    if (nit == notifies.end()) continue;
    for (const NotifySite& n : nit->second) {
      bool holds = false;
      for (const AcquireSite& a : n.fn->info.acquires) {
        if (a.lock_expr == mutex) {
          holds = true;
          break;
        }
      }
      if (!holds) {
        for (const std::string& r : MergedRequires(*n.fn)) {
          if (r == mutex) {
            holds = true;
            break;
          }
        }
      }
      if (!holds) {
        Finding f;
        f.check = "atomics";
        f.file = n.fn->info.file;
        f.line = n.line;
        f.waiver_key = cv;
        f.message = n.fn->info.file + ":" + std::to_string(n.line) + ": '" +
                    n.fn->info.qname + "' notifies '" + cv +
                    "' without acquiring its wait mutex '" + mutex +
                    "' — the predicate write is unordered with the "
                    "waiter's re-check (lost-wakeup risk)";
        findings.push_back(std::move(f));
      }
    }
  }

  ApplyWaivers(&findings, waivers);
  return findings;
}

void Analyzer::DumpFunctions(const std::string& pattern) const {
  BuildIndex();
  std::ostringstream out;
  for (const Fn& fn : fns_) {
    const FunctionInfo& f = fn.info;
    if (f.qname.find(pattern) == std::string::npos) continue;
    out << f.qname << " (" << f.file << ":" << f.line << ")"
        << (f.defined ? " defined" : " decl") << (MergedHot(fn) ? " HOT" : "")
        << "\n";
    for (const std::string& r : f.requires_locks) {
      out << "  requires " << r << "\n";
    }
    for (const CallSite& c : f.calls) {
      out << "  call " << (c.qualifier.empty() ? "" : c.qualifier + "::")
          << c.name << " @" << c.line << (c.member_call ? " member" : "")
          << (c.validate_only ? " validate-only" : "")
          << (c.once_only ? " once-only" : "") << "\n";
    }
    for (const EffectSite& e : f.effects) {
      out << "  effect " << e.detail << " @" << e.line
          << (e.validate_only ? " validate-only" : "")
          << (e.once_only ? " once-only" : "") << "\n";
    }
    for (const AcquireSite& a : f.acquires) {
      out << "  acquire " << a.lock_expr << " @" << a.line
          << (a.blocking ? "" : " try");
      for (const std::string& h : a.held_exprs) out << " [held " << h << "]";
      out << "\n";
    }
  }
  std::cout << out.str();
}

}  // namespace gqr::analyze
