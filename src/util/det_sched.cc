#include "util/det_sched.h"

#include <algorithm>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <mutex>
#include <thread>
#include <unordered_map>
#include <vector>

namespace gqr::det {
namespace {

using Clock = std::chrono::steady_clock;

// ---------------------------------------------------------------------------
// Transitions. A managed thread is always either running (exactly one at
// a time) or parked with a published pending Op describing the next
// synchronization operation it wants to take. The coordinator picks one
// enabled pending op per step.
// ---------------------------------------------------------------------------

enum class OpKind : uint8_t {
  kNone,  // Registered but not yet arrived at its first schedule point.
  kStart,
  kMutexLock,
  kMutexTryLock,
  kMutexUnlock,
  kSharedLock,
  kSharedTryLock,
  kSharedUnlock,
  kSharedLockShared,
  kSharedTryLockShared,
  kSharedUnlockShared,
  kCvWaitStart,  // Release the mutex and join the wait queue.
  kCvBlocked,    // In the wait queue (timeout transition when timed).
  kCvRelock,     // Woken (or timed out); reacquiring the mutex.
  kCvNotifyOne,
  kCvNotifyAll,
  kAtomic,
  kYield,  // Parked until another thread takes a transition.
  kSpawn,
  kJoin,
  kExit,
  kAssertFail,
};

const char* OpName(OpKind k) {
  switch (k) {
    case OpKind::kNone: return "none";
    case OpKind::kStart: return "start";
    case OpKind::kMutexLock: return "mutex-lock";
    case OpKind::kMutexTryLock: return "mutex-trylock";
    case OpKind::kMutexUnlock: return "mutex-unlock";
    case OpKind::kSharedLock: return "shared-lock";
    case OpKind::kSharedTryLock: return "shared-trylock";
    case OpKind::kSharedUnlock: return "shared-unlock";
    case OpKind::kSharedLockShared: return "shared-lockshared";
    case OpKind::kSharedTryLockShared: return "shared-trylockshared";
    case OpKind::kSharedUnlockShared: return "shared-unlockshared";
    case OpKind::kCvWaitStart: return "cv-waitstart";
    case OpKind::kCvBlocked: return "cv-timeout";
    case OpKind::kCvRelock: return "cv-relock";
    case OpKind::kCvNotifyOne: return "cv-notifyone";
    case OpKind::kCvNotifyAll: return "cv-notifyall";
    case OpKind::kAtomic: return "atomic";
    case OpKind::kYield: return "yield";
    case OpKind::kSpawn: return "spawn";
    case OpKind::kJoin: return "join";
    case OpKind::kExit: return "exit";
    case OpKind::kAssertFail: return "assert";
  }
  return "?";
}

struct Op {
  OpKind kind = OpKind::kNone;
  const void* obj = nullptr;   // Mutex / shared-mutex / condvar / atomic.
  const void* obj2 = nullptr;  // The mutex of a condvar wait.
  bool write = false;          // Atomic op mutates.
  bool timed = false;          // Condvar wait with a deadline.
  int64_t deadline_us = 0;     // Relative to the exploration's base time.
  int target = -1;             // Spawned / joined logical thread.
  uint64_t yield_seq = 0;      // step_ when the yield was published.
  const char* msg = nullptr;   // ModelAssert message.
};

class Explorer;

struct ThreadState {
  Explorer* ex = nullptr;
  int id = -1;
  std::thread real;
  Op pending;
  bool granted = false;
  bool running = false;   // Between grant and next publish.
  bool finished = false;  // Logical exit transition taken.
  bool hot = false;
  bool result_flag = false;  // try-lock acquired / cv timed out.
  int64_t now_us = 0;        // Virtual-clock snapshot at last grant.
  std::condition_variable cv;
};

struct MutexModel {
  int owner = -1;
};
struct SharedModel {
  int ex_owner = -1;
  std::vector<int> shared;
};
struct CvWaiter {
  int tid;
  const void* mu;
};
struct CvModel {
  std::vector<CvWaiter> waiters;  // FIFO wake order (modeling choice).
};

// One node of the current DFS path. `done` and `chosen` persist across
// schedule executions (the DFS memory); everything else is recomputed
// while replaying the prefix — which doubles as a determinism check.
struct Node {
  std::vector<int> done;  // Choices whose subtrees are fully explored.
  int chosen = -1;
  // Transient (refreshed every execution):
  std::vector<int> enabled;
  std::vector<int> sleep;  // Sleep set on entry (before adding `done`).
  int prev = -1;
  int preempts = 0;
  bool redundant = false;  // Every non-slept choice was already covered.
};

class Explorer {
 public:
  Explorer(const std::function<void()>& body, const Options& opts)
      : body_(body), opts_(opts) {}

  Stats Run();

  // Thread-side entry points (t_self is a managed thread of *this).
  void Publish(Op op);
  int RegisterChildThread();
  void AwaitChildStart(int child_id);
  void ChildMain(int child_id, const std::function<void()>& fn);
  void EraseObject(const void* obj);
  Clock::time_point base() const { return base_; }

 private:
  // Coordinator side. Returns false when a finding (or internal error)
  // ended the exploration.
  bool RunSchedule();
  bool Backtrack();

  std::vector<int> ComputeEnabledLocked();
  bool IsEnabledLocked(const ThreadState& t);
  void ApplyLocked(int tid);
  void WakeLocked(const CvWaiter& w);
  void GrantLocked(ThreadState& t);
  void ValidatePublishLocked(ThreadState& self, const Op& op);
  void SetFindingLocked(const std::string& kind, const std::string& msg);
  void CheckHotBlockedLocked();
  bool QuiescedLocked() const;
  std::string TokenSoFarLocked() const;

  const std::function<void()>& body_;
  Options opts_;
  Stats stats_;
  Clock::time_point base_;

  std::mutex mu_;
  std::condition_variable coord_cv_;
  std::vector<std::unique_ptr<ThreadState>> threads_;
  int running_ = 0;
  std::unordered_map<const void*, MutexModel> mutexes_;
  std::unordered_map<const void*, SharedModel> shareds_;
  std::unordered_map<const void*, CvModel> cvs_;

  bool finding_set_ = false;
  std::string finding_kind_;
  std::string finding_msg_;

  uint64_t step_ = 0;      // Transitions taken in the current schedule.
  int64_t vclock_us_ = 0;  // Virtual clock, microseconds past base_.
  int prev_tid_ = -1;
  int preemptions_ = 0;
  bool redundant_run_ = false;

  std::vector<Node> path_;
  size_t replay_len_ = 0;       // path_[0..replay_len_) choices are forced.
  std::vector<int> sleep_cur_;  // Sleep set while executing a schedule.
};

thread_local ThreadState* t_self = nullptr;

// Serializes Explore() calls process-wide (one exploration at a time)
// and lets brand-new child OS threads find their explorer.
std::mutex g_explore_mu;
Explorer* g_active = nullptr;

bool Contains(const std::vector<int>& v, int x) {
  return std::find(v.begin(), v.end(), x) != v.end();
}

// Object footprint of an op, for the dependency relation driving
// sleep-set wake-ups. `universal` ops conservatively depend on all.
struct Footprint {
  const void* a = nullptr;
  const void* b = nullptr;
  bool atomic_read = false;
  bool universal = false;
};

Footprint FootOf(const Op& op) {
  Footprint f;
  switch (op.kind) {
    case OpKind::kAtomic:
      f.a = op.obj;
      f.atomic_read = !op.write;
      break;
    case OpKind::kCvWaitStart:
      f.a = op.obj;
      f.b = op.obj2;
      break;
    case OpKind::kCvBlocked:
      f.a = op.obj;
      break;
    case OpKind::kCvRelock:
      f.a = op.obj2;  // It is a lock acquire on the wait mutex.
      break;
    case OpKind::kYield:
      break;  // No state change: commutes with everything.
    case OpKind::kStart:
    case OpKind::kSpawn:
    case OpKind::kJoin:
    case OpKind::kExit:
    case OpKind::kAssertFail:
    case OpKind::kNone:
      f.universal = true;
      break;
    default:
      f.a = op.obj;
      break;
  }
  return f;
}

bool Dependent(const Op& x, const Op& y) {
  Footprint a = FootOf(x), b = FootOf(y);
  if (a.universal || b.universal) return true;
  const bool share = (a.a != nullptr && (a.a == b.a || a.a == b.b)) ||
                     (a.b != nullptr && (a.b == b.a || a.b == b.b));
  if (!share) return false;
  if (a.atomic_read && b.atomic_read) return false;  // Read-read commutes.
  return true;
}

bool IsBlockingKind(OpKind k) {
  return k == OpKind::kMutexLock || k == OpKind::kSharedLock ||
         k == OpKind::kSharedLockShared || k == OpKind::kCvBlocked ||
         k == OpKind::kCvRelock || k == OpKind::kJoin;
}

}  // namespace

// ---------------------------------------------------------------------------
// Replay tokens: run-length encoded thread choices, "t0x12.t1.t0x3".
// ---------------------------------------------------------------------------

std::string EncodeToken(const std::vector<int>& choices) {
  std::string out;
  for (size_t i = 0; i < choices.size();) {
    size_t j = i;
    while (j < choices.size() && choices[j] == choices[i]) ++j;
    char buf[32];
    if (j - i == 1) {
      std::snprintf(buf, sizeof buf, "t%d", choices[i]);
    } else {
      std::snprintf(buf, sizeof buf, "t%dx%zu", choices[i], j - i);
    }
    if (!out.empty()) out += '.';
    out += buf;
    i = j;
  }
  return out;
}

bool DecodeToken(const std::string& token, std::vector<int>* choices) {
  choices->clear();
  size_t i = 0;
  while (i < token.size()) {
    if (token[i] != 't') return false;
    ++i;
    size_t tid = 0, digits = 0;
    while (i < token.size() && token[i] >= '0' && token[i] <= '9') {
      tid = tid * 10 + static_cast<size_t>(token[i] - '0');
      ++i;
      ++digits;
    }
    if (digits == 0) return false;
    size_t count = 1;
    if (i < token.size() && token[i] == 'x') {
      ++i;
      count = 0;
      digits = 0;
      while (i < token.size() && token[i] >= '0' && token[i] <= '9') {
        count = count * 10 + static_cast<size_t>(token[i] - '0');
        ++i;
        ++digits;
      }
      if (digits == 0 || count == 0) return false;
    }
    for (size_t k = 0; k < count; ++k) choices->push_back(static_cast<int>(tid));
    if (i < token.size()) {
      if (token[i] != '.') return false;
      ++i;
      if (i == token.size()) return false;  // Trailing separator.
    }
  }
  return !choices->empty() || token.empty();
}

// ---------------------------------------------------------------------------
// Explorer: coordinator side.
// ---------------------------------------------------------------------------

namespace {

std::string PtrStr(const void* p) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%p", p);
  return buf;
}

// "t<tid><what><obj><tail>", built with append: GCC 12 reports a
// -Wrestrict false positive inside std::string operator+ chains that
// start from a literal, which breaks -Werror builds.
std::string ThreadOpMsg(int tid, const char* what, const void* obj,
                        const char* tail) {
  std::string msg = "t";
  msg.append(std::to_string(tid)).append(what).append(PtrStr(obj));
  msg.append(tail);
  return msg;
}

}  // namespace

std::string Explorer::TokenSoFarLocked() const {
  std::vector<int> choices;
  choices.reserve(step_);
  for (size_t i = 0; i < step_ && i < path_.size(); ++i) {
    choices.push_back(path_[i].chosen);
  }
  return EncodeToken(choices);
}

void Explorer::SetFindingLocked(const std::string& kind,
                                const std::string& msg) {
  if (finding_set_) return;  // First finding wins.
  finding_set_ = true;
  finding_kind_ = kind;
  finding_msg_ = msg;
}

bool Explorer::QuiescedLocked() const {
  if (running_ != 0) return false;
  for (const auto& t : threads_) {
    if (!t->finished && t->pending.kind == OpKind::kNone) return false;
  }
  return true;
}

bool Explorer::IsEnabledLocked(const ThreadState& t) {
  if (t.finished) return false;
  const Op& op = t.pending;
  switch (op.kind) {
    case OpKind::kNone:
      return false;
    case OpKind::kMutexLock: {
      auto it = mutexes_.find(op.obj);
      return it == mutexes_.end() || it->second.owner == -1;
    }
    case OpKind::kSharedLock: {
      auto it = shareds_.find(op.obj);
      return it == shareds_.end() ||
             (it->second.ex_owner == -1 && it->second.shared.empty());
    }
    case OpKind::kSharedLockShared: {
      auto it = shareds_.find(op.obj);
      return it == shareds_.end() || it->second.ex_owner == -1;
    }
    case OpKind::kCvBlocked:
      return op.timed;  // Timeout transition; untimed waiters need notify.
    case OpKind::kCvRelock: {
      auto it = mutexes_.find(op.obj2);
      return it == mutexes_.end() || it->second.owner == -1;
    }
    case OpKind::kYield:
      return step_ > op.yield_seq;  // Someone else ran since the yield.
    case OpKind::kJoin:
      return threads_[static_cast<size_t>(op.target)]->finished;
    default:
      return true;
  }
}

std::vector<int> Explorer::ComputeEnabledLocked() {
  std::vector<int> enabled;
  for (const auto& t : threads_) {
    if (IsEnabledLocked(*t)) enabled.push_back(t->id);
  }
  return enabled;
}

void Explorer::CheckHotBlockedLocked() {
  for (const auto& t : threads_) {
    if (!t->hot || t->finished) continue;
    if (IsBlockingKind(t->pending.kind) && !IsEnabledLocked(*t)) {
      SetFindingLocked(
          "hot-blocked",
          "hot-path thread t" + std::to_string(t->id) + " blocked in " +
              OpName(t->pending.kind) + " on " + PtrStr(t->pending.obj));
      return;
    }
    if (t->pending.kind == OpKind::kCvBlocked) {
      // Even a timed wait is a stall on the hot path.
      SetFindingLocked("hot-blocked",
                       "hot-path thread t" + std::to_string(t->id) +
                           " waiting on condvar " + PtrStr(t->pending.obj));
      return;
    }
  }
}

void Explorer::GrantLocked(ThreadState& t) {
  t.granted = true;
  t.running = true;
  t.now_us = vclock_us_;
  ++running_;
  t.cv.notify_all();
}

void Explorer::WakeLocked(const CvWaiter& w) {
  ThreadState& t = *threads_[static_cast<size_t>(w.tid)];
  Op relock;
  relock.kind = OpKind::kCvRelock;
  relock.obj = t.pending.obj;  // The condvar (kept for traces).
  relock.obj2 = w.mu;
  t.pending = relock;
  t.result_flag = false;  // Woken by notify, not timeout.
}

void Explorer::ApplyLocked(int tid) {
  ThreadState& t = *threads_[static_cast<size_t>(tid)];
  const Op op = t.pending;

  const bool prev_enabled =
      prev_tid_ >= 0 && IsEnabledLocked(*threads_[static_cast<size_t>(prev_tid_)]);
  if (prev_tid_ >= 0 && tid != prev_tid_ && prev_enabled) ++preemptions_;

  ++step_;
  ++stats_.transitions;
  ++vclock_us_;

  if (opts_.trace) {
    std::fprintf(stderr, "[det] step %llu: t%d %s obj=%p\n",
                 static_cast<unsigned long long>(step_), tid, OpName(op.kind),
                 op.obj);
  }

  bool grant = true;
  switch (op.kind) {
    case OpKind::kStart:
    case OpKind::kAtomic:
    case OpKind::kYield:
    case OpKind::kSpawn:
    case OpKind::kJoin:
    case OpKind::kCvNotifyOne:
    case OpKind::kCvNotifyAll:
      break;
    case OpKind::kMutexLock:
      mutexes_[op.obj].owner = tid;
      break;
    case OpKind::kMutexTryLock: {
      MutexModel& m = mutexes_[op.obj];
      t.result_flag = (m.owner == -1);
      if (t.result_flag) m.owner = tid;
      break;
    }
    case OpKind::kMutexUnlock:
      mutexes_[op.obj].owner = -1;
      break;
    case OpKind::kSharedLock:
      shareds_[op.obj].ex_owner = tid;
      break;
    case OpKind::kSharedTryLock: {
      SharedModel& s = shareds_[op.obj];
      t.result_flag = (s.ex_owner == -1 && s.shared.empty());
      if (t.result_flag) s.ex_owner = tid;
      break;
    }
    case OpKind::kSharedUnlock:
      shareds_[op.obj].ex_owner = -1;
      break;
    case OpKind::kSharedLockShared:
      shareds_[op.obj].shared.push_back(tid);
      break;
    case OpKind::kSharedTryLockShared: {
      SharedModel& s = shareds_[op.obj];
      t.result_flag = (s.ex_owner == -1);
      if (t.result_flag) s.shared.push_back(tid);
      break;
    }
    case OpKind::kSharedUnlockShared: {
      SharedModel& s = shareds_[op.obj];
      auto it = std::find(s.shared.begin(), s.shared.end(), tid);
      if (it != s.shared.end()) s.shared.erase(it);
      break;
    }
    case OpKind::kCvWaitStart: {
      mutexes_[op.obj2].owner = -1;  // Atomic release-and-wait.
      cvs_[op.obj].waiters.push_back({tid, op.obj2});
      Op blocked = op;
      blocked.kind = OpKind::kCvBlocked;
      t.pending = blocked;
      grant = false;
      break;
    }
    case OpKind::kCvBlocked: {  // The timeout transition fires.
      CvModel& c = cvs_[op.obj];
      for (size_t i = 0; i < c.waiters.size(); ++i) {
        if (c.waiters[i].tid == tid) {
          c.waiters.erase(c.waiters.begin() + static_cast<long>(i));
          break;
        }
      }
      vclock_us_ = std::max(vclock_us_, op.deadline_us);
      Op relock;
      relock.kind = OpKind::kCvRelock;
      relock.obj = op.obj;
      relock.obj2 = op.obj2;
      t.pending = relock;
      t.result_flag = true;  // Timed out.
      grant = false;
      break;
    }
    case OpKind::kCvRelock:
      mutexes_[op.obj2].owner = tid;
      break;
    case OpKind::kExit:
      t.finished = true;
      // Grant without counting as running: the thread takes no further
      // transitions, it just unwinds and lets the OS thread exit.
      t.granted = true;
      t.now_us = vclock_us_;
      t.cv.notify_all();
      grant = false;
      break;
    default:
      break;
  }

  // Notifications move waiters to the relock phase. Done after the
  // switch so kCvNotify* shares the grant path.
  if (op.kind == OpKind::kCvNotifyOne) {
    CvModel& c = cvs_[op.obj];
    if (!c.waiters.empty()) {
      WakeLocked(c.waiters.front());
      c.waiters.erase(c.waiters.begin());
    }
  } else if (op.kind == OpKind::kCvNotifyAll) {
    CvModel& c = cvs_[op.obj];
    for (const CvWaiter& w : c.waiters) WakeLocked(w);
    c.waiters.clear();
  }

  prev_tid_ = tid;

  // Sleep-set maintenance: the executed thread wakes trivially; any
  // sleeper whose pending op depends on the executed op wakes too.
  sleep_cur_.erase(std::remove(sleep_cur_.begin(), sleep_cur_.end(), tid),
                   sleep_cur_.end());
  sleep_cur_.erase(
      std::remove_if(sleep_cur_.begin(), sleep_cur_.end(),
                     [&](int s) {
                       return Dependent(
                           threads_[static_cast<size_t>(s)]->pending, op);
                     }),
      sleep_cur_.end());

  if (grant) GrantLocked(t);
}

bool Explorer::RunSchedule() {
  {
    std::lock_guard<std::mutex> lk(mu_);
    mutexes_.clear();
    shareds_.clear();
    cvs_.clear();
    threads_.clear();
    finding_set_ = false;
    step_ = 0;
    vclock_us_ = 0;
    prev_tid_ = -1;
    preemptions_ = 0;
    redundant_run_ = false;
    sleep_cur_.clear();

    auto root = std::make_unique<ThreadState>();
    root->ex = this;
    root->id = 0;
    threads_.push_back(std::move(root));
  }
  ThreadState* root = threads_[0].get();
  root->real = std::thread([this, root] {
    t_self = root;
    Op start;
    start.kind = OpKind::kStart;
    Publish(start);
    body_();
    Op ex;
    ex.kind = OpKind::kExit;
    Publish(ex);
    t_self = nullptr;
  });

  bool clean = true;
  {
    std::unique_lock<std::mutex> lk(mu_);
    for (;;) {
      coord_cv_.wait(lk, [&] { return QuiescedLocked(); });
      if (!finding_set_) CheckHotBlockedLocked();
      if (finding_set_) {
        clean = false;
        break;
      }
      bool all_finished = true;
      for (const auto& t : threads_) all_finished = all_finished && t->finished;
      if (all_finished) break;

      std::vector<int> enabled = ComputeEnabledLocked();
      if (enabled.empty()) {
        std::string blocked;
        for (const auto& t : threads_) {
          if (t->finished) continue;
          if (!blocked.empty()) blocked += ", ";
          blocked += "t" + std::to_string(t->id) + ":" +
                     OpName(t->pending.kind) + "(" + PtrStr(t->pending.obj) +
                     ")";
        }
        SetFindingLocked("deadlock", "no enabled transition; blocked: " + blocked);
        clean = false;
        break;
      }
      if (step_ >= opts_.max_steps) {
        SetFindingLocked("livelock",
                         "schedule exceeded max_steps=" +
                             std::to_string(opts_.max_steps) +
                             " transitions without terminating");
        clean = false;
        break;
      }
      if (enabled.size() > 1) ++stats_.decision_points;

      Node* n;
      if (step_ < replay_len_) {
        n = &path_[step_];
        if (!Contains(enabled, n->chosen)) {
          SetFindingLocked(
              "internal",
              "replay divergence at step " + std::to_string(step_) +
                  ": t" + std::to_string(n->chosen) +
                  " not enabled (scenario must be deterministic; see "
                  "DESIGN.md §18)");
          clean = false;
          break;
        }
      } else {
        // Fresh node: prefer continuing the previous thread (cooperative
        // baseline = zero preemptions), else the lowest awake tid.
        std::vector<int> eligible;
        for (int tid : enabled) {
          if (!Contains(sleep_cur_, tid)) eligible.push_back(tid);
        }
        int choice;
        bool redundant = false;
        if (eligible.empty()) {
          // Everything runnable is asleep: this continuation is provably
          // equivalent to an explored one. Run it out (the real threads
          // must finish) but stop branching below this point.
          choice = Contains(enabled, prev_tid_) ? prev_tid_ : enabled[0];
          redundant = true;
          if (!redundant_run_) {
            redundant_run_ = true;
            ++stats_.redundant_runs;
          }
        } else {
          choice = Contains(eligible, prev_tid_) ? prev_tid_ : eligible[0];
        }
        path_.push_back(Node{});
        n = &path_.back();
        n->chosen = choice;
        n->redundant = redundant;
      }
      n->enabled = enabled;
      n->sleep = sleep_cur_;
      n->prev = prev_tid_;
      n->preempts = preemptions_;
      for (int d : n->done) {
        if (!Contains(sleep_cur_, d)) sleep_cur_.push_back(d);
      }
      ApplyLocked(n->chosen);
    }
    if (finding_set_) {
      stats_.found = true;
      stats_.finding_kind = finding_kind_;
      stats_.finding_message = finding_msg_;
      stats_.finding_token = TokenSoFarLocked();
    }
  }

  if (clean) {
    for (auto& t : threads_) {
      if (t->real.joinable()) t->real.join();
    }
    ++stats_.schedules;
    stats_.max_depth = std::max(stats_.max_depth, step_);
  }
  // On a finding the scenario threads stay parked (they may be
  // deadlocked — that can be the finding); the process is expected to
  // exit after reporting. Detach so ~thread() does not terminate().
  if (!clean) {
    for (auto& t : threads_) {
      if (t->real.joinable()) t->real.detach();
    }
  }
  return clean;
}

bool Explorer::Backtrack() {
  while (!path_.empty()) {
    Node& n = path_.back();
    if (!Contains(n.done, n.chosen)) n.done.push_back(n.chosen);
    if (!n.redundant) {
      for (int tid : n.enabled) {
        if (Contains(n.done, tid)) continue;
        if (Contains(n.sleep, tid)) {
          ++stats_.sleep_skips;
          n.done.push_back(tid);
          continue;
        }
        const bool preempt =
            n.prev >= 0 && tid != n.prev && Contains(n.enabled, n.prev);
        if (preempt && n.preempts + 1 > opts_.preemption_bound) {
          ++stats_.bound_skips;
          n.done.push_back(tid);
          continue;
        }
        n.chosen = tid;
        replay_len_ = path_.size();
        return true;
      }
    }
    path_.pop_back();
  }
  return false;
}

Stats Explorer::Run() {
  const auto t0 = Clock::now();
  base_ = t0;

  if (!opts_.replay_token.empty()) {
    std::vector<int> choices;
    if (!DecodeToken(opts_.replay_token, &choices) || choices.empty()) {
      stats_.found = true;
      stats_.finding_kind = "internal";
      stats_.finding_message =
          "unparseable replay token: " + opts_.replay_token;
      return stats_;
    }
    for (int c : choices) {
      Node n;
      n.chosen = c;
      path_.push_back(n);
    }
    replay_len_ = path_.size();
    RunSchedule();
    stats_.complete = true;  // One schedule requested, one executed.
    stats_.wall_ms = std::chrono::duration<double, std::milli>(
                         Clock::now() - t0)
                         .count();
    return stats_;
  }

  replay_len_ = 0;
  for (;;) {
    if (!RunSchedule()) break;  // Finding: stop exploring.
    if (opts_.max_schedules != 0 && stats_.schedules >= opts_.max_schedules) {
      break;  // Incomplete (complete_ stays false).
    }
    if (opts_.budget_ms != 0) {
      const double elapsed =
          std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
      if (elapsed > static_cast<double>(opts_.budget_ms)) break;
    }
    if (!Backtrack()) {
      stats_.complete = true;
      break;
    }
  }
  stats_.wall_ms =
      std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
  return stats_;
}

// ---------------------------------------------------------------------------
// Explorer: thread side.
// ---------------------------------------------------------------------------

void Explorer::ValidatePublishLocked(ThreadState& self, const Op& op) {
  const int tid = self.id;
  switch (op.kind) {
    case OpKind::kMutexLock: {
      auto it = mutexes_.find(op.obj);
      if (it != mutexes_.end() && it->second.owner == tid) {
        SetFindingLocked("double-lock", ThreadOpMsg(tid, " re-locks Mutex ",
                                                    op.obj, " it holds"));
      }
      break;
    }
    case OpKind::kMutexUnlock: {
      auto it = mutexes_.find(op.obj);
      if (it == mutexes_.end() || it->second.owner != tid) {
        SetFindingLocked("unlock-not-owner",
                         ThreadOpMsg(tid, " unlocks Mutex ", op.obj,
                                     " it does not hold"));
      }
      break;
    }
    case OpKind::kSharedLock:
    case OpKind::kSharedLockShared: {
      auto it = shareds_.find(op.obj);
      if (it != shareds_.end() &&
          (it->second.ex_owner == tid ||
           Contains(it->second.shared, tid))) {
        SetFindingLocked("double-lock",
                         ThreadOpMsg(tid, " re-acquires SharedMutex ",
                                     op.obj, " it already holds"));
      }
      break;
    }
    case OpKind::kSharedUnlock: {
      auto it = shareds_.find(op.obj);
      if (it == shareds_.end() || it->second.ex_owner != tid) {
        SetFindingLocked("unlock-not-owner",
                         ThreadOpMsg(tid, " releases exclusive SharedMutex ",
                                     op.obj, " it does not hold"));
      }
      break;
    }
    case OpKind::kSharedUnlockShared: {
      auto it = shareds_.find(op.obj);
      if (it == shareds_.end() || !Contains(it->second.shared, tid)) {
        SetFindingLocked("unlock-not-owner",
                         ThreadOpMsg(tid, " releases shared SharedMutex ",
                                     op.obj, " it does not hold"));
      }
      break;
    }
    case OpKind::kCvWaitStart: {
      auto it = mutexes_.find(op.obj2);
      if (it == mutexes_.end() || it->second.owner != tid) {
        SetFindingLocked("wait-without-mutex",
                         ThreadOpMsg(tid, " waits on condvar ", op.obj,
                                     " without holding its mutex"));
      }
      break;
    }
    case OpKind::kAssertFail:
      SetFindingLocked("assert",
                       op.msg != nullptr ? op.msg : "ModelAssert failed");
      break;
    default:
      break;
  }
}

void Explorer::Publish(Op op) {
  std::unique_lock<std::mutex> lk(mu_);
  ThreadState* self = t_self;
  ValidatePublishLocked(*self, op);
  // A yield is runnable only after some *other* thread takes a transition;
  // stamping the publish step makes IsEnabledLocked's `step_ > yield_seq`
  // test mean exactly that (our own grant already advanced step_).
  if (op.kind == OpKind::kYield) op.yield_seq = step_;
  self->pending = op;
  self->granted = false;
  if (self->running) {
    self->running = false;
    --running_;
  }
  coord_cv_.notify_all();
  self->cv.wait(lk, [&] { return self->granted; });
}

int Explorer::RegisterChildThread() {
  std::lock_guard<std::mutex> lk(mu_);
  auto child = std::make_unique<ThreadState>();
  child->ex = this;
  child->id = static_cast<int>(threads_.size());
  threads_.push_back(std::move(child));
  return threads_.back()->id;
}

void Explorer::EraseObject(const void* obj) {
  std::lock_guard<std::mutex> lk(mu_);
  auto mit = mutexes_.find(obj);
  if (mit != mutexes_.end()) {
    if (mit->second.owner != -1) {
      SetFindingLocked("destroy-held", "Mutex " + PtrStr(obj) +
                                           " destroyed while held by t" +
                                           std::to_string(mit->second.owner));
    }
    mutexes_.erase(mit);
  }
  auto sit = shareds_.find(obj);
  if (sit != shareds_.end()) {
    if (sit->second.ex_owner != -1 || !sit->second.shared.empty()) {
      SetFindingLocked("destroy-held",
                       "SharedMutex " + PtrStr(obj) + " destroyed while held");
    }
    shareds_.erase(sit);
  }
  auto cit = cvs_.find(obj);
  if (cit != cvs_.end()) {
    if (!cit->second.waiters.empty()) {
      SetFindingLocked("destroy-held",
                       "CondVar " + PtrStr(obj) + " destroyed with waiters");
    }
    cvs_.erase(cit);
  }
}

void Explorer::AwaitChildStart(int child_id) {
  std::unique_lock<std::mutex> lk(mu_);
  ThreadState* child = threads_[static_cast<size_t>(child_id)].get();
  coord_cv_.wait(lk, [&] { return child->pending.kind != OpKind::kNone; });
}

void Explorer::ChildMain(int child_id, const std::function<void()>& fn) {
  ThreadState* self;
  {
    std::lock_guard<std::mutex> lk(mu_);
    self = threads_[static_cast<size_t>(child_id)].get();
  }
  t_self = self;
  Op start;
  start.kind = OpKind::kStart;
  Publish(start);
  fn();
  Op ex;
  ex.kind = OpKind::kExit;
  Publish(ex);
  t_self = nullptr;
}

// ---------------------------------------------------------------------------
// Public API.
// ---------------------------------------------------------------------------

Stats Explore(const std::function<void()>& body, const Options& options) {
  std::lock_guard<std::mutex> g(g_explore_mu);
  // Heap-allocated so that on a finding the Explorer (and the parked
  // scenario threads waiting on its condition variables) can be leaked
  // safely: a finding may be a deadlock, in which case those threads can
  // never unwind, and the process is expected to report and exit.
  auto* ex = new Explorer(body, options);
  g_active = ex;
  Stats stats = ex->Run();
  g_active = nullptr;
  if (!stats.found) delete ex;
  return stats;
}

bool Active() { return t_self != nullptr; }

void SetHotPath(bool hot) {
  if (t_self != nullptr) t_self->hot = hot;
}

void ModelAssert(bool ok, const char* msg) {
  if (ok) return;
  if (t_self == nullptr) {
    std::fprintf(stderr, "det::ModelAssert failed outside exploration: %s\n",
                 msg != nullptr ? msg : "");
    std::abort();
  }
  Op op;
  op.kind = OpKind::kAssertFail;
  op.msg = msg;
  t_self->ex->Publish(op);  // Never granted; the coordinator aborts.
}

bool VirtualNow(Clock::time_point* now) {
  if (t_self == nullptr) return false;
  *now = t_self->ex->base() + std::chrono::microseconds(t_self->now_us);
  return true;
}

namespace {

// Shared body of the simple single-object hooks.
bool PublishSimple(OpKind kind, const void* obj, const void* obj2 = nullptr) {
  if (t_self == nullptr) return false;
  Op op;
  op.kind = kind;
  op.obj = obj;
  op.obj2 = obj2;
  t_self->ex->Publish(op);
  return true;
}

}  // namespace

bool OnMutexLock(void* mu) { return PublishSimple(OpKind::kMutexLock, mu); }

bool OnMutexTryLock(void* mu, bool* acquired) {
  if (t_self == nullptr) return false;
  Op op;
  op.kind = OpKind::kMutexTryLock;
  op.obj = mu;
  t_self->ex->Publish(op);
  *acquired = t_self->result_flag;
  return true;
}

bool OnMutexUnlock(void* mu) { return PublishSimple(OpKind::kMutexUnlock, mu); }

bool OnSharedLock(void* mu) { return PublishSimple(OpKind::kSharedLock, mu); }

bool OnSharedTryLock(void* mu, bool* acquired) {
  if (t_self == nullptr) return false;
  Op op;
  op.kind = OpKind::kSharedTryLock;
  op.obj = mu;
  t_self->ex->Publish(op);
  *acquired = t_self->result_flag;
  return true;
}

bool OnSharedUnlock(void* mu) {
  return PublishSimple(OpKind::kSharedUnlock, mu);
}

bool OnSharedLockShared(void* mu) {
  return PublishSimple(OpKind::kSharedLockShared, mu);
}

bool OnSharedTryLockShared(void* mu, bool* acquired) {
  if (t_self == nullptr) return false;
  Op op;
  op.kind = OpKind::kSharedTryLockShared;
  op.obj = mu;
  t_self->ex->Publish(op);
  *acquired = t_self->result_flag;
  return true;
}

bool OnSharedUnlockShared(void* mu) {
  return PublishSimple(OpKind::kSharedUnlockShared, mu);
}

bool OnCvWait(void* cv, void* mu) {
  return PublishSimple(OpKind::kCvWaitStart, cv, mu);
}

bool OnCvWaitUntil(void* cv, void* mu, Clock::time_point deadline,
                   bool* timed_out) {
  if (t_self == nullptr) return false;
  Op op;
  op.kind = OpKind::kCvWaitStart;
  op.obj = cv;
  op.obj2 = mu;
  op.timed = true;
  const auto rel = deadline - t_self->ex->base();
  int64_t us =
      std::chrono::duration_cast<std::chrono::microseconds>(rel).count();
  op.deadline_us = us < 0 ? 0 : us;
  t_self->ex->Publish(op);
  *timed_out = t_self->result_flag;
  return true;
}

bool OnCvNotifyOne(void* cv) {
  return PublishSimple(OpKind::kCvNotifyOne, cv);
}

bool OnCvNotifyAll(void* cv) {
  return PublishSimple(OpKind::kCvNotifyAll, cv);
}

void OnAtomicOp(const void* addr, bool write) {
  if (t_self == nullptr) return;
  Op op;
  op.kind = OpKind::kAtomic;
  op.obj = addr;
  op.write = write;
  t_self->ex->Publish(op);
}

void OnYield() {
  if (t_self == nullptr) return;
  Op op;
  op.kind = OpKind::kYield;
  t_self->ex->Publish(op);
}

int RegisterChild() {
  if (t_self == nullptr) return -1;
  return t_self->ex->RegisterChildThread();
}

void RunChild(int child_id, const std::function<void()>& fn) {
  // t_self is null on this brand-new OS thread; it adopts the
  // ThreadState the parent created via RegisterChild. Exactly one
  // exploration is active at a time, so g_active identifies it.
  g_active->ChildMain(child_id, fn);
}

void OnChildSpawned(int child_id) {
  if (t_self == nullptr) return;
  t_self->ex->AwaitChildStart(child_id);
  Op op;
  op.kind = OpKind::kSpawn;
  op.target = child_id;
  t_self->ex->Publish(op);
}

bool OnThreadJoin(int child_id) {
  if (t_self == nullptr || child_id < 0) return false;
  Op op;
  op.kind = OpKind::kJoin;
  op.target = child_id;
  t_self->ex->Publish(op);
  return true;
}

void OnSyncDestroy(const void* obj) {
  // Model-state cleanup when a managed thread destroys a primitive
  // (e.g. a per-request Future::State). Not a schedule point: the
  // destruction order is already fixed by the schedule. Address reuse
  // within one schedule is handled by erasing here.
  if (t_self == nullptr) return;
  t_self->ex->EraseObject(obj);
}

}  // namespace gqr::det
