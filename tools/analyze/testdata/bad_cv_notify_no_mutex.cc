// Self-test TU (analyzed, never compiled): a notify whose enclosing
// function never acquires the condvar's wait mutex. Check (3b) must
// flag it — the predicate write preceding the notify is unordered with
// the waiter's locked re-check, which is exactly the shape of the
// PR-8 flush lost-wakeup race the schedule explorer hunts dynamically.

namespace seedcvnotify {

class Mutex {
 public:
  void Lock();
  void Unlock();
};

class MutexLock {
 public:
  explicit MutexLock(Mutex& mu);
  ~MutexLock();
};

class CondVar {
 public:
  void Wait(Mutex& mu);
  void NotifyOne();
};

class Chan {
 public:
  void Recv() {
    MutexLock lock(mu_);
    while (!ready_) cv_.Wait(mu_);
  }

  void Post() {
    ready_ = true;  // seeded: predicate write outside the lock...
    cv_.NotifyOne();  // ...and the notify never orders with Recv's check
  }

 private:
  Mutex mu_;
  CondVar cv_;
  bool ready_ = false;
};

}  // namespace seedcvnotify
