// Self-test TU (analyzed, never compiled): one condition variable
// waited on under two different mutexes. Check (3b) must flag it —
// waiters under different locks miss each other's predicate writes, so
// a notify ordered by one mutex is a lost wakeup for the waiter holding
// the other.

namespace seedcv {

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
  void NotifyAll();
};

class Queue {
 public:
  void Pop() {
    MutexLock lock(mu_a_);
    while (empty_) cv_.Wait(mu_a_);
  }

  void Drain() {
    MutexLock lock(mu_b_);
    while (empty_) cv_.Wait(mu_b_);  // seeded: same cv, different mutex
  }

  void Push() {
    MutexLock lock(mu_a_);
    empty_ = false;
    cv_.NotifyOne();
  }

 private:
  Mutex mu_a_;
  Mutex mu_b_;
  CondVar cv_;
  bool empty_ = true;
};

}  // namespace seedcv
