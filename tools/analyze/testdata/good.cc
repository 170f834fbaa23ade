// Self-test TU (analyzed by gqr-analyze, never compiled): every pattern
// here is one the analyzer must stay quiet on.
//
//  * hot path calling a pure helper chain
//  * allocation inside a static (once-only) initializer
//  * allocation behind a GQR_VALIDATE conditional
//  * consistent lock order (A before B everywhere)
//  * try-lock acquisitions, which never close a cycle
//  * member-mutex canonicalization (Class::member identity)
//  * cold-path allocation, and hot-path amortized growth into a
//    caller-owned buffer (the warmed-scratch contract that
//    tests/scratch_reuse_test.cc asserts at runtime)
//  * mentions of assert(), std::mutex and std::atomic<int> in comments
//    and strings, which the token rules must not read

namespace seedgood {

class Mutex {
 public:
  void Lock();
  void Unlock();
  bool TryLock();
};

class MutexLock {
 public:
  explicit MutexLock(Mutex& mu);
  ~MutexLock();
};

Mutex g_a;
Mutex g_b;

int PureLeaf(int x) { return x * 2 + 1; }

int PureMid(int x) { return PureLeaf(x) + PureLeaf(x + 1); }

void ValidateAll(int x);

GQR_HOT int HotEntry(int x) {
  static int* table = new int[64];  // once-only init: not a violation
#if GQR_VALIDATE
  ValidateAll(x);  // validating builds trade speed for checking
#endif
  return PureMid(x) + table[0];
}

void ValidateAll(int x) {
  // Only reachable through the validate-gated call above; the hot-path
  // analysis must not traverse into it.
  int* scratch = new int[x + 1];
  delete[] scratch;
}

void ConsistentOrder1() {
  MutexLock la(g_a);
  MutexLock lb(g_b);
}

void ConsistentOrder2() {
  MutexLock la(g_a);
  MutexLock lb(g_b);
}

void TryNeverBlocks() {
  MutexLock lb(g_b);
  // Try-acquire of g_a while holding g_b: a failed try cannot block, so
  // this must NOT create a b->a edge (which would close a cycle with the
  // a->b order above).
  if (g_a.TryLock()) {
    g_a.Unlock();
  }
}

class Counter {
 public:
  void Bump() {
    MutexLock l(mu_);
    ++n_;
  }

 private:
  Mutex mu_;
  int n_ = 0;
};

// Cold code may allocate freely: only code reachable from GQR_HOT is
// held to the purity contract.
std::vector<int> MakeBuffer(int n) {
  std::vector<int> out(static_cast<size_t>(n), 0);
  out.reserve(static_cast<size_t>(n) + 8);
  return out;
}

// Hot code that only reads, and pushes into caller-owned warmed storage
// — also through reference and pointer locals, which own nothing.
GQR_HOT int GoodHotFunction(const std::vector<int>& v,
                            std::vector<int>* out) {
  std::vector<int>& sink = *out;
  const std::vector<int>* source = &v;
  int sum = 0;
  for (int x : *source) {
    sum += x;
    sink.push_back(x);
  }
  return sum;
}

inline const char* Doc() { return "std::mutex, assert(x), std::atomic<int>"; }

}  // namespace seedgood
