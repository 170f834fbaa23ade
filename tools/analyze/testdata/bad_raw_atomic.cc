// Self-test TU (analyzed, never compiled): raw std::atomic and
// std::atomic_flag outside util/atomic.h. Under src/ the token rule
// raw-atomic must flag both declarations; product atomics are
// gqr::Atomic<T>, so the declaration names its memory-order intent and
// GQR_MODELCHECK builds can interpose a schedule point on every
// operation. Tests and benches drive unmanaged threads the explorer
// never interposes on, so the same file under tests/ must stay quiet,
// as must util/atomic.h itself.
//
// The commented and quoted mentions must not count:
//   std::atomic<int> in_a_comment;
#include <atomic>

namespace seedtokens {

class Counter {
 public:
  void Bump() { hits_.fetch_add(1, std::memory_order_relaxed); }

 private:
  std::atomic<unsigned long> hits_{0};  // seeded: raw atomic member
};

inline std::atomic_flag g_busy = ATOMIC_FLAG_INIT;  // seeded: atomic_flag

inline const char* Doc() {
  return "mentioning std::atomic<int> in a string is fine";
}

}  // namespace seedtokens
