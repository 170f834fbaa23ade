// Self-test TU (analyzed, never compiled): std::mutex /
// std::condition_variable / std::lock_guard outside util/sync.h. The
// token rule raw-sync must flag all three; the self-test analyzes this
// file as if it sat under src/, tests/, bench/, fuzz/ and examples/, and
// as util/sync.h, where it must stay quiet.
#include <condition_variable>
#include <mutex>

namespace seedtokens {

std::mutex g_bad_mutex;           // seeded: raw mutex
std::condition_variable g_bad_cv;  // seeded: raw condvar

int BadCriticalSection(int x) {
  std::lock_guard<std::mutex> lock(g_bad_mutex);  // seeded: raw scoped lock
  return x + 1;
}

}  // namespace seedtokens
