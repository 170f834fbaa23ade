// Self-test TU (analyzed, never compiled): one GQR_HOT function that
// hits every direct allocation source — a local owning container,
// operator new, the malloc family and explicit capacity churn. The
// hot-path check must report each one: its transitive purity is a
// superset of a per-function allocation rule, and this seed proves the
// direct case is not lost.
#include <cstdlib>
#include <vector>

namespace seedtokens {

GQR_HOT int BadHotFunction(int n) {
  std::vector<int> scratch(static_cast<size_t>(n), 1);  // local container
  int* raw = new int[static_cast<size_t>(n)];           // operator new
  void* block = std::malloc(16);                        // malloc family
  scratch.reserve(128);                                 // capacity churn
  int sum = 0;
  for (int v : scratch) sum += v;
  std::free(block);
  delete[] raw;
  return sum;
}

}  // namespace seedtokens
