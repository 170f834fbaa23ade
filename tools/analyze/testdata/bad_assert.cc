// Self-test TU (analyzed, never compiled): bare assert() calls, which
// NDEBUG builds compile away. The token rule raw-assert must flag the
// call and the macro body below — and not this comment's mention of
// assert(), nor the one in the string.
#include <cassert>

#define SEED_EXPECT(x) assert(x)  // seeded: assert hidden in a macro

namespace seedtokens {

inline int CheckedIncrement(int x) {
  assert(x >= 0);  // seeded: bare assert
  SEED_EXPECT(x < 100);
  static_assert(sizeof(int) >= 4, "static_assert is not assert(");
  return x + 1;
}

}  // namespace seedtokens
