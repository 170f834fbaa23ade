// Function attributes shared across the library.
#ifndef GQR_UTIL_ATTRIBUTES_H_
#define GQR_UTIL_ATTRIBUTES_H_

/// GQR_HOT marks the per-probe / per-candidate hot paths (GqrProber's
/// bucket generation, the Searcher candidate loop, batched distance
/// evaluation). Two effects:
///
///  - Optimizer hint: the function is placed/optimized as hot code
///    (GCC and Clang `hot` attribute).
///  - Purity anchor: gqr-analyze (tools/analyze) reads the GQR_HOT token
///    and fails if anything transitively reachable from the function
///    allocates (operator new, the malloc family, local owning
///    containers, `reserve` / `shrink_to_fit`), throws or blocks.
///    Amortized growth of caller-owned scratch buffers (push_back/resize
///    on SearchScratch) is allowed by design and covered at runtime by
///    tests/scratch_reuse_test.cc.
///
/// Apply to declarations (attributes inherit to out-of-line
/// definitions).
#if defined(__GNUC__)
#define GQR_HOT __attribute__((hot))
#else
#define GQR_HOT
#endif

#endif  // GQR_UTIL_ATTRIBUTES_H_
