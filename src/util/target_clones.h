// Function multi-versioning for hot loops.
//
// On x86-64 GCC, ECAD_TARGET_CLONES clones a function for wider ISAs and
// picks the best one at load time via ifunc dispatch; default codegen stays
// portable (SSE2), so binaries built without -march still run the AVX2 /
// AVX-512 code on hardware that has it. TSan cannot run ifunc resolvers
// (they execute before the runtime is initialized and segfault at load), so
// sanitized builds fall back to the portable code — races are
// ISA-independent, nothing is lost.
//
// Helpers called from a cloned function must be ECAD_ALWAYS_INLINE: only
// inlined code is compiled for the clone's ISA, and a vector-typed helper
// left out of line would be called across mismatched vector ABIs.
//
// ECAD_HAS_TARGET_CLONES is 1 exactly where the x86-64-v3/v4 variants are
// built. The packed GEMM kernel builds its variants by hand under the same
// condition, and tests use it to know which arithmetic the host runs.
#pragma once

#if defined(__GNUC__) && !defined(__clang__) && defined(__x86_64__) && \
    !defined(__SANITIZE_THREAD__)
#define ECAD_TARGET_CLONES \
  __attribute__((target_clones("default", "arch=x86-64-v3", "arch=x86-64-v4")))
#define ECAD_HAS_TARGET_CLONES 1
#else
#define ECAD_TARGET_CLONES
#define ECAD_HAS_TARGET_CLONES 0
#endif

#if defined(__GNUC__)
#define ECAD_ALWAYS_INLINE inline __attribute__((always_inline))
#else
#define ECAD_ALWAYS_INLINE inline
#endif
